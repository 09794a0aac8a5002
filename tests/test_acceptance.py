"""Acceptance gate: every headline property at its stated tolerance.

Each test prints one machine-readable pass/fail line.  Tolerances are pinned
here and match the documented verification suite; the oracles (closed-form
error law, finite differences, exact circle solution) are independent of the
integration paths they check.
"""

import dataclasses
import json

import numpy as np

from invobs import (
    SphereCost,
    closed_form_deviation,
    monte_carlo,
    parse_scenario,
    preset,
    simulate_cosim,
    simulate_lifted,
    simulate_projected,
)
from invobs.observer import (
    AnisotropicCost,
    check_innovation_equivariance,
    check_synchrony,
    error_angle_closed_form,
)
from invobs.simulate import _fit_rates, so2_oracle_run
from invobs.verify import (
    _batch_theta,
    _random_piecewise,
    _random_sinusoid,
    _smooth_inputs,
    gradient_fd_residual,
    lifted_gradient_fd_residual,
    lifted_gradient_identity_residual,
    metric_identity_residual,
    observer_two_forms_residual,
)

H = 1e-3


def report(num, label, passed, detail):
    print(f"criterion {num:02d} ({label}): {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {num} failed: {detail}"


def scenario(**over):
    doc = {"instance": "so3-s2"}
    doc.update(over)
    return parse_scenario(json.dumps(doc))


def batch_theta(sc, inputs, cost):
    """Error angles of a batch of runs from the scenario's initial pair, one
    per input, under one cost (None: the internal model alone)."""
    S = np.tile(sc.initial_sphere_pair(), (len(inputs), 1, 1))
    return _batch_theta(sc, inputs, cost, S)[1]


def spread(sc, inputs, cost):
    return float(np.max(np.ptp(batch_theta(sc, inputs, cost), axis=1)))


def random_direction(rng):
    v = rng.standard_normal(3)
    return (v / np.linalg.norm(v)).tolist()


def test_criterion_01_error_angle_law():
    """20 projected runs, each with its own input, gain and initial pair,
    stepped as one batch; each run is held to its own closed-form law."""
    rng = np.random.default_rng(2024)
    gains = [0.5, 1.0, 2.0]
    inputs, starts = [], []
    for i in range(20):
        if i % 2 == 0:
            inputs.append(_random_sinusoid(rng))
        else:
            inputs.append(type(_random_sinusoid(rng)).sum_of(_random_sinusoid(rng),
                                                             _random_piecewise(rng, H)))
        starts.append((random_direction(rng), random_direction(rng)))
    k = np.array([gains[i % 3] for i in range(20)])
    t, theta = _batch_theta(scenario(mode="projected", t_end=10.0), inputs,
                            SphereCost(k[:, None, None]), np.array(starts))
    worst = max(float(np.max(np.abs(theta[:, i] - error_angle_closed_form(theta[0, i], k[i], t))))
                for i in range(20))
    report(1, "error-angle law", worst <= 1e-5,
           f"max closed-form deviation {worst:.3e} <= 1e-5 over 20 scenarios")


def test_criterion_02_autonomy():
    rng = np.random.default_rng(7)
    sc = scenario(mode="projected", k=1.0, t_end=10.0,
                  init={"plant": {"direction": [0.0, 0.6, 0.8]},
                        "observer": {"axis_angle": [1.9, 0.3, 0.0]}})
    inputs = []
    for i in range(20):
        if i % 3 == 2:
            inputs.append(type(inputs[0]).sum_of(_random_sinusoid(rng),
                                                 _random_piecewise(rng, H)))
        else:
            inputs.extend(_smooth_inputs(rng, 1))
    worst = spread(sc, inputs, SphereCost(sc.k))
    report(2, "input independence", worst <= 1e-6,
           f"pointwise error-angle spread {worst:.3e} <= 1e-6 over 20 inputs")


def test_criterion_03_synchrony():
    rng = np.random.default_rng(11)
    sc = scenario(mode="synchrony", k=1.0, t_end=10.0,
                  init={"plant": "identity", "observer": {"axis_angle": [1.4, 0.5, 0.0]}})
    worst = check_synchrony(batch_theta(sc, _smooth_inputs(rng, 3), None))
    lie = dataclasses.replace(
        sc, integrator=dataclasses.replace(sc.integrator, method="lie-euler"))
    for _ in range(2):
        worst = max(worst, check_synchrony(batch_theta(lie, [_random_piecewise(rng, H)], None)))
    neg = spread(sc, _smooth_inputs(rng, 2), AnisotropicCost())
    ok = worst <= 1e-8 and neg >= 1e-3
    report(3, "synchrony", ok,
           f"error-angle excursion {worst:.3e} <= 1e-8; "
           f"non-equivariant control spread {neg:.3e} >= 1e-3")


def test_criterion_04_projection_consistency():
    sc = scenario(mode="co-sim", k=1.0, t_end=10.0,
                  input={"kind": "sinusoid", "amplitude": [1.0, 0.5, 0.8],
                         "frequency": 0.5, "phase": 0.3},
                  init={"plant": "identity", "observer": {"axis_angle": [0.0, 2.0, 0.0]}})
    rec = simulate_cosim(sc)
    resid = float(np.max(rec.consistency))
    report(4, "projection consistency", resid <= 1e-6,
           f"max ||act(Xhat, y0) - yhat|| = {resid:.3e} <= 1e-6 over 10 s")


def test_criterion_05_group_error_convergence():
    sc = scenario(mode="monte-carlo", k=1.0, t_end=15.0, seed=19, sample_every=20,
                  input={"kind": "sinusoid", "amplitude": [0.7, 0.4, 0.6],
                         "frequency": 0.4, "phase": 0.2},
                  mc={"runs": 100, "space": "lifted", "threshold": 1e-3})
    res = monte_carlo(sc)
    report(5, "group-level convergence", res.convergence_fraction == 1.0,
           f"{int(res.convergence_fraction * sc.mc.runs)}/{sc.mc.runs} Haar runs "
           f"below 1e-3 rad by t = 15 s")


def test_criterion_06_almost_global_convergence():
    sweep = preset("almost-global-sweep")
    res = monte_carlo(sweep)
    stationary = scenario(
        mode="projected", k=1.0, t_end=10.0,
        input={"kind": "sinusoid", "amplitude": [1.0, 0.5, 0.8], "frequency": 0.5},
        init={"plant": {"direction": [0.0, 0.6, 0.8]},
              "observer": {"direction": [0.0, -0.6, -0.8]}})
    rec = simulate_projected(stationary)
    pinned = float(np.max(np.abs(rec.theta - np.pi)))
    ok = res.convergence_fraction == 1.0 and pinned <= 1e-9
    report(6, "almost-global convergence", ok,
           f"{sweep.mc.runs}-run convergence fraction {res.convergence_fraction:.4f}; "
           f"antipodal start stays at pi within {pinned:.3e}")


def test_criterion_07_equivariance():
    good = check_innovation_equivariance(SphereCost(1.0), samples=1000, seed=0)
    bad = check_innovation_equivariance(AnisotropicCost(), samples=1000, seed=0)
    ok = good <= 1e-12 and bad >= 1e-3
    report(7, "innovation equivariance", ok,
           f"invariant-cost residual {good:.3e} <= 1e-12; "
           f"non-invariant control {bad:.3e} >= 1e-3")


def test_criterion_08_lift_identities():
    rng = np.random.default_rng(5)
    y0 = np.array([0.0, 0.0, 1.0])
    a = lifted_gradient_identity_residual(rng, y0, 1000)
    b = observer_two_forms_residual(rng, y0, 1000)
    ok = a <= 1e-12 and b <= 1e-12
    report(8, "lifted gradient and observer forms", ok,
           f"gradient-lift residual {a:.3e}, two-forms residual {b:.3e}, both <= 1e-12")


def test_criterion_09_metric_identity():
    rng = np.random.default_rng(6)
    resid = metric_identity_residual(rng, 1000)
    report(9, "half-trace metric identity", resid <= 1e-12,
           f"max residual {resid:.3e} <= 1e-12 over 1000 tangent pairs")


def test_criterion_10_local_rate():
    """The three gains are one (3, 2, 3) batch, one gain per run, from the
    same input and initial pair; each run's rate is fitted as summarize does."""
    k = np.array([0.5, 1.0, 2.0])
    sc = scenario(mode="projected", t_end=20.0,
                  input={"kind": "sinusoid", "amplitude": [0.8, 0.5, 0.6], "frequency": 0.4},
                  init={"plant": "identity", "observer": {"axis_angle": [1.0, 0, 0]}})
    S = np.tile(sc.initial_sphere_pair(), (3, 1, 1))
    t, theta = _batch_theta(sc, [sc.input] * 3, SphereCost(k[:, None, None]), S)
    worst_rel = float(np.max(np.abs(_fit_rates(t, theta.T) - k) / k))
    report(10, "gain sets the local rate", worst_rel <= 0.02,
           f"worst relative rate error {worst_rel:.3%} <= 2% for k in {{0.5, 1, 2}}")


def test_criterion_11_gradient_finite_differences():
    rng = np.random.default_rng(8)
    y0 = np.array([0.0, 0.0, 1.0])
    a = gradient_fd_residual(rng, lambda r: SphereCost(float(r.uniform(0.5, 2.0))), 1000)
    b = lifted_gradient_fd_residual(rng, y0, 1000)
    ok = a <= 1e-5 and b <= 1e-5
    report(11, "gradients match finite differences", ok,
           f"sphere cost {a:.3e}, lifted cost {b:.3e}, both <= 1e-5")


def test_criterion_12_circle_oracle():
    base = {"instance": "so2-s1", "k": 1.0,
            "input": {"kind": "sum", "terms": [
                {"kind": "sinusoid", "amplitude": [0.7], "frequency": 0.4, "phase": 0.5},
                {"kind": "constant", "amplitude": [0.2]}]},
            "init": {"plant": {"angle": 0.3}, "observer": {"angle": 2.4}}}
    fast = parse_scenario(json.dumps(dict(base, t_end=10.0, sample_every=100,
                                          integrator={"h": 1e-4})))
    res = so2_oracle_run(fast)
    long = parse_scenario(json.dumps(dict(base, t_end=20.0)))
    final = so2_oracle_run(long).final_state_error
    ok = res.worst_deviation <= 1e-8 and final <= 1e-6
    report(12, "circle instance against exact solution", ok,
           f"oracle deviation {res.worst_deviation:.3e} (plant and observer) <= 1e-8; "
           f"final state error {final:.3e} <= 1e-6 (trivial stabiliser)")


def test_criterion_13_integrator_structure():
    drift_sc = scenario(mode="lifted", k=1.0, t_end=100.0, sample_every=100,
                        integrator={"method": "lie-euler", "h": H},
                        input={"kind": "sinusoid", "amplitude": [1.0, 0.5, 0.8],
                               "frequency": 0.5, "phase": 0.3},
                        init={"plant": "identity", "observer": {"axis_angle": [0, 2.0, 0]}})
    worst_drift = float(np.max(simulate_lifted(drift_sc).drift))

    def order_run(h):
        sc = scenario(mode="projected", k=2.0, t_end=3.0, sample_every=1,
                      integrator={"method": "rk4-project", "h": h},
                      input={"kind": "constant", "amplitude": [0, 0, 0]},
                      init={"plant": "identity", "observer": {"axis_angle": [2.7, 0, 0]}})
        return closed_form_deviation(simulate_projected(sc), 2.0)

    ratio = order_run(0.01) / order_run(0.005)
    ok = worst_drift <= 1e-9 and 12.0 <= ratio <= 20.0
    report(13, "integrator structure", ok,
           f"orthogonality drift {worst_drift:.3e} <= 1e-9 over 1e5 steps; "
           f"rk4 deviation ratio {ratio:.2f} in [12, 20]")
