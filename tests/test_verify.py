"""Verification-suite plumbing on reduced sample counts."""

import dataclasses

import numpy as np
import pytest

from invobs import closed_form_deviation, run_verification, simulate_projected, verify
from invobs.verify import (
    N_AUTONOMY_INPUTS,
    PropertyCheck,
    _autonomy_inputs,
    _batch_theta,
    _random_piecewise,
    _smooth_inputs,
    cost_closed_forms_residual,
    gradient_fd_residual,
    innovation_cross_form_residual,
    invariant_cost_construction_residual,
    lift_round_trip_residual,
    lifted_gradient_fd_residual,
    lifted_gradient_identity_residual,
    metric_identity_residual,
    observer_two_forms_residual,
    simulation_residuals,
)
from invobs.observer import (
    AnisotropicCost,
    HorizontalSubspace,
    SphereCost,
    check_innovation_equivariance,
    check_synchrony,
    grad1_lifted_cost,
    lifted_observer_field,
    projected_pair_field,
    projected_pair_rates,
    worst_residual,
)
from invobs.sampling import _draws, random_rotation, random_tangent, random_unit
from invobs.scenario import InitState
from invobs.simulate import _integrate, _sphere_pair
from invobs.so3 import act, cross, hat
from invobs.systems import plant_vector_field

from component_fields import observer_body_rate, project_dynamics, projected_observer_field

E3 = np.array([0.0, 0.0, 1.0])
Y0 = np.array([1.0, 2.0, 2.0]) / 3.0


def _spread(sc, inputs, cost):
    """Pointwise error-angle spread of a batch of runs from the scenario's
    initial pair, one per input."""
    S = np.tile(sc.initial_sphere_pair(), (len(inputs), 1, 1))
    return float(np.max(np.ptp(_batch_theta(sc, inputs, cost, S)[1], axis=1)))


def test_property_check_bounds():
    assert PropertyCheck("a", 1e-13, 1e-12, "max").passed
    assert not PropertyCheck("a", 1e-11, 1e-12, "max").passed
    assert PropertyCheck("b", 0.5, 1e-3, "min").passed
    assert not PropertyCheck("b", 1e-5, 1e-3, "min").passed


def test_non_horizontal_lift_fails_round_trip(rng, monkeypatch):
    """A lift with a vertical (stabiliser) component fails the property,
    although the finite differences build their own generator."""
    from invobs.observer import HorizontalSubspace
    from invobs.so3 import act, hat

    lift = HorizontalSubspace.lift
    monkeypatch.setattr(HorizontalSubspace, "lift",
                        lambda self, Xh, v: lift(self, Xh, v) + Xh @ hat(1e-3 * act(Xh, self.y0)))
    assert lift_round_trip_residual(rng, E3, 10) > 1e-6


def test_algebraic_residuals_small(rng):
    assert cost_closed_forms_residual(rng, 100) <= 1e-12
    assert innovation_cross_form_residual(rng, 100) <= 1e-12
    assert metric_identity_residual(rng, 100) <= 1e-12
    assert lift_round_trip_residual(rng, E3, 100) <= 1e-6
    assert lifted_gradient_identity_residual(rng, E3, 100) <= 1e-12
    assert observer_two_forms_residual(rng, E3, 100) <= 1e-12
    assert gradient_fd_residual(rng, lambda r: SphereCost(1.0), 100) <= 1e-5
    assert lifted_gradient_fd_residual(rng, E3, 100) <= 1e-5
    assert invariant_cost_construction_residual(rng, E3, 100) <= 1e-9


@pytest.mark.parametrize("cost", [None, AnisotropicCost()], ids=["invariant", "control"])
def test_batched_runs_match_serial_runs(make_scenario, rng, cost):
    """A batch of runs sees the samples of the serial runs it replaces: each
    column of the batch, with its own input, gain and initial pair, matches
    simulate_projected of that run, and the batch from one start spreads as
    the serial runs do."""
    sc = make_scenario(mode="projected", t_end=0.5)
    inputs = _autonomy_inputs(rng, 4, sc.integrator.h)
    k = rng.uniform(0.5, 2.0, 4)
    y, yhat = rng.standard_normal((2, 4, 3))
    y, yhat = (v / np.linalg.norm(v, axis=1, keepdims=True) for v in (y, yhat))
    runs = [dataclasses.replace(sc, input=sig, k=float(ki), plant=InitState("direction", yi),
                                observer=InitState("direction", yhi))
            for sig, ki, yi, yhi in zip(inputs, k, y, yhat)]

    def serial_theta(r):
        pair = _sphere_pair(SphereCost(r.k) if cost is None else cost)
        return _integrate(r, r.body_rates, pair, r.initial_sphere_pair(), False)[1][:, 0]

    serial = np.stack([serial_theta(r) for r in runs], axis=1)
    t, theta = _batch_theta(sc, inputs, SphereCost(k[:, None, None]) if cost is None else cost,
                            np.stack((y, yhat), axis=1))
    assert np.array_equal(t, simulate_projected(sc).t)
    assert np.max(np.abs(theta - serial)) <= 1e-12
    same_start = np.stack([serial_theta(dataclasses.replace(sc, input=sig)) for sig in inputs])
    want = np.max(same_start.max(axis=0) - same_start.min(axis=0))
    assert abs(_spread(sc, inputs, SphereCost(sc.k) if cost is None else cost) - want) <= 1e-12


def test_lie_euler_autonomy_spread_needs_a_fine_step(make_scenario):
    """Under lie-euler the input-dependent part of the error angle, which
    verify's autonomy spread measures, falls as h^2 (about 100x from
    h = 1e-2 to 1e-3), while the angle's own error falls as h (about 10x):
    the spread exceeds its fixed 1e-6 bound at h = 1e-2 and meets it at
    h = 1e-3."""
    spread, deviation = [], []
    for h in (1e-2, 1e-3):
        sc = make_scenario(mode="verify", seed=3, t_end=1.0,
                           integrator={"method": "lie-euler", "h": h})
        inputs = _autonomy_inputs(np.random.default_rng(3), N_AUTONOMY_INPUTS, h)
        spread.append(_spread(sc, inputs, SphereCost(sc.k)))
        rec = simulate_projected(dataclasses.replace(sc, mode="projected"))
        deviation.append(closed_form_deviation(rec, sc.k))
    assert spread[0] > 1e-6 >= spread[1]
    assert 80.0 <= spread[0] / spread[1] <= 125.0
    assert 9.0 <= deviation[0] / deviation[1] <= 11.0


@pytest.mark.parametrize("method", ["rk4-project", "lie-euler"])
def test_simulation_residuals_equal_the_runs_they_replace(make_scenario, method, monkeypatch):
    """Two time loops give, bit for bit, the spread, control and synchrony
    residuals of separate batches under SphereCost(k), AnisotropicCost() and
    no cost; the antipodal row, which steps in a batch of runs rather than as
    a single pair, matches simulate_projected from -y to rounding."""
    sc = make_scenario(mode="verify", t_end=0.5, integrator={"method": method},
                       input={"kind": "constant", "amplitude": [0.8, 0.6, 1.0]},
                       init={"plant": {"axis_angle": [0.3, 0.7, -0.2]}})
    rng = np.random.default_rng(5)
    h = sc.integrator.h
    autonomy = _autonomy_inputs(rng, N_AUTONOMY_INPUTS, h)
    synchrony = _smooth_inputs(rng, 3) + [_random_piecewise(rng, h)]
    loops = []
    monkeypatch.setattr(verify, "_integrate", lambda *a: loops.append(a) or _integrate(*a))
    spread, control, excursion, antipodal = simulation_residuals(sc, autonomy, synchrony)
    assert len(loops) == 2
    assert spread == _spread(sc, autonomy, SphereCost(sc.k))
    assert control == _spread(sc, autonomy[:2], AnisotropicCost())
    S = np.tile(sc.initial_sphere_pair(), (len(synchrony), 1, 1))
    assert excursion == check_synchrony(_batch_theta(sc, synchrony, None, S)[1])
    y = sc.initial_sphere_pair()[0]
    rec = simulate_projected(dataclasses.replace(sc, mode="projected",
                                                 observer=InitState("direction", -y)))
    assert abs(antipodal - float(np.max(np.abs(rec.theta - np.pi)))) <= 1e-12


def test_pair_fields_match_the_component_fields(rng):
    """The stacked pair fields that step every run agree row by row with the
    per-component fields they stand for: projected_pair_field against
    project_dynamics (the plant row, and every row without a cost) and
    projected_observer_field; projected_pair_rates against u and
    observer_body_rate; plant_vector_field of projected_pair_rates at a group
    pair's outputs against plant_vector_field of u and of
    lifted_observer_field.  Each sample checks, with and without a cost, a
    single pair, a shared-plant stack of several observers, and a stack of
    runs, each run with its own plant, input and gain.  A sphere field whose
    observer rows take the row above as their reference (right for a single
    pair, wrong for several observers on one plant) fails."""
    y0 = E3

    def by_component(c, S, G, u):
        y, X = S[0], G[0]
        field = [project_dynamics(y, u)] + [
            project_dynamics(yh, u) if c is None else projected_observer_field(c, yh, y, u)
            for yh in S[1:]]
        rates = [u] + [u if c is None else observer_body_rate(c, yh, y, u) for yh in S[1:]]
        if c is None:
            return field, rates
        y = act(X, y0)
        group = [plant_vector_field(X, u)] + [
            plant_vector_field(Xh, lifted_observer_field(c, Xh, y, u, y0)) for Xh in G[1:]]
        return field, rates, group

    def gap(got, want):
        return worst_residual(float(np.max(np.abs(g - np.asarray(w)))) for g, w in zip(got, want))

    def worst_gap(sphere_field, n):
        def stacked(c, S, G, u):
            out = sphere_field(c, S, hat(u)), projected_pair_rates(c, S, u)
            if c is None:
                return out
            return out + (plant_vector_field(G, projected_pair_rates(c, act(G, y0), u)),)

        def residual():
            m = int(rng.integers(2, 6))
            k = rng.uniform(0.5, 2.0, m)
            u = rng.uniform(-1.5, 1.5, (m, 3))
            S, G = random_unit(rng, m + 1), random_rotation(rng, m + 1)
            S_runs = random_unit(rng, 2 * m).reshape(m, 2, 3)
            G_runs = random_rotation(rng, 2 * m).reshape(m, 2, 3, 3)
            out = []
            for gains, costs in ((SphereCost(k[:, None, None]), [SphereCost(g) for g in k]),
                                 (None, [None] * m)):
                c = costs[0]
                out.append(gap(stacked(c, S[:2], G[:2], u[0]), by_component(c, S[:2], G[:2], u[0])))
                out.append(gap(stacked(c, S, G, u[0]), by_component(c, S, G, u[0])))
                got = stacked(gains, S_runs, G_runs, u)
                out.extend(gap([g[r] for g in got], by_component(costs[r], S_runs[r], G_runs[r], u[r]))
                           for r in range(m))
            return worst_residual(out)

        # Per sample: its single-pair and shared-plant layouts exercise the dot branches.
        return worst_residual(residual() for _ in range(n))

    assert worst_gap(projected_pair_field, 100) <= 1e-12

    def against_row_above(c, S, H):
        v = np.asarray(S) @ H
        if c is not None:
            v[..., 1:, :] -= c.grad1(S[..., 1:, :], S[..., :-1, :])
        return v

    assert worst_gap(against_row_above, 20) > 1e-3


# The per-sample forms of the checks that evaluate one array expression over
# their stacked draws: each draws a sample and evaluates the identity on it.

def _serial_cross_form(rng, n):
    def residual():
        c = SphereCost(float(rng.uniform(0.5, 2.0)))
        yh, y = random_unit(rng), random_unit(rng)
        return float(np.linalg.norm(-c.grad1(yh, y) - c.k * np.cross(np.cross(yh, y), yh)))

    return worst_residual(residual() for _ in range(n))


def _serial_metric(rng, n):
    def residual():
        base = random_unit(rng)
        v = rng.uniform(0.2, 2.0) * random_tangent(rng, base)
        w = rng.uniform(0.2, 2.0) * random_tangent(rng, base)
        return abs(float(v @ w) - 0.5 * float(np.trace(hat(cross(base, v)).T @ hat(cross(base, w)))))

    return worst_residual(residual() for _ in range(n))


def _serial_lifted_gradient(rng, n):
    H = HorizontalSubspace(Y0)

    def residual():
        c = SphereCost(float(rng.uniform(0.5, 2.0)))
        Xh, X = random_rotation(rng), random_rotation(rng)
        lifted = H.lift(Xh, c.grad1(act(Xh, Y0), act(X, Y0)))
        return float(np.linalg.norm(grad1_lifted_cost(c, Xh, X, Y0) - lifted))

    return worst_residual(residual() for _ in range(n))


def _serial_two_forms(rng, n):
    H = HorizontalSubspace(Y0)

    def residual():
        c = SphereCost(float(rng.uniform(0.5, 2.0)))
        Xh, X = random_rotation(rng), random_rotation(rng)
        yh, y = act(Xh, Y0), act(X, Y0)
        u = rng.uniform(-1.5, 1.5, 3)
        explicit = Xh @ hat(u + c.k * np.cross(y, yh))
        body = lifted_observer_field(c, Xh, y, u, Y0)
        via_lift = plant_vector_field(Xh, u) - H.lift(Xh, c.grad1(yh, y))
        return (float(np.linalg.norm(Xh @ hat(body) - via_lift)),
                float(np.linalg.norm(explicit - via_lift)))

    return worst_residual(residual() for _ in range(n))


def _serial_equivariance(c):
    def check(rng, n):
        def residual():
            S, yhat, y = random_rotation(rng), random_unit(rng), random_unit(rng)
            return float(np.linalg.norm(S.T @ c.grad1(yhat, y) - c.grad1(act(S, yhat), act(S, y))))

        return worst_residual(residual() for _ in range(n))

    return check


STACKED_CHECKS = {
    "innovation_cross_form": (innovation_cross_form_residual, _serial_cross_form),
    "metric_trace_identity": (metric_identity_residual, _serial_metric),
    "lifted_gradient_identity": (lambda rng, n: lifted_gradient_identity_residual(rng, Y0, n),
                                 _serial_lifted_gradient),
    "observer_two_forms": (lambda rng, n: observer_two_forms_residual(rng, Y0, n), _serial_two_forms),
    # check_innovation_equivariance makes its generator from a seed; the test
    # hands it the one under comparison through np.random.default_rng.
    "innovation_equivariance": (lambda rng, n: check_innovation_equivariance(SphereCost(1.3), n),
                                _serial_equivariance(SphereCost(1.3))),
    "equivariance_negative_control": (lambda rng, n: check_innovation_equivariance(AnisotropicCost(), n),
                                      _serial_equivariance(AnisotropicCost())),
}


@pytest.mark.parametrize("name", sorted(STACKED_CHECKS))
def test_stacked_checks_draw_as_the_serial_checks(name, monkeypatch):
    """Each check evaluated over its stacked draws consumes the generator as
    its per-sample form does and finds the same worst residual to rounding."""
    stacked, serial = STACKED_CHECKS[name]
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
    got, want = stacked(rng, 50), serial(ref, 50)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert abs(got - want) <= 1e-13


def _tangent_stack(rng, H, n):
    """n rotations and, at each output, a tangent vector of norm below 1."""
    Xh = random_rotation(rng, n)
    v = cross(random_unit(rng, n), act(Xh, H.y0))
    return Xh, 0.9 * v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_lift_of_a_stack_is_the_lift_of_each_row(rng):
    for y0 in (E3, Y0):
        H = HorizontalSubspace(y0)
        Xh, v = _tangent_stack(rng, H, 200)
        lifted = H.lift(Xh, v)
        assert lifted.shape == (200, 3, 3)
        assert all(np.array_equal(L, H.lift(X, w)) for L, X, w in zip(lifted, Xh, v))
        assert np.array_equal(H.lift(Xh.reshape(20, 10, 3, 3), v.reshape(20, 10, 3)),
                              lifted.reshape(20, 10, 3, 3))


def test_lift_rejects_a_stack_with_a_non_tangent_row(rng):
    """One row off the tangent plane fails the whole stack; the message names
    the worst row's defect."""
    H = HorizontalSubspace(Y0)
    Xh, v = _tangent_stack(rng, H, 30)
    v[4] += 1e-6 * act(Xh[4], Y0)
    v[17] += 1e-3 * act(Xh[17], Y0)
    with pytest.raises(ValueError, match=r"= 1\.000e-03"):
        H.lift(Xh, v)
    with pytest.raises(ValueError, match=r"= 1\.000e-06"):
        H.lift(Xh[:10], v[:10])
    H.lift(Xh[5:15], v[5:15])


def test_draws_stack_the_serial_draws():
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    k, X, y = _draws(20, lambda: (rng.uniform(), random_rotation(rng), random_unit(rng)))
    assert (k.shape, X.shape, y.shape) == ((20,), (20, 3, 3), (20, 3))
    for i in range(20):
        assert k[i] == ref.uniform()
        assert np.array_equal(X[i], random_rotation(ref)) and np.array_equal(y[i], random_unit(ref))
    assert rng.bit_generator.state == ref.bit_generator.state


SPHERE_PROPERTIES = [
    ("cost_closed_forms", 1e-12, "max"),
    ("innovation_cross_form", 1e-12, "max"),
    ("metric_trace_identity", 1e-12, "max"),
    ("innovation_equivariance", 1e-12, "max"),
    ("equivariance_negative_control", 1e-3, "min"),
    ("horizontal_lift_round_trip", 1e-6, "max"),
    ("lifted_gradient_identity", 1e-12, "max"),
    ("observer_two_forms", 1e-12, "max"),
    ("cost_gradient_fd", 1e-5, "max"),
    ("lifted_cost_gradient_fd", 1e-5, "max"),
    ("invariant_cost_construction", 1e-9, "max"),
    ("synchrony_constancy", 1e-8, "max"),
    ("autonomy_spread", 1e-6, "max"),
    ("autonomy_negative_control", 1e-3, "min"),
    ("cosim_projection_consistency", 1e-6, "max"),
    ("antipodal_stationarity", 1e-9, "max"),
]
CIRCLE_PROPERTIES = [("so2_oracle_deviation", 1e-8, "max"), ("so2_state_convergence", 1e-6, "max")]


@pytest.mark.parametrize("instance, want", [("so3-s2", SPHERE_PROPERTIES),
                                            ("so2-s1", CIRCLE_PROPERTIES)])
def test_run_verification_reports_its_properties_in_order(make_scenario, instance, want):
    """The property names, their order, tolerances and bounds: summary.json
    lists them so, and a consumer that reads a property by name or gates on
    its declared tolerance relies on them."""
    checks = run_verification(make_scenario(instance=instance, mode="verify", t_end=0.1))
    assert [(c.name, c.tolerance, c.bound) for c in checks] == want


def test_run_verification_circle(make_scenario):
    sc = make_scenario(instance="so2-s1", k=1.0, t_end=20.0,
                       input={"kind": "sinusoid", "amplitude": [0.5], "frequency": 0.3},
                       init={"plant": {"angle": 0.1}, "observer": {"angle": 1.9}})
    checks = run_verification(sc)
    assert {c.name for c in checks} == {"so2_oracle_deviation", "so2_state_convergence"}
    assert all(c.passed for c in checks)


def test_worst_residual_propagates_nan():
    assert worst_residual([]) == 0.0
    assert worst_residual([1e-13, 3e-13, 2e-13]) == 3e-13
    assert worst_residual([(1e-13, 4e-13), (2e-13, 0.0)]) == 4e-13
    assert np.isnan(worst_residual([1e-13, np.nan, 2e-13]))
    assert np.isnan(worst_residual([np.nan, 1e-13]))


def test_nan_gradient_fails_the_innovation_properties(rng, monkeypatch):
    """A cost whose gradient is NaN must fail both the cross-form and the
    equivariance property rather than pass with a residual of zero."""
    monkeypatch.setattr(SphereCost, "grad1", lambda self, yhat, y: np.full(3, np.nan))
    checks = [
        PropertyCheck("innovation_cross_form", innovation_cross_form_residual(rng, 20), 1e-12),
        PropertyCheck("innovation_equivariance",
                      check_innovation_equivariance(SphereCost(1.0), 20), 1e-12),
    ]
    for check in checks:
        assert np.isnan(check.residual) and not check.passed, check.name
