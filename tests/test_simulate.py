"""Integrators, trajectory records, summaries, Monte Carlo, circle oracle."""

import dataclasses
import os
import sys

import numpy as np
import pytest

from invobs import (
    SimulationAbort,
    SphereCost,
    closed_form_deviation,
    fit_rate,
    monte_carlo,
    simulate_circle,
    simulate_cosim,
    simulate_lifted,
    simulate_projected,
    summarize,
)
from invobs.observer import AnisotropicCost, error_angle_closed_form
from invobs.simulate import (
    BLOCK_STEPS,
    MIN_RATE_SAMPLES,
    RATE_WINDOW,
    SUMMARY_VALUES,
    IntegratorSpec,
    RunSummary,
    TrajectoryRecord,
    _fit_rates,
    _integrate,
    _sphere_pair,
    _summaries,
    so2_oracle_run,
)
from invobs.systems import InputSignal

E1, E2, E3 = np.eye(3)

SINUSOID = {"kind": "sinusoid", "amplitude": [1.0, 0.5, 0.8], "frequency": 0.5, "phase": 0.3}
ZERO = {"kind": "constant", "amplitude": [0.0, 0.0, 0.0]}


def test_integrator_spec_validation():
    IntegratorSpec("lie-euler", 0.01)
    with pytest.raises(ValueError):
        IntegratorSpec("euler", 0.001)
    with pytest.raises(ValueError):
        IntegratorSpec("rk4-project", 0.02)
    with pytest.raises(ValueError):
        IntegratorSpec("rk4-project", 0.0)


def test_record_requires_increasing_time():
    t = np.array([0.0, 0.1, 0.1])
    y = np.tile(E3, (3, 1))
    with pytest.raises(ValueError):
        TrajectoryRecord(t=t, y=y, yhat=y, theta=np.zeros(3), drift=np.zeros(3))


@pytest.mark.parametrize("method", ["rk4-project", "lie-euler"])
def test_records_every_stride_and_the_last_step(make_scenario, method):
    integ = {"method": method, "h": 1e-3}
    sc = make_scenario(mode="projected", input=SINUSOID, t_end=0.007, sample_every=3,
                       integrator=integ)
    want = np.array([0, 3, 6, 7]) * 1e-3
    assert np.array_equal(simulate_projected(sc).t, want)
    assert np.array_equal(simulate_lifted(dataclasses.replace(sc, mode="lifted")).t, want)
    assert np.array_equal(simulate_circle(make_scenario(
        "so2-s1", t_end=0.007, sample_every=3, integrator=integ)).t, want)


def test_fit_rate_recovers_exact_exponential():
    t = np.linspace(0.0, 12.0, 1201)
    theta = 0.09 * np.exp(-1.7 * t)
    rate = fit_rate(t, theta)
    assert rate == pytest.approx(1.7, rel=1e-6)
    assert fit_rate(t[:3], theta[:3]) is None  # too few samples in window


def _per_row_summary(t, theta, drift, threshold):
    """The per-run summary as it was computed one run at a time."""
    below = theta < threshold
    mask = (theta > RATE_WINDOW[0]) & (theta < RATE_WINDOW[1])
    rate = (None if int(mask.sum()) < MIN_RATE_SAMPLES
            else float(-np.polyfit(t[mask], np.log(theta[mask]), 1)[0]))
    return RunSummary(float(theta[-1]), float(t[int(np.argmax(below))]) if below.any() else None,
                      rate, float(drift.max()))


def test_summaries_match_per_row_fit(rng):
    t = np.linspace(0.0, 15.0, 1501)
    k = rng.uniform(0.3, 2.5, (40, 1))
    theta = 2.0 * np.arctan(np.tan(0.5 * rng.uniform(0.05, 3.0, (40, 1))) * np.exp(-k * t))
    theta *= 1.0 + 1e-3 * rng.standard_normal(theta.shape)  # not an exact line in log
    theta[0] = 0.5                                  # never crosses, nothing in the window
    theta[1] = np.where(t < 3.0, 0.5, 1e-9)         # crosses, nothing in the window
    theta[2] = 0.09 * np.exp(-0.1 * t)              # never crosses, all in the window
    theta[3, 300:] = 1e-9                           # jumps out of the window
    for row, n in ((4, MIN_RATE_SAMPLES - 1), (5, MIN_RATE_SAMPLES)):
        theta[row] = np.where(t < 1.0, 0.5, 1e-9)   # exactly n samples in the window
        theta[row, 100:100 + n] = 0.05 * np.exp(-t[100:100 + n])
    drift = rng.uniform(0.0, 1e-12, theta.shape)
    got = _summaries(t, theta, drift.max(axis=-1), 1e-3)
    rates = 0
    for row, summary in enumerate(got):
        want = _per_row_summary(t, theta[row], drift[row], 1e-3)
        assert (summary.final_angle, summary.t_converged, summary.max_drift) == \
            (want.final_angle, want.t_converged, want.max_drift)
        assert (summary.fitted_rate is None) == (want.fitted_rate is None), row
        assert fit_rate(t, theta[row]) == summary.fitted_rate
        if want.fitted_rate is not None:
            assert summary.fitted_rate == pytest.approx(want.fitted_rate, rel=1e-12, abs=0.0)
            rates += 1
    assert got[0].t_converged is None and got[1].t_converged is not None
    assert got[4].fitted_rate is None and got[5].fitted_rate is not None
    assert rates >= 30


def test_summarize_thresholds(make_scenario):
    sc = make_scenario(mode="projected", k=1.0, input=ZERO, t_end=8.0,
                       init={"plant": "identity", "observer": {"axis_angle": [1.0, 0, 0]}})
    rec = simulate_projected(sc)
    s = summarize(rec)  # at CONVERGENCE_THRESHOLD = 1e-3 rad
    assert s.final_angle < 1e-3
    assert s.t_converged is not None and 0.0 < s.t_converged <= 8.0
    assert rec.theta[np.searchsorted(rec.t, s.t_converged)] < 1e-3
    assert s.fitted_rate == pytest.approx(1.0, rel=0.02)
    never = _summaries(rec.t, rec.theta[None], rec.drift.max(keepdims=True),
                       1e-12)[0]  # a sweep's own threshold
    assert never.t_converged is None


def test_projected_diagonal_invariant(make_scenario):
    sc = make_scenario(mode="projected", input=SINUSOID, t_end=5.0,
                       init={"plant": {"direction": [0.0, 0.6, 0.8]},
                             "observer": {"direction": [0.0, 0.6, 0.8]}})
    rec = simulate_projected(sc)
    assert np.max(rec.theta) <= 1e-9
    assert np.max(rec.drift) <= 1e-12


def test_projected_matches_closed_form(make_scenario):
    sc = make_scenario(mode="projected", k=1.0, input=ZERO, t_end=1.0,
                       sample_every=100,
                       init={"plant": "identity", "observer": {"axis_angle": [np.pi / 2, 0, 0]}})
    rec = simulate_projected(sc)
    assert rec.theta[0] == pytest.approx(np.pi / 2, abs=1e-12)
    assert rec.theta[-1] == pytest.approx(2.0 * np.arctan(np.exp(-1.0)), abs=1e-5)
    assert closed_form_deviation(rec, 1.0) <= 1e-9


def test_projected_antipodal_equilibrium(make_scenario):
    sc = make_scenario(mode="projected", input=SINUSOID, t_end=5.0,
                       init={"plant": {"direction": [0.0, 0.6, 0.8]},
                             "observer": {"direction": [0.0, -0.6, -0.8]}})
    rec = simulate_projected(sc)
    assert np.max(np.abs(rec.theta - np.pi)) <= 1e-9


# Order cases: the projected path at u = 0, and the lifted path on the group
# under a non-zero input, where each RK4 step is followed by the retraction.
ORDER_CASES = {
    "projected": (simulate_projected, ZERO, "identity"),
    "lifted": (simulate_lifted, SINUSOID, {"axis_angle": [0.3, -0.2, 0.5]}),
}


def _order_deviation(make_scenario, method, h, case="projected"):
    run, inp, plant = ORDER_CASES[case]
    sc = make_scenario(mode=case, k=2.0, input=inp, t_end=3.0, sample_every=1,
                       integrator={"method": method, "h": h},
                       init={"plant": plant, "observer": {"axis_angle": [2.7, 0, 0]}})
    return closed_form_deviation(run(sc), 2.0)


@pytest.mark.parametrize("case", sorted(ORDER_CASES))
def test_rk4_fourth_order_scaling(make_scenario, case):
    d1 = _order_deviation(make_scenario, "rk4-project", 0.01, case)
    d2 = _order_deviation(make_scenario, "rk4-project", 0.005, case)
    assert 12.0 <= d1 / d2 <= 20.0


def test_lie_euler_first_order_scaling(make_scenario):
    d1 = _order_deviation(make_scenario, "lie-euler", 0.01)
    d2 = _order_deviation(make_scenario, "lie-euler", 0.005)
    assert 1.7 <= d1 / d2 <= 2.3


def test_lifted_matches_projected_outputs(make_scenario):
    init = {"plant": "identity", "observer": {"axis_angle": [0.0, 2.0, 0.0]}}
    sc = make_scenario(mode="lifted", input=SINUSOID, t_end=3.0, init=init)
    rec = simulate_lifted(sc)
    assert rec.X is not None and rec.Xhat is not None
    assert np.max(rec.drift) <= 1e-12
    sc_p = dataclasses.replace(sc, mode="projected")
    rec_p = simulate_projected(sc_p)
    assert np.max(np.abs(rec.theta - rec_p.theta)) <= 1e-6


def test_lifted_diagonal_and_convergence(make_scenario):
    init = {"plant": {"axis_angle": [0.3, -0.2, 0.5]}, "observer": {"axis_angle": [0.3, -0.2, 0.5]}}
    rec = simulate_lifted(make_scenario(mode="lifted", input=SINUSOID, t_end=2.0, init=init))
    assert np.max(rec.theta) <= 1e-9
    rec2 = simulate_lifted(make_scenario(
        mode="lifted", k=1.0, input=SINUSOID, t_end=10.0,
        init={"plant": "identity", "observer": {"axis_angle": [0.0, 2.2, 0.0]}}))
    assert rec2.theta[-1] < 1e-3  # group error settles into the stabiliser


def test_cosim_consistency(make_scenario):
    sc = make_scenario(mode="co-sim", input=SINUSOID, t_end=3.0,
                       init={"plant": "identity", "observer": {"axis_angle": [1.5, 0.4, 0.0]}})
    rec = simulate_cosim(sc)
    assert rec.consistency is not None
    assert np.max(rec.consistency) <= 1e-6


def _doubled_innovation(field):
    return lambda c, S, u: field(dataclasses.replace(c, k=2.0 * c.k), S, u)


def _biased_plant_row(field):
    def biased(c, S, u):
        v = field(c, S, u)
        v[..., 0, :] += (0.0, 0.1, 0.0)
        return v
    return biased


@pytest.mark.parametrize("perturb", [_doubled_innovation, _biased_plant_row])
def test_cosim_consistency_detects_a_faulty_sphere_pair(make_scenario, monkeypatch, perturb):
    """Negative control: a sphere pair field that doubles the innovation or
    biases the plant row leaves the lifted run bit-identical, but its
    co-simulation residual goes far past the 1e-6 bound."""
    import invobs.simulate

    sc = make_scenario(mode="co-sim", input=SINUSOID, t_end=1.0,
                       init={"plant": "identity", "observer": {"axis_angle": [1.5, 0.4, 0.0]}})
    lifted = simulate_lifted(sc)
    monkeypatch.setattr(invobs.simulate, "projected_pair_field",
                        perturb(invobs.simulate.projected_pair_field))
    assert np.max(simulate_cosim(sc).consistency) > 1e-3
    again = simulate_lifted(sc)
    for f in dataclasses.fields(lifted):
        a, b = getattr(lifted, f.name), getattr(again, f.name)
        assert (a is None and b is None) or np.array_equal(a, b), f.name


def test_synchrony_mode_freezes_error(make_scenario):
    sc = make_scenario(mode="synchrony", input=SINUSOID, t_end=5.0,
                       init={"plant": "identity", "observer": {"axis_angle": [1.2, 0.3, 0.0]}})
    rec = simulate_projected(sc)
    assert np.max(np.abs(rec.theta - rec.theta[0])) <= 1e-8


def test_lifted_error_is_input_independent(make_scenario):
    init = {"plant": "identity", "observer": {"axis_angle": [1.4, 0.0, 0.6]}}
    other = {"kind": "piecewise-constant", "times": [1.0, 2.0],
             "values": [[0.4, 0, 0], [-0.3, 0.5, 0.2], [0.1, -0.6, 0.3]]}
    thetas = []
    for inp in (SINUSOID, ZERO, other):
        rec = simulate_lifted(make_scenario(mode="lifted", input=inp, t_end=5.0, init=init))
        thetas.append(rec.theta)
    stack = np.stack(thetas)
    assert np.max(stack.max(axis=0) - stack.min(axis=0)) <= 1e-6


def test_lie_euler_group_drift(make_scenario):
    sc = make_scenario(mode="lifted", input=SINUSOID, t_end=20.0, sample_every=100,
                       integrator={"method": "lie-euler", "h": 0.001},
                       init={"plant": "identity", "observer": {"axis_angle": [0.0, 2.0, 0.0]}})
    rec = simulate_lifted(sc)
    assert np.max(rec.drift) <= 1e-9


def test_simulation_abort_on_overflow(make_scenario):
    sc = make_scenario(mode="projected", input=ZERO, t_end=1.0,
                       init={"plant": "identity", "observer": {"axis_angle": [1.0, 0, 0]}})
    blowup = AnisotropicCost(np.diag([1e200, 1e200, 1e200]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SimulationAbort):
        _integrate(sc, sc.body_rates, _sphere_pair(blowup), sc.initial_sphere_pair(), False)


def _off_sphere_retraction(monkeypatch):
    """Break the sphere retraction after each RK4 step: it lands 1e-3 off S^2."""
    import invobs.simulate
    from invobs.so3 import unit

    monkeypatch.setattr(invobs.simulate, "unit", lambda v: 1.001 * unit(v))


@pytest.mark.parametrize("doc,run", [
    pytest.param(dict(mode="projected", input=SINUSOID), simulate_projected,
                 id="projected-simulate_projected"),
    pytest.param(dict(mode="co-sim", input=SINUSOID), simulate_cosim, id="co-sim-simulate_cosim"),
    pytest.param(dict(instance="so2-s1", mode="projected"), simulate_circle,
                 id="so2-s1-projected-simulate_circle"),
])
def test_direction_leaving_the_sphere_aborts(make_scenario, monkeypatch, doc, run):
    """The drift each sample records is also the guard: a sphere state (the
    projected pair's, the sphere pair of a co-simulation, or the planar pair
    of an so2-s1 run) off S^2 stops the run at its first recorded sample
    after the initial state."""
    _off_sphere_retraction(monkeypatch)
    sc = make_scenario(t_end=0.1, **doc)
    with pytest.raises(SimulationAbort, match=r"S\^2 \(drift .*\) at t = 0\.01 s"):
        run(sc)


def test_sweep_observes_each_sample_once(make_scenario, monkeypatch):
    """The benchmark's 200-run lifted sweep (1500 steps of 0.01 s, every 10th
    recorded) takes the drift of its pair stack, the plant and the observer
    batch, once per recorded sample: 151 calls, shared by the guard and the
    summaries."""
    import invobs.simulate

    drift = invobs.simulate.drift
    calls = []

    def counted(X):
        calls.append(None)
        return drift(X)

    monkeypatch.setattr(invobs.simulate, "drift", counted)
    sc = make_scenario(mode="monte-carlo", input={"kind": "sinusoid", "amplitude": [0.6, 0.4, 0.5],
                                                  "frequency": 0.3, "phase": 0.0},
                       t_end=15.0, seed=7, integrator={"h": 0.01},
                       mc={"runs": 200, "space": "lifted"})
    res = monte_carlo(sc)
    assert len(calls) == 151
    assert max(s.max_drift for s in res.summaries) <= 1e-9


@pytest.mark.parametrize("t_end,every", [(0.006, 3), (0.007, 3), (0.007, 10), (0.001, 1), (0.001, 4)],
                         ids=["n%every=0", "n%every>0", "every>n", "n=1", "n=1<every"])
def test_integrate_records_each_stride_and_the_last_step_once(make_scenario, rng, t_end, every):
    """_integrate writes the initial state, every every-th step and the last
    step into arrays sized for them: the times are those steps times h, and
    the angles, drifts and states are those of the records it observed, in
    order.  Without keep_states it returns the same times and angles and
    each row's worst drift over the records."""
    from invobs.sampling import random_unit

    sc = make_scenario(mode="projected", input=SINUSOID, t_end=t_end, sample_every=every)
    n = round(t_end / sc.integrator.h)
    steps = sorted({0, *range(every, n + 1, every), n})
    pair = _sphere_pair(SphereCost(1.0))
    seen = []

    def observe(state):
        m = pair.drift(state)
        seen.append((state.copy(), pair.observe(state), np.maximum(m[..., :1], m[..., 1:])))
        return seen[-1][1]

    watched = pair._replace(observe=observe)
    S = np.concatenate((sc.initial_sphere_pair()[:1], random_unit(rng, 5)))  # a sweep's stack
    t, theta, drift_, states = _integrate(sc, sc.body_rates, watched, S, True)
    want_states, want_theta, want_drift = (np.array(col) for col in zip(*seen))
    assert np.array_equal(t, np.array(steps) * sc.integrator.h)
    assert len(seen) == len(steps)
    assert np.array_equal(theta, want_theta) and theta.shape == (len(steps), 5)
    assert np.array_equal(drift_, want_drift)
    assert np.array_equal(states, want_states)
    seen.clear()
    t_batch, theta_batch, worst = _integrate(sc, sc.body_rates, watched, S, False)
    assert len(seen) == len(steps)
    assert np.array_equal(t_batch, t) and np.array_equal(theta_batch, theta)
    assert np.array_equal(worst, drift_.max(axis=0))


@pytest.mark.parametrize("miss,error", [(1, RuntimeError), (-1, IndexError)])
def test_integrate_fills_every_record_or_fails(make_scenario, monkeypatch, miss, error):
    """A record count that disagrees with the samples taken raises: no row of
    the record arrays is left unwritten, and none is written past their end."""
    import invobs.simulate

    count = invobs.simulate._n_records
    monkeypatch.setattr(invobs.simulate, "_n_records", lambda n, every: count(n, every) + miss)
    sc = make_scenario(mode="projected", input=SINUSOID, t_end=0.007, sample_every=3)
    for keep in (True, False):
        with pytest.raises(error):
            _integrate(sc, sc.body_rates, _sphere_pair(None), sc.initial_sphere_pair(), keep)


@pytest.mark.parametrize("space", ["projected", "lifted"])
def test_sweep_max_drift_is_the_worst_of_its_history(make_scenario, monkeypatch, space):
    """Each sweep run's max_drift equals, bit for bit, the maximum of the
    drift history that a keep_states run of the same stack records."""
    import invobs.simulate

    integrate = invobs.simulate._integrate
    kept = []

    def keeping(scenario, rate, pair, state, keep_states):
        kept.append(integrate(scenario, rate, pair, state, True))
        return integrate(scenario, rate, pair, state, keep_states)

    monkeypatch.setattr(invobs.simulate, "_integrate", keeping)
    sc = make_scenario(mode="monte-carlo", input=SINUSOID, t_end=2.0, seed=5, sample_every=3,
                       integrator={"h": 0.01}, mc={"runs": 60, "space": space})
    res = monte_carlo(sc)
    (_, theta, drift_, _), = kept
    assert [s.max_drift for s in res.summaries] == drift_.max(axis=0).tolist()
    assert [s.final_angle for s in res.summaries] == theta[-1].tolist()
    assert min(s.max_drift for s in res.summaries) > 0.0  # a maximum over something nonzero


def test_sweep_summaries_round_as_one_fit(rng, monkeypatch):
    """_summaries works through a sweep's (samples, runs) history in chunks
    of rows, and every rate is, bit for bit, fit_rate of its row alone: in
    chunks of many rows, with a lone last row, and in chunks of one row."""
    import invobs.simulate

    t = np.linspace(0.0, 15.0, 301)
    size = SUMMARY_VALUES // len(t)
    for values in (SUMMARY_VALUES, len(t)):  # the default chunks, then one row per chunk
        monkeypatch.setattr(invobs.simulate, "SUMMARY_VALUES", values)
        for runs in (1, 2, size + 1, 2 * size + 1, 2 * size + 2):
            k = rng.uniform(0.3, 2.5, runs)
            history = 2.0 * np.arctan(np.tan(0.5 * rng.uniform(0.05, 3.0, runs)) * np.exp(-np.outer(t, k)))
            history *= 1.0 + 1e-3 * rng.standard_normal(history.shape)
            got = _summaries(t, history.T, np.zeros(runs), 1e-3)
            assert [s.fitted_rate for s in got] == [fit_rate(t, row) for row in history.T], runs
            assert [s.final_angle for s in got] == history[-1].tolist()


@pytest.mark.parametrize("space", ["projected", "lifted"])
def test_sweep_rates_are_each_runs_own_fit(make_scenario, monkeypatch, space):
    """Every run of a sweep has, bit for bit, the fitted_rate that summarize
    gives its own angle row: the fit reduces each row as a contiguous row,
    whether it is a strided column of the sweep's history or a single run's
    record."""
    import invobs.simulate

    integrate = invobs.simulate._integrate
    kept = []

    def keeping(scenario, rate, pair, state, keep_states):
        kept.append(integrate(scenario, rate, pair, state, keep_states))
        return kept[-1]

    monkeypatch.setattr(invobs.simulate, "_integrate", keeping)
    sc = make_scenario(mode="monte-carlo", input=SINUSOID, t_end=15.0, seed=7, sample_every=1,
                       integrator={"h": 0.01}, mc={"runs": 50, "space": space})
    res = monte_carlo(sc)
    (t, theta, _), = kept
    want = [summarize(TrajectoryRecord(t, None, None, row.copy(), np.zeros(1))).fitted_rate
            for row in theta.T]
    assert [s.fitted_rate for s in res.summaries] == want
    assert sum(r is not None for r in want) >= 45


def test_sweep_holds_one_angle_history(make_scenario):
    """A sweep's traced peak stays under 1.6 times its runs x samples float64
    angle history; numpy reports its buffers to tracemalloc.  Records built
    as a list and stacked at the end, with a drift history beside the
    angles, peaked at 4.1 times."""
    import tracemalloc

    sc = make_scenario(mode="monte-carlo", input=SINUSOID, t_end=6.0, sample_every=1,
                       integrator={"h": 0.01}, mc={"runs": 1000})
    monte_carlo(dataclasses.replace(sc, t_end=0.02))  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        res = monte_carlo(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.summaries) == 1000
    assert peak <= 1.6 * 1000 * 601 * 8


def test_sphere_pair_drive_is_hat_of_each_input(rng):
    """The sphere pair's RK4 drive, hat of its input table flattened to rows,
    equals hat of each input vector alone, sign bits of zeros included."""
    from invobs.so3 import hat

    for shape in ((1024, 3, 3), (7, 3, 4, 3)):  # a single run's table and a batch's
        U = rng.standard_normal(shape)
        U[::3, 1] = -0.0
        got = _sphere_pair(None).drive(U)
        want = np.array([hat(u) for u in U.reshape(-1, 3)]).reshape(shape + (3,))
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_monte_carlo_deterministic_and_convergent(make_scenario):
    sc = make_scenario(mode="monte-carlo", k=1.0, input=SINUSOID, t_end=15.0,
                       sample_every=20, seed=11,
                       mc={"runs": 50, "space": "projected", "threshold": 1e-3})
    a = monte_carlo(sc)
    b = monte_carlo(sc)
    assert a.convergence_fraction == 1.0
    assert len(a.summaries) == 50
    for s, t in zip(a.summaries, b.summaries):
        assert s == t  # bit-identical replay from the seed
    rates = [s.fitted_rate for s in a.summaries if s.fitted_rate is not None]
    assert rates and all(0.98 <= r <= 1.02 for r in rates)


def test_monte_carlo_group_space(make_scenario):
    sc = make_scenario(mode="monte-carlo", k=1.0, input=SINUSOID, t_end=10.0,
                       sample_every=20, seed=3,
                       mc={"runs": 20, "space": "lifted", "threshold": 2e-2})
    res = monte_carlo(sc)
    assert res.convergence_fraction == 1.0
    assert max(s.max_drift for s in res.summaries) <= 1e-9


SO2_BASE = {
    "instance": "so2-s1", "k": 1.0,
    "input": {"kind": "sinusoid", "amplitude": [0.8], "frequency": 0.4, "phase": 0.2},
    "init": {"plant": {"angle": 0.3}, "observer": {"angle": 2.2}},
    "t_end": 10.0,
}


def test_so2_oracle_matched_initial_condition(make_scenario):
    over = dict(SO2_BASE, init={"plant": {"angle": 0.4}, "observer": {"angle": 0.4}},
                integrator={"h": 1e-4}, sample_every=100)
    res = so2_oracle_run(make_scenario(**over))
    assert res.observer_deviation <= 1e-10


def test_so2_oracle_random_scenario(make_scenario):
    over = dict(SO2_BASE, integrator={"h": 1e-4}, sample_every=100)
    res = so2_oracle_run(make_scenario(**over))
    assert res.observer_deviation <= 1e-8
    assert res.worst_deviation <= 1e-8


def test_so2_oracle_checks_the_plant(make_scenario, monkeypatch):
    """The oracle holds the plant angle to its exact solution too: a plant
    output turned by 1e-6 rad after the run shows in the worst deviation,
    while the observer's gap stays at rounding."""
    import invobs.simulate

    run = invobs.simulate._simulate

    def turned_plant(scenario):
        rec = run(scenario)
        c, s = np.cos(1e-6), np.sin(1e-6)
        return dataclasses.replace(rec, y=rec.y @ np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]]))

    monkeypatch.setattr(invobs.simulate, "_simulate", turned_plant)
    res = so2_oracle_run(make_scenario(**dict(SO2_BASE, integrator={"h": 1e-4}, t_end=2.0)))
    assert res.observer_deviation <= 1e-12
    assert res.plant_deviation == pytest.approx(1e-6, rel=1e-6)
    assert res.worst_deviation == res.plant_deviation


def test_so2_full_state_convergence(make_scenario):
    over = dict(SO2_BASE, t_end=20.0)
    res = so2_oracle_run(make_scenario(**over))
    assert res.final_state_error <= 1e-6


def test_so2_synchrony_and_cosim(make_scenario):
    rec = simulate_circle(make_scenario(**dict(SO2_BASE, mode="synchrony")))
    assert np.max(np.abs(rec.theta - rec.theta[0])) <= 1e-10
    rec2 = simulate_circle(make_scenario(**dict(SO2_BASE, mode="co-sim")))
    assert rec2.consistency is not None
    assert np.max(rec2.consistency) <= 1e-10


def test_so2_lifted_run_stays_planar(make_scenario):
    """An so2-s1 lifted run steps the group pair on rotations about the z
    axis, and the exact circle solution holds for it."""
    sc = make_scenario(**dict(SO2_BASE, mode="lifted", t_end=2.0))
    rec = simulate_circle(sc)
    for X in (rec.X, rec.Xhat):
        assert np.max(np.abs(X[:, 2] - E3)) <= 1e-12
    assert so2_oracle_run(sc).observer_deviation <= 1e-10


def test_so2_lie_euler_runs(make_scenario):
    over = dict(SO2_BASE, integrator={"method": "lie-euler", "h": 1e-3}, t_end=5.0)
    rec = simulate_circle(make_scenario(**over))
    assert rec.theta[-1] < rec.theta[0]


def test_near_antipodal_perturbation_escapes(make_scenario):
    tilt = 1e-5
    start = np.array([0.0, np.sin(np.pi - tilt), np.cos(np.pi - tilt)])
    sc = make_scenario(mode="projected", k=1.0, input=SINUSOID, t_end=25.0,
                       sample_every=50,
                       init={"plant": {"direction": [0.0, 0.0, 1.0]},
                             "observer": {"direction": start.tolist()}})
    rec = simulate_projected(sc)
    assert rec.theta[0] > np.pi - 2e-5
    assert rec.theta[-1] < 1e-3


def test_runs_near_the_antipode_follow_the_law(make_scenario):
    """Observers started at pi - eps from the plant, where the law amplifies
    an initial error by up to 1/eps, follow it to 1e-8 under a sinusoid
    input: projected observers for every eps as one shared-plant (1 + 3, 3)
    stack, and a lifted run at eps = 1e-3."""
    eps = np.array([1e-1, 1e-3, 1e-6])
    sc = make_scenario(mode="projected", k=1.0, input=SINUSOID, t_end=10.0)
    S = np.vstack([E3, np.stack([np.zeros(3), np.sin(np.pi - eps), np.cos(np.pi - eps)], axis=1)])
    t, theta = _integrate(sc, sc.body_rates, _sphere_pair(SphereCost(1.0)), S, False)[:2]
    assert np.max(np.abs(theta[0] - (np.pi - eps))) <= 1e-12
    for run in theta.T:
        assert np.max(np.abs(run - error_angle_closed_form(run[0], 1.0, t))) <= 1e-8
    lifted = simulate_lifted(make_scenario(
        mode="lifted", k=1.0, input=SINUSOID, t_end=10.0,
        init={"plant": "identity", "observer": {"axis_angle": [np.pi - 1e-3, 0.0, 0.0]}}))
    assert lifted.theta[0] == pytest.approx(np.pi - 1e-3, abs=1e-12)
    assert closed_form_deviation(lifted, 1.0) <= 1e-8


def test_lifted_run_from_1e13_off_the_antipode_follows_the_law(make_scenario):
    """An observer 1e-13 rad from the plant's antipode escapes it and
    converges, and the law from the recorded start, which is not the
    equilibrium, follows it over 40 s at h = 0.01."""
    eps = 1e-13
    sc = make_scenario(mode="lifted", k=1.0, input=SINUSOID, t_end=40.0,
                       init={"plant": {"axis_angle": [np.pi / 2, 0.0, 0.0]},
                             "observer": {"direction": [0.0, -np.cos(eps), np.sin(eps)]}})
    rec = simulate_lifted(sc)
    assert 0.0 < np.pi - rec.theta[0] <= 2 * eps and rec.theta[-1] < 1e-3
    assert closed_form_deviation(rec, 1.0) <= 1e-2


def _full_state_law(rec, sc):
    """The group error E(t) = E0 exp((theta0 - theta(t)) n) of a lifted run's
    samples, with the fixed axis n = unit(y0 x E0^T y0) and theta from the
    closed-form angle law, started from the recorded E0 = Xhat0 X0^T."""
    from invobs import group_exp
    from invobs.so3 import cross, unit

    E0 = rec.Xhat[0] @ rec.X[0].T
    axis = unit(cross(sc.y0_vec, E0.T @ sc.y0_vec))
    theta = error_angle_closed_form(float(rec.theta[0]), sc.k, rec.t)
    return E0 @ group_exp((rec.theta[0] - theta)[:, None] * axis)


def _full_state_gap(make_scenario, method, h, **doc):
    """Worst Frobenius gap between a lifted run's group error Xhat X^T and
    the full-state law, k = 1.3 and y0 = (0.6, 0, 0.8) over 5 s."""
    base = dict(mode="lifted", k=1.3, y0=[0.6, 0.0, 0.8], input=SINUSOID, t_end=5.0,
                integrator={"method": method, "h": h})
    sc = make_scenario(**dict(base, **doc))
    rec = simulate_lifted(sc)
    E = rec.Xhat @ rec.X.swapaxes(-1, -2)
    return float(np.max(np.linalg.norm(E - _full_state_law(rec, sc), axis=(-2, -1))))


def test_lifted_group_error_follows_the_full_state_law(make_scenario):
    """The group error E = Xhat X^T of a lifted run under a sinusoid input
    obeys the full-state law E(t) = E0 exp((theta0 - theta(t)) n).  This
    pins the stabiliser component, which the angle law cannot see: to 1e-12
    under rk4-project, and at first order under lie-euler."""
    assert _full_state_gap(make_scenario, "rk4-project", 1e-3) <= 1e-12
    assert 1.9 <= (_full_state_gap(make_scenario, "lie-euler", 1e-3)
                   / _full_state_gap(make_scenario, "lie-euler", 5e-4)) <= 2.1


@pytest.mark.parametrize("method,band", [("rk4-project", (14.0, 18.0)), ("lie-euler", (1.9, 2.1))])
def test_so3_order_under_a_nonzero_input(make_scenario, method, band):
    """Halving h divides the lifted run's gap to the full-state law under a
    sinusoidal input, read at every sample, by 2^4 for RK4 and 2 for
    Lie-Euler: both integrators keep their order on SO(3) when the input
    moves the plant, as test_so2_order_under_a_nonzero_input checks on the
    circle."""
    def gap(h):
        return _full_state_gap(make_scenario, method, h, sample_every=1)

    ratio = gap(0.01) / gap(0.005)
    assert band[0] <= ratio <= band[1]


@pytest.mark.parametrize("method", ["rk4-project", "lie-euler"])
def test_whole_pair_at_constant_input(make_scenario, method):
    """At a constant input u the plant follows X(t) = X0 exp(t hat(u)), and
    the observer Xhat(t) = E(t) X(t) with E from the full-state law: both
    rows of a lifted run meet them to 1e-12 under rk4-project at h = 1e-3.
    Lie-Euler steps the plant by exactly exp(h hat(u)), so its plant meets
    the law too; its observer is first order and is not checked here."""
    from invobs import group_exp

    u = np.array([0.4, -0.7, 0.3])
    sc = make_scenario(mode="lifted", k=1.3, y0=[0.6, 0.0, 0.8], t_end=5.0,
                       input={"kind": "constant", "amplitude": u.tolist()},
                       init={"plant": {"axis_angle": [0.3, -0.5, 0.2]},
                             "observer": {"axis_angle": [1.0, 0.4, -0.6]}},
                       integrator={"method": method, "h": 1e-3})
    rec = simulate_lifted(sc)
    X = rec.X[0] @ group_exp(rec.t[:, None] * u)
    assert np.max(np.linalg.norm(rec.X - X, axis=(-2, -1))) <= 1e-12
    if method == "rk4-project":
        Xhat = _full_state_law(rec, sc) @ X
        assert np.max(np.linalg.norm(rec.Xhat - Xhat, axis=(-2, -1))) <= 1e-12


def test_monte_carlo_exclusion_cap(rng):
    from invobs.sampling import random_rotation, random_unit
    from invobs.simulate import ANTIPODAL_EXCLUSION, _sample_observers
    from invobs.so3 import act

    y = np.array([0.0, 0.0, 1.0])
    Y = _sample_observers(rng, 4000, random_unit, lambda S: S, y)
    angles = 2.0 * np.arctan2(np.linalg.norm(Y - y, axis=1), np.linalg.norm(Y + y, axis=1))
    assert np.max(angles) <= np.pi - ANTIPODAL_EXCLUSION
    X = _sample_observers(rng, 500, random_rotation, lambda S: act(S, y), y)
    out = np.einsum("nji,j->ni", X, y)
    angles = 2.0 * np.arctan2(np.linalg.norm(out - y, axis=1), np.linalg.norm(out + y, axis=1))
    assert np.max(angles) <= np.pi - ANTIPODAL_EXCLUSION


def test_right_invariant_error_projects_to_canonical(rng):
    from group_errors import canonical_error_from_group, right_invariant_error
    from invobs.sampling import random_rotation
    from invobs.so3 import act

    y0 = np.array([0.0, 0.0, 1.0])
    for _ in range(100):
        Xh, X = random_rotation(rng), random_rotation(rng)
        Er = right_invariant_error(Xh, X)
        Z = random_rotation(rng)
        assert np.allclose(right_invariant_error(Xh @ Z, X @ Z), Er, atol=1e-12)
        assert np.allclose(act(Er, y0), canonical_error_from_group(Xh, X, y0), atol=1e-12)


def test_lifted_angle_is_the_canonical_error_angle(make_scenario, monkeypatch, rng):
    """The group pair observes the angle between its outputs; on every
    recorded sample of a lifted run and of a 50-run lifted sweep it equals
    the angle of the canonical error act(Xhat X^T, y0) to y0 within 1e-15.
    The norms taken as products with ones (error_angle, so3.drift, the
    sphere pair's drift) agree with their np.linalg.norm forms to 2 ulp."""
    import invobs.simulate
    from group_errors import canonical_error_from_group
    from invobs.observer import error_angle
    from invobs.sampling import random_rotation, random_unit
    from invobs.so3 import drift

    def canonical_angle(G, y0):
        return error_angle(canonical_error_from_group(G[..., 1:, :, :], G[..., :1, :, :], y0), y0)

    y0 = [0.0, 0.6, 0.8]
    sc = make_scenario(mode="lifted", input=SINUSOID, t_end=3.0, y0=y0, sample_every=5,
                       init={"observer": {"axis_angle": [0.4, -2.6, 0.9]}})
    rec = simulate_lifted(sc)
    G = np.stack((rec.X, rec.Xhat), axis=1)
    assert np.max(np.abs(rec.theta - canonical_angle(G, sc.y0_vec)[:, 0])) <= 1e-15

    kept = []
    integrate = invobs.simulate._integrate

    def keeping(scenario, rate, pair, state, keep_states):
        out = integrate(scenario, rate, pair, state, True)
        kept.append(out)
        return out if keep_states else (*out[:2], out[2].max(axis=0))

    monkeypatch.setattr(invobs.simulate, "_integrate", keeping)
    sc = make_scenario(mode="monte-carlo", input=SINUSOID, t_end=2.0, seed=4, y0=y0, sample_every=1,
                       integrator={"h": 0.01}, mc={"runs": 50, "space": "lifted"})
    res = monte_carlo(sc)
    (_, theta, _, G), = kept
    assert theta.shape == (201, 50)
    assert [s.final_angle for s in res.summaries] == theta[-1].tolist()
    assert np.max(np.abs(theta - canonical_angle(G, sc.y0_vec))) <= 1e-15

    ulp2 = 2.0 * np.finfo(float).eps
    Y, Yh = random_unit(rng, 1000), random_unit(rng, 1000)
    norm_form = 2.0 * np.arctan2(np.linalg.norm(Yh - Y, axis=-1), np.linalg.norm(Yh + Y, axis=-1))
    assert np.max(np.abs(error_angle(Yh, Y) - norm_form)) <= ulp2
    M = random_rotation(rng, 200) + 1e-10 * rng.standard_normal((200, 3, 3))
    norm_form = np.linalg.norm(np.swapaxes(M, -1, -2) @ M - np.eye(3), axis=(-2, -1))
    assert np.max(np.abs(drift(M) / norm_form - 1.0)) <= ulp2
    S = Y * (1.0 + 1e-12 * rng.standard_normal((1000, 1)))
    norm_form = np.abs(np.linalg.norm(S, axis=-1) - 1.0)
    assert np.max(np.abs(_sphere_pair(None).drift(S) - norm_form)) <= ulp2


@pytest.mark.parametrize("space", ["projected", "lifted"])
@pytest.mark.parametrize("method", ["rk4-project", "lie-euler"])
def test_sweep_runs_equal_their_single_runs(make_scenario, monkeypatch, method, space):
    """Each run of a sweep steps as the (2, ...) pair of the plant and its
    own start would alone: the observer rows' innovation against the shared
    plant vector is one product per stage, which BLAS rounds row by row the
    same at 2 rows and at 41, so every recorded angle is the same bits.  So
    is the worst drift in both spaces: the lifted drift measure sums each
    matrix's nine squares by a reduce along its row, whose order does not
    depend on the row count."""
    import invobs.simulate

    integrate, sweeps = invobs.simulate._integrate, []

    def kept(scenario, rate, pair, state, keep_states):
        out = integrate(scenario, rate, pair, state, keep_states)
        sweeps.append((rate, pair, state, out))
        return out

    monkeypatch.setattr(invobs.simulate, "_integrate", kept)
    sc = make_scenario(mode="monte-carlo", input=SINUSOID, t_end=2.0, seed=6,
                       integrator={"method": method, "h": 0.01}, mc={"runs": 40, "space": space})
    monte_carlo(sc)
    (rate, pair, state, (t, theta, max_drift)), = sweeps
    for i in range(1, len(state)):
        t1, theta1, max_drift1 = integrate(sc, rate, pair, state[[0, i]], False)
        assert np.array_equal(t1, t)
        assert np.array_equal(theta1[:, 0], theta[:, i - 1]), i
        assert max_drift1[0] == max_drift[i - 1], i


@pytest.mark.parametrize("method", ["rk4-project", "lie-euler"])
def test_runs_bit_identical_with_numpy_cross(make_scenario, monkeypatch, method):
    """Batches with one plant and input per run, (runs, 2, 3) sphere and
    (runs, 2, 3, 3) group stacks as verify steps them, reach so3.cross at
    every rate: the observer rows' innovation k (y x yhat) against their own
    plant rows.  Stepped again with np.cross in its place, every recorded
    time, angle, drift and state is the same.  (Single runs and sweeps share
    one plant vector, so their innovation is one product, not a cross.)"""
    import invobs.observer
    import invobs.so3
    from invobs.sampling import random_rotation, random_unit
    from invobs.simulate import _group_pair
    from invobs.verify import _smooth_inputs

    runs, steps = 6, 200
    sc = make_scenario(mode="projected", t_end=steps * 1e-3, integrator={"method": method, "h": 1e-3})
    rng = np.random.default_rng(8)
    inputs = _smooth_inputs(rng, runs)

    def rates(t, at):
        return np.stack([sig.eval(t, at) for sig in inputs], axis=-2)  # (..., runs, 3)

    cost = SphereCost(rng.uniform(0.5, 2.0, (runs, 1, 1)))
    batches = [(_sphere_pair(cost), random_unit(rng, 2 * runs).reshape(runs, 2, 3)),
               (_group_pair(cost, sc.y0_vec), random_rotation(rng, 2 * runs).reshape(runs, 2, 3, 3))]
    ours = [_integrate(sc, rates, pair, state, True) for pair, state in batches]
    calls = []

    def numpy_cross(a, b):
        calls.append(None)
        return np.cross(a, b)

    # Every module whose helpers a step may reach; the count shows the step
    # path really went through np.cross.
    for module in (invobs.observer, invobs.so3):
        monkeypatch.setattr(module, "cross", numpy_cross)
    reference = [_integrate(sc, rates, pair, state, True) for pair, state in batches]
    # The group batch's rates at every stage, one per step under Lie-Euler
    # for each batch.
    assert len(calls) >= steps * (4 if method == "rk4-project" else 2)
    for got, want in zip(ours, reference):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_runs_step_the_public_fields(make_scenario, monkeypatch):
    """The pairs call the pair field and rate functions that verify checks
    against the per-component fields, under both integrators; a private copy
    of a field or of the observer body rate in the simulator fails here.  A
    pair stack moves by one call per stage.  The input is evaluated before
    the steps it drives: each integration makes one InputSignal.eval call
    per block of steps, whose times are i h, i h + h/2 and i h + h for each
    RK4 step i (i h for each Lie-Euler step), each stage once and bit for
    bit that scalar expression, and whose segment times hold each step's
    segment at i h + h/2.  hat of the sphere pair's RK4 table and the
    group pair's action matrix are built once per integration, not per
    step.  Co-simulation steps the group pair and then the sphere pair, so
    it makes the calls of both."""
    import invobs.simulate

    names = ("projected_pair_field", "projected_pair_rates", "plant_vector_field", "hat", "_actor")
    calls = dict.fromkeys(names, 0)
    times, holds = [], []

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def recorded(evaluate):
        def wrapper(self, t, at=None):
            times.append(np.array(t, dtype=float))
            holds.append(np.array(at, dtype=float))
            return evaluate(self, t, at)
        return wrapper

    for name in names:
        monkeypatch.setattr(invobs.simulate, name, counted(name, getattr(invobs.simulate, name)))
    monkeypatch.setattr(InputSignal, "eval", recorded(InputSignal.eval))
    steps = 20  # rk4-project: four field evaluations per step; lie-euler: one rate
    single = dict(input=SINUSOID, t_end=steps * 1e-3,
                  init={"observer": {"axis_angle": [1.7, -0.4, 0.3]}})
    sweep = dict(mode="monte-carlo", input=SINUSOID, t_end=steps * 1e-2)
    planar = dict(SO2_BASE, t_end=steps * 1e-3)
    # (entry point, document, step size, pairs stepped, calls per rk4-project
    # step, per lie-euler step)
    sphere = ("sphere",), {"projected_pair_field": 4}, {"projected_pair_rates": 1}
    group = ("group",), {"projected_pair_rates": 4, "plant_vector_field": 4}, {"projected_pair_rates": 1}
    cosim = ("group", "sphere"), dict(group[1], projected_pair_field=4), {"projected_pair_rates": 2}
    runs = [
        (simulate_projected, dict(mode="projected", **single), 1e-3, *sphere),
        (simulate_projected, dict(mode="synchrony", **single), 1e-3, *sphere),
        (simulate_lifted, dict(mode="lifted", **single), 1e-3, *group),
        (simulate_cosim, dict(mode="co-sim", **single), 1e-3, *cosim),
        (monte_carlo, dict(sweep, mc={"runs": 5, "space": "projected"}), 1e-2, *sphere),
        (monte_carlo, dict(sweep, mc={"runs": 5, "space": "lifted"}), 1e-2, *group),
        # so2-s1 documents step the planar restriction of the same pairs.
        (simulate_circle, dict(planar, mode="projected"), 1e-3, *sphere),
        (simulate_circle, dict(planar, mode="lifted"), 1e-3, *group),
        (simulate_circle, dict(planar, mode="co-sim"), 1e-3, *cosim),
    ]
    for fn, doc, h, pairs, rk4, lie in runs:
        for method, per_step in (("rk4-project", rk4), ("lie-euler", lie)):
            calls.update(dict.fromkeys(calls, 0))
            times.clear()
            holds.clear()
            fn(make_scenario(**doc, integrator={"method": method, "h": h}))
            per_run = {"_actor": pairs.count("group"),
                       "hat": pairs.count("sphere") if method == "rk4-project" else 0}
            want = {name: per_step.get(name, 0) * steps + per_run.get(name, 0) for name in calls}
            assert calls == want, (doc["mode"], method)
            if method == "rk4-project":
                stages = [t for i in range(steps) for t in (i * h, i * h + 0.5 * h, i * h + h)]
            else:
                stages = [i * h for i in range(steps)]
            hold = [i * h + 0.5 * h for i in range(steps)]
            assert len(times) == len(holds) == len(pairs), (doc["mode"], method)
            for got, at in zip(times, holds):
                assert sorted(got.ravel().tolist()) == sorted(stages), (doc["mode"], method)
                assert at.ravel().tolist() == hold, (doc["mode"], method)


# numpy Python functions a step or a record may run: count_nonzero's
# dispatcher (unit's and group_exp's checks; its C entry point is private),
# and the Python bodies of the ndarray methods .all() and .max().
STEP_NUMPY_CALLS = {("numeric.py", "_count_nonzero_dispatcher"), ("numeric.py", "count_nonzero"),
                    ("_methods.py", "_all"), ("_methods.py", "_amax")}


def test_step_path_runs_no_numpy_dispatcher(make_scenario, monkeypatch):
    """Under sys.setprofile, each time loop of a projected, lifted and co-sim
    run under both integrators, and of a projected and a lifted sweep, calls
    no numpy Python code per step or per record but STEP_NUMPY_CALLS: no
    np.dot or np.max dispatcher, whose Python layer costs 0.2 to 0.5 us a call
    where the ndarray method runs the same C routine.  Code called fewer
    times than the loop records samples is per block of steps (the input
    table).  A constant input keeps each Lie-Euler rate above group_exp's
    series switch, whose np.where runs only for rates below it."""
    import invobs.simulate

    numpy_dir = os.path.dirname(np.__file__)
    loops = []

    def profiled(scenario, rate, pair, state, keep_states):
        calls = {}

        def hook(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename.startswith(numpy_dir):
                key = (os.path.basename(code.co_filename), code.co_name)
                calls[key] = calls.get(key, 0) + 1

        sys.setprofile(hook)
        try:
            out = _integrate(scenario, rate, pair, state, keep_states)
        finally:
            sys.setprofile(None)
        loops.append({key for key, n in calls.items() if n >= len(out[0])})
        return out

    monkeypatch.setattr(invobs.simulate, "_integrate", profiled)
    constant = {"kind": "constant", "amplitude": [1.0, 0.5, 0.8]}
    single = dict(input=constant, t_end=0.05)
    sweep = dict(mode="monte-carlo", input=constant, t_end=0.5)
    for method in ("rk4-project", "lie-euler"):
        for fn, doc, h in [(simulate_projected, dict(single, mode="projected"), 1e-3),
                           (simulate_lifted, dict(single, mode="lifted"), 1e-3),
                           (simulate_cosim, dict(single, mode="co-sim"), 1e-3),
                           (monte_carlo, dict(sweep, mc={"runs": 4}), 1e-2),
                           (monte_carlo, dict(sweep, mc={"runs": 4, "space": "lifted"}), 1e-2)]:
            loops.clear()
            fn(make_scenario(**doc, integrator={"method": method, "h": h}))
            assert loops and all(calls <= STEP_NUMPY_CALLS for calls in loops), (doc, method, loops)


@pytest.mark.parametrize("offset", [(1, -1), (1, 0), (1, 1), (2, 1)], ids=lambda o: f"{o[0]}B{o[1]:+d}")
def test_so2_runs_across_block_edges_meet_the_oracle(make_scenario, offset):
    """RK4 runs of B - 1, B, B + 1 and 2B + 1 steps, B the steps per input
    table: each meets the exact circle solution and records exactly its
    sample times, the initial state, every tenth step and the last."""
    n = offset[0] * BLOCK_STEPS + offset[1]
    h = 1e-3
    res = so2_oracle_run(make_scenario(**dict(SO2_BASE, t_end=n * h, integrator={"h": h})))
    assert res.observer_deviation <= 1e-8
    want = [0.0] + [(i + 1) * h for i in range(n) if (i + 1) % 10 == 0 or i + 1 == n]
    assert res.record.t.tolist() == want


@pytest.mark.parametrize("method,band", [("rk4-project", (14.0, 18.0)), ("lie-euler", (1.9, 2.1))])
def test_so2_order_under_a_nonzero_input(make_scenario, method, band):
    """Halving h divides the so2-s1 oracle deviation under a sinusoidal
    input by 2^4 for RK4 and 2 for Lie-Euler.  An RK4 stage that samples
    the input at the wrong time drops the method to first order; the oracle
    integrates the input in closed form, apart from the integrator."""
    def deviation(h):
        doc = dict(SO2_BASE, t_end=5.0, sample_every=1, integrator={"method": method, "h": h},
                   input={"kind": "sinusoid", "amplitude": [2.0], "frequency": 1.5, "phase": 0.4})
        return so2_oracle_run(make_scenario(**doc)).observer_deviation

    ratio = deviation(0.01) / deviation(0.005)
    assert band[0] <= ratio <= band[1]


@pytest.mark.parametrize("method,h,times", [
    ("rk4-project", 1e-3, [0.5]),
    ("rk4-project", 5e-4, [0.5]),
    # The float i h + h of the step ending on a switch: 5 h + h lies above
    # 0.06, 6 h + h below 0.07.
    ("rk4-project", 0.01, [0.06, 0.07]),
    # The float 3 h lies below 0.027; 4 h is 0.036.
    ("lie-euler", 0.009, [0.027]),
    ("lie-euler", 0.009, [0.036]),
])
def test_so2_oracle_across_grid_aligned_switches(make_scenario, method, h, times):
    """Both integrators hold each step's input segment, the one at its
    midpoint, at every stage, so a jump on the step grid is integrated as
    exactly as a constant rate: every sample of an so2-s1 run across it,
    the observer started on the plant, meets the exact solution.  Taking
    the next segment at RK4's last stage i h + h integrated it with weight
    1/6 over one step (1.67e-4 per unit jump at h = 1e-3), and sampling it
    at Lie-Euler's step start i h, which can round below the switch, held
    the old segment for a whole step (9.0e-3 at h = 0.009)."""
    doc = dict(SO2_BASE, t_end=0.9, sample_every=1, integrator={"method": method, "h": h},
               init={"plant": {"angle": 0.4}, "observer": {"angle": 0.4}},
               input={"kind": "piecewise-constant", "times": times,
                      "values": [[0.0], [1.0], [-0.5]][:len(times) + 1]})
    assert so2_oracle_run(make_scenario(**doc)).observer_deviation <= 1e-8


SO2_RUN = {"instance": "so2-s1", "t_end": 0.05}
SO3_RUN = {"instance": "so3-s2", "input": SINUSOID, "t_end": 0.05}


@pytest.mark.parametrize("doc", [
    dict(SO2_RUN, mode="projected"), dict(SO2_RUN, mode="lifted"), dict(SO2_RUN, mode="co-sim"),
    dict(SO2_RUN, mode="synchrony"), dict(SO3_RUN, mode="projected"), dict(SO3_RUN, mode="lifted"),
    dict(SO3_RUN, mode="co-sim"), dict(SO3_RUN, mode="monte-carlo", mc={"runs": 3}),
], ids=lambda d: f"{d['instance']}-{d['mode']}")
def test_run_integrates_once(make_scenario, monkeypatch, tmp_path, doc):
    """runner.run steps a scenario's pair once, and a co-simulation each of
    its two pairs once; an so2-s1 run takes its trajectory from the circle
    oracle rather than stepping the pair again."""
    import invobs.simulate
    from invobs import runner

    integrate = invobs.simulate._integrate
    kinds = []

    def counted(scenario, rate, pair, state, *args):
        kinds.append("group" if state.ndim == 3 else "sphere")  # (rows, 3, 3) or (rows, 3)
        return integrate(scenario, rate, pair, state, *args)

    monkeypatch.setattr(invobs.simulate, "_integrate", counted)
    assert runner.run(make_scenario(**doc), str(tmp_path), quiet=True) == 0
    if doc["mode"] == "co-sim":
        assert kinds == ["group", "sphere"]
    else:
        assert len(kinds) == 1
