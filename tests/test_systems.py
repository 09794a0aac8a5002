"""Plant, output and its stabiliser invariance, projected dynamics, input signals."""

import numpy as np
import pytest

from invobs import InputSignal, act, group_exp, hat
from invobs.so3 import section
from invobs.systems import plant_vector_field
from invobs.sampling import random_rotation, random_unit

from component_fields import project_dynamics

E1, E2, E3 = np.eye(3)
EPS = 1e-6


def test_plant_vector_field():
    u = np.array([0.4, -1.1, 0.3])
    assert np.allclose(plant_vector_field(np.eye(3), u), hat(u), atol=1e-15)
    X = group_exp([0.2, 0.5, -0.3])
    assert np.array_equal(plant_vector_field(X, np.zeros(3)), np.zeros((3, 3)))
    Rz = group_exp([0, 0, np.pi / 2])
    assert np.allclose(plant_vector_field(Rz, E3), Rz @ hat(E3), atol=1e-15)


def test_output_matches_action():
    assert np.allclose(act(np.eye(3), E3), E3, atol=1e-15)
    Rx = group_exp([np.pi / 2, 0, 0])
    assert np.allclose(act(Rx, E3), Rx.T @ E3, atol=1e-15)
    assert np.allclose(act(Rx, E3), [0, 1, 0], atol=1e-15)


def test_output_invariant_under_left_stabiliser_only(rng):
    for _ in range(100):
        X = random_rotation(rng)
        Z = group_exp(float(rng.uniform(0.1, 3.0)) * E3)  # fixes e3
        assert np.allclose(act(Z @ X, E3), act(X, E3), atol=1e-12)
    # generic right multiplication by a stabiliser element moves the output
    X = group_exp([0.9, 0.2, -0.4])
    Z = group_exp(1.1 * E3)
    assert np.linalg.norm(act(X @ Z, E3) - act(X, E3)) > 1e-3


def test_project_dynamics_examples():
    v = project_dynamics(E1, E3)
    assert np.allclose(v, [0, -1, 0], atol=1e-15)
    assert np.allclose(v, -np.cross(E3, E1), atol=1e-15)
    # velocity along the measured direction is invisible
    parallel = project_dynamics(E3, 2.3 * E3)
    assert np.allclose(parallel, np.zeros(3), atol=1e-15)
    assert abs(v @ E1) <= 1e-15


def test_fields_over_leading_axes(rng):
    Y, U, u = random_unit(rng, 20), rng.uniform(-2, 2, (20, 3)), rng.uniform(-2, 2, 3)
    X = random_rotation(rng, 20)
    V = project_dynamics(Y, U)
    assert np.array_equal(V, [project_dynamics(y, w) for y, w in zip(Y, U)])
    assert np.array_equal(V, -np.cross(U, Y))
    assert np.max(np.abs(np.einsum("ni,ni->n", V, Y))) <= 1e-14  # tangent at each row
    assert np.array_equal(plant_vector_field(X, u), [plant_vector_field(R, u) for R in X])


def test_project_dynamics_finite_difference_oracle(rng):
    y0 = E3
    for _ in range(200):
        y = random_unit(rng)
        u = rng.uniform(-2, 2, 3)
        X = section(y, y0)
        plus = act(X @ group_exp(EPS * u), y0)
        minus = act(X @ group_exp(-EPS * u), y0)
        fd = (plus - minus) / (2 * EPS)
        assert np.linalg.norm(fd - project_dynamics(y, u)) <= 1e-6


def test_projected_velocity_is_representative_independent(rng):
    y0 = E3
    for _ in range(1000):
        y = random_unit(rng)
        u = rng.uniform(-2, 2, 3)
        X1 = section(y, y0)
        W = group_exp(float(rng.uniform(-np.pi, np.pi)) * E3)  # stabiliser of y0
        X2 = W @ X1
        assert np.linalg.norm(act(X2, y0) - y) <= 1e-12
        fds = []
        for X in (X1, X2):
            plus = act(X @ group_exp(EPS * u), y0)
            minus = act(X @ group_exp(-EPS * u), y0)
            fds.append((plus - minus) / (2 * EPS))
        assert np.linalg.norm(fds[0] - fds[1]) <= 1e-6


def test_eval_input_examples():
    const = InputSignal.constant([0, 0, 1])
    assert np.array_equal(const.eval(5.0), [0, 0, 1])
    sin = InputSignal.sinusoid([1, 0, 0], frequency=0.5)
    assert np.allclose(sin.eval(0.0), np.zeros(3), atol=1e-15)
    pw = InputSignal.piecewise([1.0], [[1, 0, 0], [0, 2, 0]])
    assert np.array_equal(pw.eval(0.5), [1, 0, 0])
    assert np.array_equal(pw.eval(1.0), [0, 2, 0])  # right-continuous
    assert np.array_equal(pw.eval(9.0), [0, 2, 0])
    total = InputSignal.sum_of(const, pw)
    assert np.array_equal(total.eval(1.0), [0, 2, 1])


SWITCHES = [1.25, 4.75]
SIGNALS = {
    "constant": InputSignal.constant([0.3, -1.2, 0.7]),
    "sinusoid": InputSignal.sinusoid([1.2, -0.4, 0.7], frequency=0.37, phase=0.9),
    "piecewise": InputSignal.piecewise(SWITCHES, [[0.3, 0, -0.2], [-0.5, 0.4, 0.1],
                                                  [0.2, -0.1, 0.6]]),
}
SIGNALS["sum"] = InputSignal.sum_of(*SIGNALS.values())
SO2_SUM = {"kind": "sum", "terms": [
    {"kind": "sinusoid", "amplitude": [2.0], "frequency": 1.5, "phase": 0.4},
    {"kind": "piecewise-constant", "times": SWITCHES, "values": [[0.5], [-1.0], [0.25]]},
    {"kind": "constant", "amplitude": [0.3]}]}


@pytest.mark.parametrize("name", sorted(SIGNALS) + ["so2-s1 sum"])
def test_eval_over_time_arrays_matches_scalar_eval(make_scenario, name):
    """eval over an array of times gives, row for row and bit for bit, what
    it gives at each time alone, for every kind and for an so2-s1 signal
    padded to the body rate (0, 0, w); the switch times and their
    neighbouring floats included."""
    if name == "so2-s1 sum":
        evaluate = make_scenario(instance="so2-s1", input=SO2_SUM).body_rates
    else:
        evaluate = SIGNALS[name].eval
    near = [np.nextafter(t, d) for t in SWITCHES for d in (-np.inf, np.inf)]
    ts = np.concatenate((np.linspace(0.0, 6.0, 600), SWITCHES, near))
    flat = evaluate(ts)
    assert flat.shape == (len(ts), 3)
    for t, row in zip(ts.tolist(), flat):
        one = evaluate(t)
        assert one.shape == (3,)
        assert one.tobytes() == row.tobytes(), t
    grid = evaluate(ts.reshape(-1, 3))
    assert grid.shape == (len(ts) // 3, 3, 3)
    assert grid.tobytes() == flat.tobytes()


@pytest.mark.parametrize("name", sorted(SIGNALS))
def test_eval_does_not_write_through(name):
    """A value at one time or many is a new array: writing to it leaves the
    signal's amplitude or segment values as they were."""
    sig = SIGNALS[name]
    params = [getattr(s, a) for s in (sig,) + sig.terms for a in ("amplitude", "values")]
    params = [p for p in params if p is not None]
    for t in (2.0, np.linspace(0.0, 1.0, 4)):
        out = sig.eval(t)
        assert not any(np.shares_memory(out, p) for p in params)


def test_input_validation():
    with pytest.raises(ValueError):
        InputSignal("wobble", amplitude=[1, 0, 0])
    with pytest.raises(ValueError):
        InputSignal.piecewise([2.0, 1.0], [[1, 0, 0]] * 3)
    with pytest.raises(ValueError):
        InputSignal.piecewise([1.0], [[1, 0, 0]])
    with pytest.raises(ValueError):
        InputSignal.sum_of()
    # Every parameter of a leaf is finite; the message names it first.
    for make, name in [
        (lambda: InputSignal.constant([1.0, np.inf]), "amplitude"),
        (lambda: InputSignal.piecewise([np.nan], [[1.0], [2.0]]), "times"),
        (lambda: InputSignal.piecewise([1.0], [[np.inf], [2.0]]), "values"),
        (lambda: InputSignal.sinusoid([1.0], np.inf), "frequency"),
        (lambda: InputSignal.sinusoid([1.0], 0.5, phase=np.nan), "phase"),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make()


def _grid_values(sig, ts):
    """The signal's closed form over an array of times, term by term: the
    test's own reference, independent of ``eval``."""
    if sig.kind == "constant":
        return np.broadcast_to(sig.amplitude, (len(ts), sig.dim))
    if sig.kind == "sinusoid":
        return sig.amplitude * np.sin(2.0 * np.pi * sig.frequency * ts[:, None] + sig.phase)
    if sig.kind == "piecewise-constant":
        return sig.values[np.searchsorted(sig.times, ts, side="right")]
    return sum(_grid_values(term, ts) for term in sig.terms)


def test_integral_against_dense_quadrature():
    switches = [1.25, 4.75]
    sig = InputSignal.sum_of(
        InputSignal.sinusoid([1.2, -0.4, 0.7], frequency=0.37, phase=0.9),
        InputSignal.piecewise(switches, [[0.3, 0, -0.2], [-0.5, 0.4, 0.1], [0.2, -0.1, 0.6]]),
        InputSignal.constant([0.05, -0.02, 0.03]),
    )
    for t_end in (0.7, 1.25, 3.3, 6.0):
        ts = np.linspace(0.0, t_end, 200_001)
        vals = _grid_values(sig, ts)
        # eval agrees with the samples on a strided subset of the grid and on
        # the grid points on either side of each switch inside it.
        after = np.searchsorted(ts, switches)
        after = after[after < len(ts)]
        for i in np.concatenate((np.arange(0, len(ts), 1000), after - 1, after)):
            assert np.allclose(sig.eval(ts[i]), vals[i], rtol=0.0, atol=1e-15)
        quad = np.trapezoid(vals, ts, axis=0)
        assert np.allclose(sig.integral(t_end), quad, atol=5e-5)
    # At the switch times themselves (right-continuous).
    for t, want in zip(switches, _grid_values(sig, np.array(switches))):
        assert np.allclose(sig.eval(t), want, rtol=0.0, atol=1e-15)


def test_integral_piecewise_exact_segments():
    pw = InputSignal.piecewise([1.0, 3.0], [[2.0], [-1.0], [0.5]])
    assert np.allclose(pw.integral(0.5), [1.0])
    assert np.allclose(pw.integral(1.0), [2.0])
    assert np.allclose(pw.integral(2.0), [1.0])
    assert np.allclose(pw.integral(3.0), [0.0])
    assert np.allclose(pw.integral(5.0), [1.0])
    zero_freq = InputSignal.sinusoid([2.0], frequency=0.0, phase=np.pi / 2)
    assert np.allclose(zero_freq.integral(3.0), [6.0])
