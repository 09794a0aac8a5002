"""Time integration of plant/observer pairs, Monte Carlo sweeps, run metrics.

Two integrators are provided.  ``lie-euler`` advances group states by
``X <- X @ group_exp(h * A)`` (and sphere states by the induced exact
rotation), so states never leave the manifold beyond exponential accuracy.
``rk4-project`` is classical four-stage stepping in the embedding followed by
re-orthonormalisation (group) or renormalisation (sphere); it is the default
since the continuous-time theory says nothing about discretisation and fourth
order keeps the integrator far below every property tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circle
from .observer import SphereCost, error_angle_closed_form
from .so3 import IDENTITY, act, compose, cross, group_exp, hat, orthonormalize, unit
from .sampling import random_rotation, random_unit

ANTIPODAL_EXCLUSION = 0.01  # rad; Monte Carlo cap around the antipode
RATE_WINDOW = (1e-6, 0.1)   # rad; log-linear fit window for the decay rate
MIN_RATE_SAMPLES = 10


def _angle_rows(Y, y) -> np.ndarray:
    return 2.0 * np.arctan2(np.linalg.norm(Y - y, axis=-1), np.linalg.norm(Y + y, axis=-1))


class SimulationAbort(RuntimeError):
    """A trajectory produced a non-finite state."""


@dataclass(frozen=True)
class IntegratorSpec:
    """Stepping method and fixed step size in seconds."""

    method: str = "rk4-project"
    h: float = 1e-3

    def __post_init__(self):
        if self.method not in ("rk4-project", "lie-euler"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if not (np.isfinite(self.h) and 0.0 < self.h <= 1e-2):
            raise ValueError("integrator step h must lie in (0, 0.01] seconds")


@dataclass
class TrajectoryRecord:
    """Time-ordered samples of a run.

    ``theta`` is the error angle between observer and plant outputs at each
    sample; ``drift`` is the worst constraint defect of the stored states
    (Frobenius distance from orthogonality, or unit-norm defect on the
    sphere).  Group states are kept only for group-mode runs; ``consistency``
    holds the co-simulation residual when present.
    """

    t: np.ndarray
    y: np.ndarray
    yhat: np.ndarray
    theta: np.ndarray
    drift: np.ndarray
    X: np.ndarray | None = None
    Xhat: np.ndarray | None = None
    consistency: np.ndarray | None = None

    def __post_init__(self):
        if not np.all(np.diff(self.t) > 0.0):
            raise ValueError("sample times must be strictly increasing")


@dataclass
class RunSummary:
    """Headline metrics of one run: final error angle, first time below the
    convergence threshold (if reached), fitted exponential decay rate over the
    small-angle window (if enough samples), and worst state drift."""

    final_angle: float
    t_converged: float | None
    fitted_rate: float | None
    max_drift: float


def fit_rate(t, theta) -> float | None:
    """Least-squares decay rate of log(theta) over the small-angle window.

    The window is RATE_WINDOW: below its floor the angle is dominated by
    arccos rounding noise and the log-fit would be meaningless.  Returns None
    with fewer than MIN_RATE_SAMPLES samples in the window.
    """
    t = np.asarray(t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    mask = (theta > RATE_WINDOW[0]) & (theta < RATE_WINDOW[1])
    if int(mask.sum()) < MIN_RATE_SAMPLES:
        return None
    slope = np.polyfit(t[mask], np.log(theta[mask]), 1)[0]
    return float(-slope)


def summarize(record: TrajectoryRecord, threshold: float = 1e-3) -> RunSummary:
    below = record.theta < threshold
    t_conv = float(record.t[int(np.argmax(below))]) if bool(below.any()) else None
    return RunSummary(
        final_angle=float(record.theta[-1]),
        t_converged=t_conv,
        fitted_rate=fit_rate(record.t, record.theta),
        max_drift=float(np.max(record.drift)),
    )


def closed_form_deviation(record: TrajectoryRecord, k: float) -> float | None:
    """Worst gap between the recorded error angle and the autonomous decay law
    started from the recorded initial angle.  None when the run starts at the
    antipodal equilibrium, where the law does not apply."""
    theta0 = float(record.theta[0])
    if theta0 >= np.pi:
        return None
    law = error_angle_closed_form(theta0, k, record.t)
    return float(np.max(np.abs(record.theta - law)))


def _n_steps(t_end: float, h: float) -> int:
    return max(1, int(round(t_end / h)))


def _record_steps(n: int, every: int) -> list[int]:
    idx = list(range(0, n + 1, every))
    if idx[-1] != n:
        idx.append(n)
    return idx


def _check_finite(t: float, *arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise SimulationAbort(f"non-finite state at t = {t:.6g} s")


def _rk4(f, t, s, h):
    k1 = f(t, s)
    k2 = f(t + 0.5 * h, s + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, s + 0.5 * h * k2)
    k4 = f(t + h, s + h * k3)
    return s + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _resolve_cost(scenario, cost):
    if cost is not None:
        return cost
    if scenario.mode == "synchrony":
        return None  # internal model only
    return SphereCost(scenario.k)


def simulate_projected(scenario, cost=None) -> TrajectoryRecord:
    """Integrate the projected plant and sphere observer side by side.

    ``cost`` overrides the innovation (used by the negative controls); by
    default the invariant cost with the scenario gain is used, and synchrony
    mode disables the innovation entirely.
    """
    inp = scenario.input
    cost = _resolve_cost(scenario, cost)
    h = scenario.integrator.h
    n = _n_steps(scenario.t_end, h)
    rec = _record_steps(n, scenario.sample_every)
    y, yhat = scenario.initial_sphere_pair()

    t_out, y_out, yh_out = [], [], []

    def record(i, y_, yh_):
        t = i * h
        _check_finite(t, y_, yh_)
        t_out.append(t)
        y_out.append(y_.copy())
        yh_out.append(yh_.copy())

    record(0, y, yhat)
    rec_set = set(rec)
    if scenario.integrator.method == "rk4-project":
        def f(t, s):
            y_, yh_ = s[:3], s[3:]
            uv = inp.eval(t)
            dy = -cross(uv, y_)
            dyh = -cross(uv, yh_)
            if cost is not None:
                dyh = dyh - cost.grad1(yh_, y_)
            return np.concatenate([dy, dyh])

        s = np.concatenate([y, yhat])
        for i in range(n):
            s = _rk4(f, i * h, s, h)
            y_, yh_ = s[:3], s[3:]
            y_ /= math.sqrt(float(y_ @ y_))
            yh_ /= math.sqrt(float(yh_ @ yh_))
            if i + 1 in rec_set:
                record(i + 1, y_, yh_)
    else:  # lie-euler: exact rotations generated by the start-of-step field
        for i in range(n):
            uv = inp.eval(i * h)
            w = -np.asarray(uv, dtype=float)
            if cost is not None:
                w_hat = w + cross(yhat, -cost.grad1(yhat, y))
            else:
                w_hat = w
            y = unit(group_exp(h * w) @ y)
            yhat = unit(group_exp(h * w_hat) @ yhat)
            if i + 1 in rec_set:
                record(i + 1, y, yhat)

    t_arr = np.array(t_out)
    y_arr = np.array(y_out)
    yh_arr = np.array(yh_out)
    theta = _angle_rows(yh_arr, y_arr)
    dr = np.maximum(
        np.abs(np.linalg.norm(y_arr, axis=1) - 1.0),
        np.abs(np.linalg.norm(yh_arr, axis=1) - 1.0),
    )
    return TrajectoryRecord(t=t_arr, y=y_arr, yhat=yh_arr, theta=theta, drift=dr)


def _group_record(t_out, X_out, Xh_out, y0v, consistency=None) -> TrajectoryRecord:
    t_arr = np.array(t_out)
    X_arr = np.array(X_out)
    Xh_arr = np.array(Xh_out)
    y_arr = np.einsum("nji,j->ni", X_arr, y0v)
    y_arr /= np.linalg.norm(y_arr, axis=1, keepdims=True)
    yh_arr = np.einsum("nji,j->ni", Xh_arr, y0v)
    yh_arr /= np.linalg.norm(yh_arr, axis=1, keepdims=True)
    # Canonical-error angle from the right-invariant group error; identical to
    # the output error angle since the action is by orthogonal matrices.
    err = np.einsum("nij,nkj,k->ni", X_arr, Xh_arr, y0v)
    err /= np.linalg.norm(err, axis=1, keepdims=True)
    theta = _angle_rows(err, y0v)
    eye = IDENTITY
    dX = np.linalg.norm(np.einsum("nji,njk->nik", X_arr, X_arr) - eye, axis=(1, 2))
    dXh = np.linalg.norm(np.einsum("nji,njk->nik", Xh_arr, Xh_arr) - eye, axis=(1, 2))
    return TrajectoryRecord(
        t=t_arr, y=y_arr, yhat=yh_arr, theta=theta,
        drift=np.maximum(dX, dXh), X=X_arr, Xhat=Xh_arr,
        consistency=None if consistency is None else np.array(consistency),
    )


def simulate_lifted(scenario, cost=None) -> TrajectoryRecord:
    """Integrate plant and observer on the group; the error angle is derived
    from the right-invariant group error."""
    inp = scenario.input
    cost = _resolve_cost(scenario, cost)
    y0v = scenario.y0_vec
    h = scenario.integrator.h
    n = _n_steps(scenario.t_end, h)
    rec_set = set(_record_steps(n, scenario.sample_every))
    X, Xhat = scenario.initial_group_pair()

    def body_rate(t, X_, Xh_):
        uv = np.asarray(inp.eval(t), dtype=float)
        if cost is None:
            return uv, uv
        y_ = unit(X_.T @ y0v)
        yh_ = unit(Xh_.T @ y0v)
        return uv, uv - cross(cost.grad1(yh_, y_), yh_)

    t_out, X_out, Xh_out = [], [], []

    def record(i, X_, Xh_):
        t = i * h
        _check_finite(t, X_, Xh_)
        t_out.append(t)
        X_out.append(X_.copy())
        Xh_out.append(Xh_.copy())

    record(0, X, Xhat)
    if scenario.integrator.method == "rk4-project":
        def f(t, s):
            X_, Xh_ = s[:9].reshape(3, 3), s[9:].reshape(3, 3)
            u_pl, u_ob = body_rate(t, X_, Xh_)
            return np.concatenate([(X_ @ hat(u_pl)).ravel(), (Xh_ @ hat(u_ob)).ravel()])

        s = np.concatenate([X.ravel(), Xhat.ravel()])
        for i in range(n):
            s = _rk4(f, i * h, s, h)
            X = orthonormalize(s[:9].reshape(3, 3))
            Xhat = orthonormalize(s[9:].reshape(3, 3))
            s = np.concatenate([X.ravel(), Xhat.ravel()])
            if i + 1 in rec_set:
                record(i + 1, X, Xhat)
    else:
        for i in range(n):
            u_pl, u_ob = body_rate(i * h, X, Xhat)
            X = compose(X, group_exp(h * u_pl))
            Xhat = compose(Xhat, group_exp(h * u_ob))
            if i + 1 in rec_set:
                record(i + 1, X, Xhat)

    return _group_record(t_out, X_out, Xh_out, y0v)


def simulate_cosim(scenario, cost=None) -> TrajectoryRecord:
    """Run the group observer and the sphere observer side by side from
    matching initial conditions and record how far the group observer's output
    strays from the directly integrated sphere observer."""
    inp = scenario.input
    cost = _resolve_cost(scenario, cost) or SphereCost(scenario.k)
    y0v = scenario.y0_vec
    h = scenario.integrator.h
    n = _n_steps(scenario.t_end, h)
    rec_set = set(_record_steps(n, scenario.sample_every))
    X, Xhat = scenario.initial_group_pair()
    yp = act(Xhat, y0v)  # sphere observer started on the group observer's output

    t_out, X_out, Xh_out, cons = [], [], [], []

    def record(i, X_, Xh_, yp_):
        t = i * h
        _check_finite(t, X_, Xh_, yp_)
        t_out.append(t)
        X_out.append(X_.copy())
        Xh_out.append(Xh_.copy())
        cons.append(float(np.linalg.norm(act(Xh_, y0v) - yp_)))

    record(0, X, Xhat, yp)
    if scenario.integrator.method == "rk4-project":
        def f(t, s):
            X_, Xh_, yp_ = s[:9].reshape(3, 3), s[9:18].reshape(3, 3), s[18:]
            uv = np.asarray(inp.eval(t), dtype=float)
            y_ = unit(X_.T @ y0v)
            yh_ = unit(Xh_.T @ y0v)
            u_ob = uv - cross(cost.grad1(yh_, y_), yh_)
            dyp = -cross(uv, yp_) - cost.grad1(yp_, y_)
            return np.concatenate([(X_ @ hat(uv)).ravel(), (Xh_ @ hat(u_ob)).ravel(), dyp])

        s = np.concatenate([X.ravel(), Xhat.ravel(), yp])
        for i in range(n):
            s = _rk4(f, i * h, s, h)
            X = orthonormalize(s[:9].reshape(3, 3))
            Xhat = orthonormalize(s[9:18].reshape(3, 3))
            yp = s[18:] / math.sqrt(float(s[18:] @ s[18:]))
            s = np.concatenate([X.ravel(), Xhat.ravel(), yp])
            if i + 1 in rec_set:
                record(i + 1, X, Xhat, yp)
    else:
        for i in range(n):
            uv = np.asarray(inp.eval(i * h), dtype=float)
            y_ = act(X, y0v)
            yh_ = act(Xhat, y0v)
            u_ob = uv - cross(cost.grad1(yh_, y_), yh_)
            alpha = -cost.grad1(yp, y_)
            w_p = -uv + cross(yp, alpha)
            X = compose(X, group_exp(h * uv))
            Xhat = compose(Xhat, group_exp(h * u_ob))
            yp = unit(group_exp(h * w_p) @ yp)
            if i + 1 in rec_set:
                record(i + 1, X, Xhat, yp)

    return _group_record(t_out, X_out, Xh_out, y0v, consistency=cons)


# --- circle instance -------------------------------------------------------

@dataclass
class So2OracleResult:
    """Gap between the simulated circle observer and the scalar closed form,
    plus the final full-state error (the stabiliser is trivial, so the state
    estimate itself must converge)."""

    max_deviation: float
    final_state_error: float
    record: TrajectoryRecord


def _simulate_circle_angles(scenario, innovation: bool):
    inp = scenario.input
    k = scenario.k if innovation else 0.0
    h = scenario.integrator.h
    n = _n_steps(scenario.t_end, h)
    rec = _record_steps(n, scenario.sample_every)
    phi, phihat = scenario.initial_angle_pair()

    ts, phis, phihats = [0.0], [phi], [phihat]
    rec_set = set(rec)
    rk4 = scenario.integrator.method == "rk4-project"
    for i in range(n):
        t = i * h
        if rk4:
            def f(tt, s):
                u = float(inp.eval(tt)[0])
                return np.array([u, u + k * np.sin(s[0] - s[1])])

            s = _rk4(f, t, np.array([phi, phihat]), h)
            phi, phihat = float(s[0]), float(s[1])
        else:
            u = float(inp.eval(t)[0])
            phi_new = phi + h * u
            phihat += h * (u + k * np.sin(phi - phihat))
            phi = phi_new
        if i + 1 in rec_set:
            if not (np.isfinite(phi) and np.isfinite(phihat)):
                raise SimulationAbort(f"non-finite state at t = {(i + 1) * h:.6g} s")
            ts.append((i + 1) * h)
            phis.append(phi)
            phihats.append(phihat)
    return np.array(ts), np.array(phis), np.array(phihats)


def _circle_record(ts, phis, phihats, y0_angle) -> TrajectoryRecord:
    y_ang = circle.wrap(y0_angle - phis)
    yh_ang = circle.wrap(y0_angle - phihats)
    y_arr = np.stack([np.cos(y_ang), np.sin(y_ang), np.zeros_like(y_ang)], axis=1)
    yh_arr = np.stack([np.cos(yh_ang), np.sin(yh_ang), np.zeros_like(yh_ang)], axis=1)
    theta = np.abs(circle.wrap(phis - phihats))
    return TrajectoryRecord(
        t=ts, y=y_arr, yhat=yh_arr, theta=theta, drift=np.zeros_like(ts)
    )


def simulate_circle(scenario) -> TrajectoryRecord:
    """Plant/observer pair on the circle; synchrony mode disables the
    innovation just as on the sphere."""
    ts, phis, phihats = _simulate_circle_angles(scenario, scenario.mode != "synchrony")
    rec = _circle_record(ts, phis, phihats, scenario.y0_angle)
    if scenario.mode == "co-sim":
        # The output-angle observer is related to the group observer by an
        # affine change of variables, which fixed-step RK4 commutes with; the
        # residual is pure rounding.
        yhat_angle = circle.wrap(scenario.y0_angle - phihats)
        direct = _simulate_output_angle(scenario)
        rec.consistency = np.abs(circle.wrap(yhat_angle - direct))
    return rec


def _simulate_output_angle(scenario) -> np.ndarray:
    """Integrate the circle observer directly in the output variable."""
    inp = scenario.input
    k = scenario.k
    h = scenario.integrator.h
    n = _n_steps(scenario.t_end, h)
    rec_set = set(_record_steps(n, scenario.sample_every))
    phi, phihat = scenario.initial_angle_pair()
    y = scenario.y0_angle - phi
    yh = scenario.y0_angle - phihat
    out = [yh]
    rk4 = scenario.integrator.method == "rk4-project"
    for i in range(n):
        t = i * h
        if rk4:
            def f(tt, s):
                u = float(inp.eval(tt)[0])
                return np.array([-u, -u - k * np.sin(s[1] - s[0])])

            s = _rk4(f, t, np.array([y, yh]), h)
            y, yh = float(s[0]), float(s[1])
        else:
            u = float(inp.eval(t)[0])
            y_new = y - h * u
            yh += h * (-u - k * np.sin(yh - y))
            y = y_new
        if i + 1 in rec_set:
            out.append(yh)
    return circle.wrap(np.array(out))


def so2_oracle_run(scenario) -> So2OracleResult:
    """Compare the simulated circle observer against the exact solution.

    The plant angle integrates the input in closed form; the observer error
    delta = phi - phihat obeys delta' = -k sin(delta) with the explicit
    solution used on the sphere, so the oracle never touches the integrator.
    """
    ts, phis, phihats = _simulate_circle_angles(scenario, innovation=True)
    phi0, phihat0 = scenario.initial_angle_pair()
    exact_phi = phi0 + np.array([float(scenario.input.integral(t)[0]) for t in ts])
    delta0 = circle.wrap(phi0 - phihat0)
    delta = circle.error_closed_form(delta0, scenario.k, ts)
    exact_phihat = exact_phi - delta
    deviation = float(np.max(np.abs(circle.wrap(phihats - exact_phihat))))
    final_err = float(abs(circle.wrap(phihats[-1] - phis[-1])))
    return So2OracleResult(deviation, final_err, _circle_record(ts, phis, phihats, scenario.y0_angle))


# --- Monte Carlo sweeps ----------------------------------------------------

@dataclass
class MonteCarloResult:
    """Per-run summaries (deterministically ordered by run index) and the
    fraction of runs whose final error angle is below the threshold."""

    summaries: list[RunSummary]
    convergence_fraction: float
    threshold: float
    n_runs: int
    seed: int


def _hat_batch(B: np.ndarray) -> np.ndarray:
    H = np.zeros((len(B), 3, 3))
    H[:, 0, 1] = -B[:, 2]
    H[:, 0, 2] = B[:, 1]
    H[:, 1, 0] = B[:, 2]
    H[:, 1, 2] = -B[:, 0]
    H[:, 2, 0] = -B[:, 1]
    H[:, 2, 1] = B[:, 0]
    return H


def _group_exp_batch(W: np.ndarray) -> np.ndarray:
    t2 = np.sum(W * W, axis=1)
    small = t2 < 1e-8
    theta = np.sqrt(np.where(small, 1.0, t2))
    a = np.where(small, 1.0 - t2 / 6.0 * (1.0 - t2 / 20.0), np.sin(theta) / theta)
    b = np.where(small, 0.5 * (1.0 - t2 / 12.0 * (1.0 - t2 / 30.0)),
                 (1.0 - np.cos(theta)) / np.where(small, 1.0, t2))
    K = _hat_batch(W)
    K2 = np.matmul(K, K)
    return IDENTITY[None, :, :] + a[:, None, None] * K + b[:, None, None] * K2


def _orthonormalize_batch(M: np.ndarray) -> np.ndarray:
    U, _, Vt = np.linalg.svd(M)
    R = np.matmul(U, Vt)
    bad = np.linalg.det(R) < 0.0
    if np.any(bad):
        U = U.copy()
        U[bad, :, -1] *= -1.0
        R = np.matmul(U, Vt)
    return R


def _sample_observer_sphere(rng, n, y_plant) -> np.ndarray:
    """Uniform sphere points, redrawn while inside the antipodal cap."""
    Y = random_unit(rng, n)
    while True:
        bad = _angle_rows(Y, y_plant) > np.pi - ANTIPODAL_EXCLUSION
        if not np.any(bad):
            return Y
        Y[bad] = random_unit(rng, int(bad.sum()))


def _sample_observer_group(rng, n, y0v, y_plant) -> np.ndarray:
    X = random_rotation(rng, n)
    while True:
        out = np.einsum("nji,j->ni", X, y0v)
        out /= np.linalg.norm(out, axis=1, keepdims=True)
        bad = _angle_rows(out, y_plant) > np.pi - ANTIPODAL_EXCLUSION
        if not np.any(bad):
            return X
        X[bad] = random_rotation(rng, int(bad.sum()))


def monte_carlo(scenario, n_runs: int | None = None, seed: int | None = None) -> MonteCarloResult:
    """Sweep random observer initialisations (uniform on the sphere, or
    Haar-uniform on the group for lifted sweeps) under a shared plant and
    input.  Runs are propagated as one vectorised batch; summaries are ordered
    by run index and replay bit-identically from the seed."""
    mc = scenario.mc
    n = int(n_runs if n_runs is not None else (mc.runs if mc else 1000))
    if n < 1:
        raise ValueError("monte carlo needs n_runs >= 1")
    seed = int(seed if seed is not None else scenario.seed)
    threshold = float(mc.threshold) if mc else 1e-3
    space = mc.space if mc else "projected"
    rng = np.random.default_rng(seed)
    if space == "lifted":
        t_rec, theta, drift_rows = _mc_lifted(scenario, n, rng)
    else:
        t_rec, theta, drift_rows = _mc_projected(scenario, n, rng)
    summaries = []
    for i in range(n):
        row = theta[:, i]
        below = row < threshold
        t_conv = float(t_rec[int(np.argmax(below))]) if bool(below.any()) else None
        summaries.append(RunSummary(
            final_angle=float(row[-1]),
            t_converged=t_conv,
            fitted_rate=fit_rate(t_rec, row),
            max_drift=float(drift_rows[:, i].max()),
        ))
    frac = float(np.mean([s.final_angle < threshold for s in summaries]))
    return MonteCarloResult(summaries, frac, threshold, n, seed)


def _mc_projected(scenario, n, rng):
    inp = scenario.input
    k = scenario.k
    h = scenario.integrator.h
    n_steps = _n_steps(scenario.t_end, h)
    rec = _record_steps(n_steps, scenario.sample_every)
    rec_set = set(rec)
    y = scenario.initial_sphere_pair()[0]
    Yh = _sample_observer_sphere(rng, n, y)

    def field(t, y_, Yh_):
        uv = np.asarray(inp.eval(t), dtype=float)
        dy = -cross(uv, y_)
        dYh = -cross(uv, Yh_) + k * (y_[None, :] - Yh_ * (Yh_ @ y_)[:, None])
        return dy, dYh

    theta_rows = [_angle_rows(Yh, y)]
    drift_rows = [np.abs(np.linalg.norm(Yh, axis=1) - 1.0)]
    lie = scenario.integrator.method == "lie-euler"
    for i in range(n_steps):
        t = i * h
        if lie:
            uv = np.asarray(inp.eval(t), dtype=float)
            inn = k * (y[None, :] - Yh * (Yh @ y)[:, None])
            W = -uv[None, :] + cross(Yh, inn)
            Yh = np.einsum("nij,nj->ni", _group_exp_batch(h * W), Yh)
            y = group_exp(-h * uv) @ y
        else:
            k1y, k1Y = field(t, y, Yh)
            k2y, k2Y = field(t + 0.5 * h, y + 0.5 * h * k1y, Yh + 0.5 * h * k1Y)
            k3y, k3Y = field(t + 0.5 * h, y + 0.5 * h * k2y, Yh + 0.5 * h * k2Y)
            k4y, k4Y = field(t + h, y + h * k3y, Yh + h * k3Y)
            y = y + (h / 6.0) * (k1y + 2.0 * (k2y + k3y) + k4y)
            Yh = Yh + (h / 6.0) * (k1Y + 2.0 * (k2Y + k3Y) + k4Y)
        y = y / math.sqrt(float(y @ y))
        Yh = Yh / np.linalg.norm(Yh, axis=1, keepdims=True)
        if i + 1 in rec_set:
            if not (np.all(np.isfinite(y)) and np.all(np.isfinite(Yh))):
                raise SimulationAbort(f"non-finite state at t = {(i + 1) * h:.6g} s")
            theta_rows.append(_angle_rows(Yh, y))
            drift_rows.append(np.abs(np.linalg.norm(Yh, axis=1) - 1.0))
    t_rec = np.array([j * h for j in rec])
    return t_rec, np.array(theta_rows), np.array(drift_rows)


def _mc_lifted(scenario, n, rng):
    inp = scenario.input
    k = scenario.k
    y0v = scenario.y0_vec
    h = scenario.integrator.h
    n_steps = _n_steps(scenario.t_end, h)
    rec = _record_steps(n_steps, scenario.sample_every)
    rec_set = set(rec)
    X = scenario.initial_group_pair()[0]
    y_plant0 = act(X, y0v)
    Xh = _sample_observer_group(rng, n, y0v, y_plant0)

    def outputs(X_, Xh_):
        y_ = X_.T @ y0v
        y_ = y_ / math.sqrt(float(y_ @ y_))
        Yh_ = np.einsum("nji,j->ni", Xh_, y0v)
        Yh_ /= np.linalg.norm(Yh_, axis=1, keepdims=True)
        return y_, Yh_

    def field(t, X_, Xh_):
        uv = np.asarray(inp.eval(t), dtype=float)
        y_, Yh_ = outputs(X_, Xh_)
        B = uv[None, :] + k * cross(y_, Yh_)
        return X_ @ hat(uv), np.matmul(Xh_, _hat_batch(B))

    def snapshot(X_, Xh_):
        y_, Yh_ = outputs(X_, Xh_)
        th = _angle_rows(Yh_, y_)
        dr = np.linalg.norm(
            np.matmul(np.transpose(Xh_, (0, 2, 1)), Xh_) - IDENTITY, axis=(1, 2)
        )
        return th, dr

    th0, dr0 = snapshot(X, Xh)
    theta_rows, drift_rows = [th0], [dr0]
    lie = scenario.integrator.method == "lie-euler"
    for i in range(n_steps):
        t = i * h
        if lie:
            uv = np.asarray(inp.eval(t), dtype=float)
            y_, Yh_ = outputs(X, Xh)
            B = uv[None, :] + k * cross(y_, Yh_)
            X = compose(X, group_exp(h * uv))
            Xh = np.matmul(Xh, _group_exp_batch(h * B))
            bad = np.linalg.norm(
                np.matmul(np.transpose(Xh, (0, 2, 1)), Xh) - IDENTITY, axis=(1, 2)
            ) > 1e-12
            if np.any(bad):
                Xh[bad] = _orthonormalize_batch(Xh[bad])
        else:
            k1x, k1X = field(t, X, Xh)
            k2x, k2X = field(t + 0.5 * h, X + 0.5 * h * k1x, Xh + 0.5 * h * k1X)
            k3x, k3X = field(t + 0.5 * h, X + 0.5 * h * k2x, Xh + 0.5 * h * k2X)
            k4x, k4X = field(t + h, X + h * k3x, Xh + h * k3X)
            X = orthonormalize(X + (h / 6.0) * (k1x + 2.0 * (k2x + k3x) + k4x))
            Xh = _orthonormalize_batch(Xh + (h / 6.0) * (k1X + 2.0 * (k2X + k3X) + k4X))
        if i + 1 in rec_set:
            if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Xh))):
                raise SimulationAbort(f"non-finite state at t = {(i + 1) * h:.6g} s")
            th, dr = snapshot(X, Xh)
            theta_rows.append(th)
            drift_rows.append(dr)
    t_rec = np.array([j * h for j in rec])
    return t_rec, np.array(theta_rows), np.array(drift_rows)
