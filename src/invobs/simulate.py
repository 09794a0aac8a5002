"""Time integration of plant/observer pairs, Monte Carlo sweeps, run metrics.

Two integrators are provided.  ``lie-euler`` advances group states by
``X <- X @ group_exp(h * A)`` (and sphere states by the induced exact
rotation), so states never leave the manifold beyond exponential accuracy.
``rk4-project`` is classical four-stage stepping in the embedding followed by
one Björck retraction step (group) or renormalisation (sphere); it is the default
since the continuous-time theory says nothing about discretisation and fourth
order keeps the integrator far below every property tolerance.

Both integrators live in one time loop, ``_integrate``.  Every run (projected,
lifted, co-simulation, circle, and each Monte Carlo sweep) is a pair on it: a
velocity field, a rates function and an observation over a list of sphere,
group or angle components, where a sweep's observer component carries the
batch axis.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import circle
from .observer import (
    SphereCost,
    canonical_error_from_group,
    error_angle,
    error_angle_closed_form,
    lifted_observer_field,
    observer_body_rate,
    projected_observer_field,
)
from .so3 import act, compose, drift, group_exp, orthonormalize, unit
from .sampling import random_rotation, random_unit
from .systems import plant_vector_field, project_dynamics

ANTIPODAL_EXCLUSION = 0.01  # rad; Monte Carlo cap around the antipode
RATE_WINDOW = (1e-6, 0.1)   # rad; log-linear fit window for the decay rate
CONVERGENCE_THRESHOLD = 1e-3  # rad; default final-angle threshold of runs and sweeps
MIN_RATE_SAMPLES = 10
ORTHOGONALITY_TOL = 1e-9  # drift beyond which a group state has left SO(3)


class SimulationAbort(RuntimeError):
    """A trajectory produced a non-finite state or a rotation off SO(3)."""


@dataclass(frozen=True)
class IntegratorSpec:
    """Stepping method and fixed step size in seconds."""

    method: str = "rk4-project"
    h: float = 1e-3

    def __post_init__(self):
        if self.method not in ("rk4-project", "lie-euler"):
            raise ValueError(f"method must be rk4-project or lie-euler, not {self.method!r}")
        if not (np.isfinite(self.h) and 0.0 < self.h <= 1e-2):
            raise ValueError("h must lie in (0, 0.01] seconds")


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


def _fit_rates(t, theta) -> np.ndarray:
    """Decay rates of the rows of theta (samples along the last axis): minus the
    least-squares slope of log(theta) over RATE_WINDOW, solved in closed form
    about the window's mean; NaN where fit_rate gives None."""
    mask = (theta > RATE_WINDOW[0]) & (theta < RATE_WINDOW[1])
    count = mask.sum(axis=-1)
    enough = count >= MIN_RATE_SAMPLES
    n = np.maximum(count, 1)[..., None]
    # One work array, zero outside the window: the centred times, then the centred logs.
    work = np.where(mask, t, 0.0)
    t_mean = work.sum(axis=-1, keepdims=True) / n
    np.subtract(work, t_mean, out=work, where=mask)
    var = np.einsum("...i,...i->...", work, work)
    np.log(theta, out=work, where=mask)
    np.subtract(work, work.sum(axis=-1, keepdims=True) / n, out=work, where=mask)
    # sum(centred log x centred t) = sum(centred log x t) - t_mean sum(centred log)
    cov = np.einsum("...i,i->...", work, t) - t_mean[..., 0] * work.sum(axis=-1)
    return np.where(enough, -cov / np.where(enough, var, 1.0), np.nan)


def fit_rate(t, theta) -> float | None:
    """Least-squares decay rate of log(theta) over the small-angle window.

    The window is RATE_WINDOW: below its floor the angle is dominated by
    arccos rounding noise and the log-fit would be meaningless.  Returns None
    with fewer than MIN_RATE_SAMPLES samples in the window.
    """
    rate = float(_fit_rates(np.asarray(t, dtype=float), np.asarray(theta, dtype=float)))
    return None if np.isnan(rate) else rate


def summarize(record: TrajectoryRecord, threshold: float = CONVERGENCE_THRESHOLD) -> RunSummary:
    return _summaries(record.t, record.theta[None], record.drift[None], threshold)[0]


def _summaries(t, theta, drift_, threshold) -> list[RunSummary]:
    """One summary per row of theta and drift_ (a run's samples along the
    last axis)."""
    below = theta < threshold
    t_conv = np.where(below.any(axis=-1), t[np.argmax(below, axis=-1)], np.nan)
    # Angles and drifts are finite (the stepping checks them); NaN marks "none".
    columns = zip(theta[:, -1], t_conv, _fit_rates(t, theta), drift_.max(axis=-1))
    return [RunSummary(*(None if np.isnan(v) else float(v) for v in row)) for row in columns]


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


def _check_state(t: float, kinds, state):
    for kind, a in zip(kinds, state):
        if not np.all(np.isfinite(a)):
            raise SimulationAbort(f"non-finite state at t = {t:.6g} s")
        worst = np.max(drift(a)) if kind == "group" else 0.0
        if worst > ORTHOGONALITY_TOL:
            raise SimulationAbort(f"rotation state left SO(3) (drift {worst:.3g}) at t = {t:.6g} s")


# Per component kind: the retraction after an RK4 step, and the Lie-Euler
# update by the step-scaled rate hw: a body rate moves a group state to
# X exp(hw) and a sphere state to act(exp(hw), y).  The primitives are looked
# up per call, so a replaced module attribute takes effect.
_RETRACT = {
    "sphere": lambda v: unit(v),
    "group": lambda X: orthonormalize(X),
    "angle": lambda s: s,
}
_LIE_STEP = {
    "sphere": lambda y, hw: act(group_exp(hw), y),
    "group": lambda X, hw: compose(X, group_exp(hw)),
    "angle": lambda s, hw: s + hw,
}


# A plant-observer pair on the stepping engine (see _integrate); ``observe``
# maps a state to its error angle and drift, over leading axes.
_Pair = namedtuple("_Pair", "kinds field rates observe", defaults=(None,))


def _integrate(scenario, pair, state, record):
    """Advance a pair's list of state components over the scenario's horizon.

    ``pair.kinds`` names each component's space: "sphere" (unit vectors),
    "group" (rotation matrices) or "angle" (circle angles).  A component may
    carry leading batch axes; the primitives broadcast over them.
    ``pair.field(t, state)`` gives each component's velocity in the embedding,
    ``pair.rates(t, state)`` each component's rate for one Lie-Euler step
    (body rate on the group and the sphere, angular rate on the circle).
    ``record(t, state)`` sees the initial state, every ``sample_every``-th
    step and the last step, each checked first: finite, and each group
    component within ORTHOGONALITY_TOL of SO(3), which the retraction after
    a step can only keep, not restore.
    """
    h = scenario.integrator.h
    n = _n_steps(scenario.t_end, h)
    every = scenario.sample_every
    rk4 = scenario.integrator.method == "rk4-project"
    kinds, rk4_field, lie_rates, _ = pair
    retract = [_RETRACT[k] for k in kinds]
    lie_step = [_LIE_STEP[k] for k in kinds]
    state = list(state)
    _check_state(0.0, kinds, state)
    record(0.0, state)
    for i in range(n):
        t = i * h
        if rk4:
            k1 = rk4_field(t, state)
            k2 = rk4_field(t + 0.5 * h, [s + 0.5 * h * d for s, d in zip(state, k1)])
            k3 = rk4_field(t + 0.5 * h, [s + 0.5 * h * d for s, d in zip(state, k2)])
            k4 = rk4_field(t + h, [s + h * d for s, d in zip(state, k3)])
            state = [f(s + (h / 6.0) * (a + 2.0 * (b + c) + d))
                     for f, s, a, b, c, d in zip(retract, state, k1, k2, k3, k4)]
        else:
            state = [f(s, h * w) for f, s, w in zip(lie_step, state, lie_rates(t, state))]
        if (i + 1) % every == 0 or i + 1 == n:
            t = (i + 1) * h
            _check_state(t, kinds, state)
            record(t, state)


def _samples(scenario, pair, state, keep=lambda s: s):
    """Integrate and return the recorded times and the samples of each
    quantity ``keep`` takes from the state (by default every component)."""
    rows = []
    _integrate(scenario, pair, state, lambda t, s: rows.append((t, *keep(s))))
    return [np.array(col) for col in zip(*rows)]


# --- pairs: y and yhat on the sphere, X and Xhat on the group ----------------

def _sphere_pair(inp, cost) -> _Pair:
    """Plant y and sphere observer yhat (the internal model alone without a
    cost); yhat may be an (n, 3) batch."""
    def field(t, s):
        u = inp.eval(t)
        yh_dot = (project_dynamics(s[1], u) if cost is None
                  else projected_observer_field(cost, s[1], s[0], u))
        return [project_dynamics(s[0], u), yh_dot]

    def rates(t, s):
        u = np.asarray(inp.eval(t), dtype=float)
        return [u, u if cost is None else observer_body_rate(cost, s[1], s[0], u)]

    def observe(s):
        y_defect, yh_defect = (np.abs(np.linalg.norm(c, axis=-1) - 1.0) for c in s)
        return error_angle(s[1], s[0]), np.maximum(y_defect, yh_defect)

    return _Pair(("sphere", "sphere"), field, rates, observe)


def _group_pair(inp, cost, y0v, cosim=False) -> _Pair:
    """Plant X and lifted observer Xhat, whose body rate is the input minus the
    horizontal lift of the cost gradient; Xhat may be an (n, 3, 3) batch.  With
    ``cosim`` a third component is a sphere observer driven by the plant
    output (co-simulation)."""
    def body_rates(t, s):
        u = np.asarray(inp.eval(t), dtype=float)
        y = act(s[0], y0v)
        return u, y, lifted_observer_field(cost, s[1], y, u, y0v)

    def field(t, s):
        u, y, u_ob = body_rates(t, s)
        out = [plant_vector_field(s[0], u), plant_vector_field(s[1], u_ob)]
        return out + [projected_observer_field(cost, s[2], y, u)] if cosim else out

    def rates(t, s):
        u, y, u_ob = body_rates(t, s)
        out = [u, u_ob]
        return out + [observer_body_rate(cost, s[2], y, u)] if cosim else out

    def observe(s):
        # Canonical-error angle from the right-invariant group error; equal to
        # the output error angle since the action is by orthogonal matrices.
        theta = error_angle(canonical_error_from_group(s[1], s[0], y0v), y0v)
        return theta, np.maximum(drift(s[0]), drift(s[1]))

    return _Pair(("group", "group") + ("sphere",) * cosim, field, rates, observe)


def simulate_projected(scenario, cost=None) -> TrajectoryRecord:
    """Integrate the projected plant and sphere observer side by side.

    ``cost`` overrides the innovation (used by the negative controls); by
    default the invariant cost with the scenario gain is used, and synchrony
    mode disables the innovation entirely.
    """
    if cost is None and scenario.mode != "synchrony":
        cost = SphereCost(scenario.k)
    pair = _sphere_pair(scenario.input, cost)
    t, y, yhat = _samples(scenario, pair, scenario.initial_sphere_pair())
    return TrajectoryRecord(t, y, yhat, *pair.observe((y, yhat)))


def simulate_lifted(scenario) -> TrajectoryRecord:
    """Integrate plant and observer on the group; the error angle is derived
    from the right-invariant group error."""
    y0v = scenario.y0_vec
    pair = _group_pair(scenario.input, SphereCost(scenario.k), y0v)
    t, X, Xh = _samples(scenario, pair, scenario.initial_group_pair())
    return TrajectoryRecord(t, act(X, y0v), act(Xh, y0v), *pair.observe((X, Xh)), X=X, Xhat=Xh)


def simulate_cosim(scenario) -> TrajectoryRecord:
    """Run the group observer and the sphere observer side by side from
    matching initial conditions and record how far the group observer's output
    strays from the directly integrated sphere observer."""
    y0v = scenario.y0_vec
    pair = _group_pair(scenario.input, SphereCost(scenario.k), y0v, cosim=True)
    X, Xhat = scenario.initial_group_pair()
    # The sphere observer starts on the group observer's output.
    t, X, Xh, yp = _samples(scenario, pair, (X, Xhat, act(Xhat, y0v)))
    yhat = act(Xh, y0v)
    return TrajectoryRecord(t, act(X, y0v), yhat, *pair.observe((X, Xh)), X=X, Xhat=Xh,
                            consistency=np.linalg.norm(yhat - yp, axis=1))


# --- circle instance -------------------------------------------------------

@dataclass
class So2OracleResult:
    """Gap between the simulated circle observer and the scalar closed form,
    plus the final full-state error (the stabiliser is trivial, so the state
    estimate itself must converge)."""

    max_deviation: float
    final_state_error: float
    record: TrajectoryRecord


def _circle_samples(scenario, innovation: bool, output_angle: bool = False):
    """Times, plant angles and observer angles of a circle run.  With
    ``output_angle`` the pair is also integrated directly in the output
    variables y = y0 - phi and yhat = y0 - phihat, whose samples follow."""
    inp = scenario.input
    k = scenario.k if innovation else 0.0
    phi, phihat = scenario.initial_angle_pair()
    state = [phi, phihat]
    if output_angle:
        state += [scenario.y0_angle - phi, scenario.y0_angle - phihat]

    def rates(t, s):
        u = float(inp.eval(t)[0])
        out = [u, u + k * np.sin(s[0] - s[1])]
        return out if len(s) == 2 else out + [-u, -u - k * np.sin(s[3] - s[2])]

    return _samples(scenario, _Pair(("angle",) * len(state), rates, rates), state)


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
    cosim = scenario.mode == "co-sim"
    ts, phis, phihats, *output = _circle_samples(scenario, scenario.mode != "synchrony", cosim)
    rec = _circle_record(ts, phis, phihats, scenario.y0_angle)
    if cosim:
        # The output-angle observer is related to the group observer by an
        # affine change of variables, which fixed-step RK4 commutes with; the
        # residual is pure rounding.
        yhat_angle = circle.wrap(scenario.y0_angle - phihats)
        rec.consistency = np.abs(circle.wrap(yhat_angle - circle.wrap(output[1])))
    return rec


def so2_oracle_run(scenario) -> So2OracleResult:
    """Compare the simulated circle observer against the exact solution.

    The plant angle integrates the input in closed form; the observer error
    delta = phi - phihat obeys delta' = -k sin(delta) with the explicit
    solution used on the sphere, so the oracle never touches the integrator.
    """
    ts, phis, phihats = _circle_samples(scenario, innovation=True)
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


def _sample_observers(rng, n, draw, output, y_plant) -> np.ndarray:
    """n draws of draw(rng, k) (sphere points or rotations), each redrawn
    while its output lies inside the antipodal cap around y_plant."""
    S = draw(rng, n)
    while True:
        bad = error_angle(output(S), y_plant) > np.pi - ANTIPODAL_EXCLUSION
        if not np.any(bad):
            return S
        S[bad] = draw(rng, int(bad.sum()))


def monte_carlo(scenario) -> MonteCarloResult:
    """Sweep random observer initialisations (uniform on the sphere, or
    Haar-uniform on the group for lifted sweeps) under a shared plant and
    input.  The runs are one batch axis of the observer state, stepped and
    observed by the same pair as a single run; summaries are ordered by run
    index and replay bit-identically from the seed."""
    mc = scenario.mc
    rng = np.random.default_rng(scenario.seed)
    cost = SphereCost(scenario.k)
    y0v = scenario.y0_vec
    if mc.space == "lifted":
        X = scenario.initial_group_pair()[0]
        state = (X, _sample_observers(rng, mc.runs, random_rotation, lambda S: act(S, y0v),
                                      act(X, y0v)))
        pair = _group_pair(scenario.input, cost, y0v)
    else:
        y = scenario.initial_sphere_pair()[0]
        state = (y, _sample_observers(rng, mc.runs, random_unit, lambda S: S, y))
        pair = _sphere_pair(scenario.input, cost)
    # Only the per-run angle and drift rows are kept at each sample, not the states.
    t_rec, theta, drift_rows = _samples(scenario, pair, state, pair.observe)
    summaries = _summaries(t_rec, theta.T, drift_rows.T, mc.threshold)
    frac = float(np.mean([s.final_angle < mc.threshold for s in summaries]))
    return MonteCarloResult(summaries, frac, mc.threshold, mc.runs, scenario.seed)
