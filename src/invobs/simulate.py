"""Time integration of plant/observer pairs, Monte Carlo sweeps, run metrics.

Two integrators are provided.  ``lie-euler`` advances group states by
``X <- X @ group_exp(h * A)`` (and sphere states by the induced exact
rotation), so states never leave the manifold beyond exponential accuracy.
``rk4-project`` is classical four-stage stepping in the embedding followed by
one Björck retraction step (group) or renormalisation (sphere); it is the default
since the continuous-time theory says nothing about discretisation and fourth
order keeps the integrator far below every property tolerance.

Both integrators live in one time loop, ``_integrate``, which steps one
state array.  The input does not depend on the state, so the loop takes the
input's rate function and evaluates it for a block of steps at once, at
every stage time of the block, before stepping through them.  Every run
(projected, lifted, each Monte Carlo sweep and each batch of verify runs)
is a pair on it, a function of the input and the state alone: a velocity
field and body rates of (u, state), the error angle of each observer, and
its state space's retraction, Lie-Euler update and drift measure.  The
plant and every observer obey the same kinematics, so a pair's state is one
stacked array whose row axis holds the plant first and its observers after
it: (1 + n, 3) on the sphere, (1 + n, 3, 3) on the group, and (runs, 2, 3)
for a batch with one plant and input per run.  One call of a public pair
field moves every row: the sphere pair steps ``projected_pair_field``
(``projected_pair_rates`` under Lie-Euler), the group pair
``plant_vector_field`` of the rates ``projected_pair_rates`` gives at its
outputs.  Co-simulation is two runs, the group pair and the sphere pair
started on its outputs, compared sample by sample.  An so2-s1 document
steps the same pairs, restricted to rotations about the z axis by its
scenario.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import circle
from .observer import (
    SphereCost,
    error_angle,
    error_angle_closed_form,
    projected_pair_field,
    projected_pair_rates,
)
from .so3 import _actor, _sum_squares, act, compose, drift, group_exp, hat, orthonormalize, unit
from .sampling import random_rotation, random_unit
from .systems import plant_vector_field

ANTIPODAL_EXCLUSION = 0.01  # rad; Monte Carlo cap around the antipode
RATE_WINDOW = (1e-6, 0.1)   # rad; log-linear fit window for the decay rate
CONVERGENCE_THRESHOLD = 1e-3  # rad; final-angle threshold of runs, a sweep's default
MIN_RATE_SAMPLES = 10
ORTHOGONALITY_TOL = 1e-9  # drift beyond which a state has left SO(3) or S^2
# Steps per input table: hat tables for all of scenario.MAX_STEPS (1e8) RK4
# steps at once would take 22 GB.
BLOCK_STEPS = 1024
# Angles per chunk of rows of a sweep's summaries (512 KB of float64): the rate
# fit's work arrays then hold one chunk, not the whole angle history again.
SUMMARY_VALUES = 2 ** 16


class SimulationAbort(RuntimeError):
    """A recorded state is non-finite, or its pair's observed drift exceeds
    ORTHOGONALITY_TOL: a rotation off SO(3) or a direction off S^2."""


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
    holds the co-simulation's output gap per sample when present.
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
    # It is C-ordered whatever the layout of theta, so that every row is
    # reduced as a contiguous row: a sweep's rows, strided columns of its
    # angle history, then round as a single run's row does.
    work = np.empty(theta.shape)
    np.multiply(t, mask, out=work)
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


def summarize(record: TrajectoryRecord) -> RunSummary:
    return _summaries(record.t, record.theta[None], record.drift.max(keepdims=True),
                      CONVERGENCE_THRESHOLD)[0]


def _summaries(t, theta, max_drift, threshold) -> list[RunSummary]:
    """One summary per row of theta (a run's samples along the last axis)
    and entry of max_drift (its worst drift), worked out in chunks of rows
    of about SUMMARY_VALUES angles, so that the work arrays do not grow
    with the sweep."""
    out = []
    size = max(SUMMARY_VALUES // theta.shape[-1], 1)
    edges = [*range(0, len(theta), size), len(theta)]
    for lo, hi in zip(edges, edges[1:]):
        rows = theta[lo:hi]
        below = rows < threshold
        t_conv = np.where(below.any(axis=-1), t[np.argmax(below, axis=-1)], np.nan)
        # Angles and drifts are finite (the stepping checks them); NaN marks
        # "none", and is the one float v with v != v.
        columns = (rows[:, -1], t_conv, _fit_rates(t, rows), max_drift[lo:hi])
        out += [RunSummary(*(None if v != v else v for v in row))
                for row in zip(*(c.tolist() for c in columns))]
    return out


def closed_form_deviation(record: TrajectoryRecord, k: float) -> float | None:
    """Worst gap between the recorded error angle and the autonomous decay law
    started from the recorded initial angle.  None when the run starts at the
    antipodal equilibrium, where the law is the constant pi; the verify
    suite's antipodal stationarity property checks that case."""
    theta0 = float(record.theta[0])
    if theta0 >= np.pi:
        return None
    law = error_angle_closed_form(theta0, k, record.t)
    return float(np.max(np.abs(record.theta - law)))


def _n_steps(t_end: float, h: float) -> int:
    """Steps of size h spanning t_end; parsing admits only whole multiples."""
    return round(t_end / h)


def _n_records(n: int, every: int) -> int:
    """Samples of an n-step run: the initial state, each stride and the last step."""
    return -(-n // every) + 1


# A plant-observer pair on the stepping engine (see _integrate): a function
# of the input and the state.  ``drive`` maps a table of inputs to the table
# its RK4 ``field`` takes, ``rates`` gives the body rates of a Lie-Euler step
# and ``observe`` the error angle of each observer row.  Over leading axes,
# ``retract`` is the retraction after an RK4 step, ``lie_step`` the
# Lie-Euler update by the step-scaled body rates hw (group rows move to
# X exp(hw), sphere rows to act(exp(hw), y)), and ``drift`` the drift
# measure of each row, which the state guard checks; they look the
# primitives up per call, so a replaced module attribute takes effect.
_Pair = namedtuple("_Pair", "drive field rates observe retract lie_step drift")


def _ahead(state, dt, k):
    """state + dt * k, bit for bit, with the product as its one temporary."""
    out = k * dt
    out += state
    return out


def _integrate(scenario, rate, pair, state, keep_states):
    """Advance a pair's state array over the scenario's horizon, driven by
    the input ``rate(t, at)``, and return the recorded times, error angles
    and drifts, followed by the recorded states when ``keep_states`` is set.

    The state holds the plant and its observers along its row axis (axis -2
    of a sphere stack, -3 of a group stack), plant first, and may carry a
    leading run axis.  The primitives broadcast over the rows, and the angle
    and drift rows carry one entry per observer row.
    The loop is the one place that samples the input, BLOCK_STEPS steps at
    a time: one ``rate`` call takes the table of every distinct stage time
    of the block (i h, i h + h/2 and i h + h of step i for RK4, i h for
    Lie-Euler) over leading axes of t, each in the input segment of the
    step's midpoint ``at``, which neither i h nor i h + h can round across,
    and the steps then index its rows.  ``scenario.body_rates`` drives a
    single run or a sweep; a batch of runs passes a function stacking its
    inputs' rates.  ``pair.field(v, state)`` gives the state's velocity in
    the embedding at a row v of ``pair.drive`` of the RK4 table,
    ``pair.rates(u, state)`` its body rates for one Lie-Euler step at a row
    u of the table.  The initial state, every ``sample_every``-th step and
    the last step are recorded.  Each recorded state must be finite; its
    error angles are ``pair.observe(state)``, and its drift, per observer
    row the worse of the plant row's ``pair.drift`` and its own, is computed
    once: it is what the record reports and what must stay within
    ORTHOGONALITY_TOL, since the retraction after a step can only keep a
    state on SO(3) or S^2, not restore it.

    Each record is written into arrays allocated for the record count
    ``_n_records``.  Without ``keep_states`` (a sweep or a batch of runs)
    the drift returned is each observer row's worst over the records, kept
    as one running maximum, so the angle history is the only array that
    grows with the samples: a 2000-run, 1501-sample sweep traces a peak of
    1.06 times its 24 MB angle history, summaries included.
    """
    h = scenario.integrator.h
    n = _n_steps(scenario.t_end, h)
    every = scenario.sample_every
    rk4 = scenario.integrator.method == "rk4-project"
    drive, field, rates, observe, retract, lie_step, measure = pair
    count = _n_records(n, every)
    times = np.empty(count)
    cols = []
    filled = 0

    def record(t, state):
        nonlocal filled
        if not np.isfinite(state).all():
            raise SimulationAbort(f"non-finite state at t = {t:.6g} s")
        m = measure(state)  # per row; per observer row the worse of the plant's and its own
        drift_ = np.maximum(m[..., :1], m[..., 1:])
        worst = drift_.max()
        if worst > ORTHOGONALITY_TOL:
            raise SimulationAbort(f"state left SO(3) or S^2 (drift {worst:.3g}) at t = {t:.6g} s")
        row = (observe(state), drift_, state) if keep_states else (observe(state),)
        if not cols:  # the first record fixes the shapes
            cols.extend(np.empty((count,) + v.shape) for v in row)
            if not keep_states:
                cols.append(drift_)  # a batch's worst drift so far, per row
        elif not keep_states:
            np.maximum(cols[1], drift_, out=cols[1])
        times[filled] = t
        for col, v in zip(cols, row):
            col[filled] = v
        filled += 1

    record(0.0, state)
    for start in range(0, n, BLOCK_STEPS):
        steps = range(start, min(start + BLOCK_STEPS, n))
        t = np.arange(steps.start, steps.stop) * h  # i h, as the float i * h
        mid = t + 0.5 * h  # every stage of a step takes its midpoint's segment
        if rk4:
            # (steps, 3, ...): the drive at i h, i h + h/2 and i h + h, not
            # (i + 1) h, which can differ in the last bit.
            table = drive(rate(np.stack((t, mid, t + h), axis=1), mid[:, None]))
        else:
            table = rate(t, mid)
        for i, v in zip(steps, table):
            if rk4:
                k1 = field(v[0], state)
                k2 = field(v[1], _ahead(state, 0.5 * h, k1))
                k3 = field(v[1], _ahead(state, 0.5 * h, k2))
                # k1 + 2 (k2 + k3) + k4 accumulated in place, in that order.
                slope = k2 + k3
                slope *= 2.0
                slope += k1
                slope += field(v[2], _ahead(state, h, k3))
                slope *= h / 6.0
                slope += state
                state = retract(slope)
            else:
                state = lie_step(state, h * rates(v, state))
            if (i + 1) % every == 0 or i + 1 == n:
                record((i + 1) * h, state)
    if filled != count:
        raise RuntimeError(f"recorded {filled} of {count} samples")
    return [times, *cols]


# --- pairs: stacked [y, yhat...] on the sphere, [X, Xhat...] on the group -----

def _sphere_pair(cost) -> _Pair:
    """A stacked sphere pair (see projected_pair_field): the plant row and
    sphere observer rows, which run the internal model alone without a
    cost.  Its RK4 field takes the generators hat(u), built for a whole
    table of inputs in one call on the table flattened to (rows, 3): a dot
    of more than two dimensions loops row by row instead of calling BLAS."""
    return _Pair(lambda U: hat(U.reshape(-1, 3)).reshape(U.shape + (3,)),
                 lambda H, S: projected_pair_field(cost, S, H),
                 lambda u, S: projected_pair_rates(cost, S, u),
                 lambda S: error_angle(S[..., 1:, :], S[..., :1, :]),
                 lambda v: unit(v), lambda y, hw: act(group_exp(hw), y),
                 lambda y: np.abs(np.sqrt(_sum_squares(y)) - 1.0))


def _group_pair(cost, y0v) -> _Pair:
    """A stacked group pair: the plant and lifted observers.  Its body rates
    are those of the sphere pair of its outputs act(G, y0): the input, and
    for each observer the input minus the horizontal lift of the cost
    gradient.  The outputs act(G, y0) take the action's matrix built once
    for the pair."""
    outputs = _actor(y0v)

    def rates(u, G):
        return projected_pair_rates(cost, outputs(G), u)

    def observe(G):
        # The output error angle, equal to the canonical-error angle of the
        # right-invariant group error since the action is by orthogonal matrices.
        O = outputs(G)
        return error_angle(O[..., 1:, :], O[..., :1, :])

    return _Pair(lambda u: u, lambda u, G: plant_vector_field(G, rates(u, G)), rates, observe,
                 lambda X: orthonormalize(X), lambda X, hw: compose(X, group_exp(hw)),
                 lambda X: drift(X))


def simulate_projected(scenario) -> TrajectoryRecord:
    """Integrate the projected plant and sphere observer as one (2, 3) pair
    stack, with the invariant cost at the scenario gain; synchrony mode
    disables the innovation entirely."""
    cost = None if scenario.mode == "synchrony" else SphereCost(scenario.k)
    S0 = scenario.initial_sphere_pair()
    t, theta, drift_, S = _integrate(scenario, scenario.body_rates, _sphere_pair(cost), S0, True)
    return TrajectoryRecord(t, S[:, 0], S[:, 1], theta[:, 0], drift_[:, 0])


def simulate_lifted(scenario) -> TrajectoryRecord:
    """Integrate plant and observer on the group as one (2, 3, 3) pair stack;
    the error angle is the angle between their outputs act(G, y0), equal to
    that of the canonical error act(Xhat X^T, y0) to y0."""
    y0v = scenario.y0_vec
    pair = _group_pair(SphereCost(scenario.k), y0v)
    t, theta, drift_, G = _integrate(scenario, scenario.body_rates, pair,
                                     scenario.initial_group_pair(), True)
    X, Xh = G[:, 0], G[:, 1]
    return TrajectoryRecord(t, act(X, y0v), act(Xh, y0v), theta[:, 0], drift_[:, 0], X=X, Xhat=Xh)


def simulate_cosim(scenario) -> TrajectoryRecord:
    """Run the group pair and the sphere pair from matching initial
    conditions, the sphere pair started on the group pair's outputs
    act(G0, y0), and record per sample the worse of the plant-output gap
    ||act(X, y0) - y|| and the observer-output gap ||act(Xhat, y0) - yhat||.
    The record holds the group pair's run; its drift is the worse of the two
    runs' drifts."""
    y0v = scenario.y0_vec
    rate, cost = scenario.body_rates, SphereCost(scenario.k)
    G0 = scenario.initial_group_pair()
    t, theta, drift_, G = _integrate(scenario, rate, _group_pair(cost, y0v), G0, True)
    _, _, drift_s, S = _integrate(scenario, rate, _sphere_pair(cost), act(G0, y0v), True)
    X, Xh = G[:, 0], G[:, 1]
    y, yhat = act(X, y0v), act(Xh, y0v)
    gap = np.maximum(np.linalg.norm(y - S[:, 0], axis=1), np.linalg.norm(yhat - S[:, 1], axis=1))
    return TrajectoryRecord(t, y, yhat, theta[:, 0], np.maximum(drift_, drift_s)[:, 0],
                            X=X, Xhat=Xh, consistency=gap)


def _simulate(scenario) -> TrajectoryRecord:
    """A single run in the scenario's mode, of either instance."""
    if scenario.mode == "lifted":
        return simulate_lifted(scenario)
    if scenario.mode == "co-sim":
        return simulate_cosim(scenario)
    return simulate_projected(scenario)  # projected, synchrony, and verify's oracle run


# --- circle instance -------------------------------------------------------

def simulate_circle(scenario) -> TrajectoryRecord:
    """An so2-s1 run: the planar restriction of the so3-s2 pair of its mode."""
    return _simulate(scenario)


@dataclass
class So2OracleResult:
    """Worst gaps of the simulated circle observer and plant to the exact
    solution, plus the final full-state error (the stabiliser is trivial, so
    the state estimate itself must converge)."""

    observer_deviation: float
    plant_deviation: float
    final_state_error: float
    record: TrajectoryRecord

    @property
    def worst_deviation(self) -> float:  # NaN if either gap is
        return float(np.maximum(self.observer_deviation, self.plant_deviation))


def so2_oracle_run(scenario) -> So2OracleResult:
    """Compare a simulated so2-s1 run against the exact solution.

    The plant and observer angles are read back from the recorded outputs,
    which are the equator points at y0 - phi and y0 - phihat.  The exact plant
    angle integrates the input in closed form; the observer error
    delta = phi - phihat obeys delta' = -k sin(delta) with the explicit
    solution used on the sphere, so the oracle never touches the integrator.
    """
    rec = _simulate(scenario)
    phis, phihats = (scenario.y0_angle - np.arctan2(v[:, 1], v[:, 0]) for v in (rec.y, rec.yhat))
    phi0, phihat0 = scenario.initial_angle_pair()
    exact_phi = phi0 + scenario.input.integral(rec.t)[:, 0]
    delta0 = circle.wrap(phi0 - phihat0)
    delta = error_angle_closed_form(delta0, scenario.k, rec.t)
    exact_phihat = exact_phi - delta
    gaps = np.abs(circle.wrap(np.stack((phihats - exact_phihat, phis - exact_phi))))
    final_err = float(abs(circle.wrap(phihats[-1] - phis[-1])))
    return So2OracleResult(*np.max(gaps, axis=1).tolist(), final_err, rec)


# --- Monte Carlo sweeps ----------------------------------------------------

@dataclass
class MonteCarloResult:
    """Per-run summaries (deterministically ordered by run index) and the
    fraction of runs whose final error angle is below the scenario's
    ``mc.threshold``."""

    summaries: list[RunSummary]
    convergence_fraction: float


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
        plant = scenario.initial_group_pair()[0]
        observers = _sample_observers(rng, mc.runs, random_rotation, lambda S: act(S, y0v),
                                      act(plant, y0v))
        pair = _group_pair(cost, y0v)
    else:
        plant = scenario.initial_sphere_pair()[0]
        observers = _sample_observers(rng, mc.runs, random_unit, lambda S: S, plant)
        pair = _sphere_pair(cost)
    # The plant on top of the runs' observers is one pair stack.  The sweep
    # keeps the (samples, runs) angle history and each run's worst drift,
    # not the states: a 1000-run, 1501-sample sweep peaks at 1.09 times its
    # 12 MB history under tracemalloc.
    state = np.concatenate((plant[None], observers))
    t_rec, theta, max_drift = _integrate(scenario, scenario.body_rates, pair, state, False)
    summaries = _summaries(t_rec, theta.T, max_drift, mc.threshold)
    frac = float(np.mean([s.final_angle < mc.threshold for s in summaries]))
    return MonteCarloResult(summaries, frac)
