"""Gradient-innovation observers on the sphere and their lift to the group.

The observer splits into an internal model (a copy of the projected plant)
plus an innovation that vanishes when the estimated output matches the
measurement.  Taking the innovation as minus the Riemannian gradient of an
invariant cost makes the error-angle dynamics autonomous and almost globally
contracting; lifting the innovation horizontally gives the matching group
observer.  This module holds the cost functions, their gradients and
body-rate innovations (``rate``, yhat x grad1; the invariant cost's is the
closed form k * (y x yhat)), the observer fields, the pair fields that move
a plant and its observers stacked in one array, the horizontal lift of
tangent vectors (plain arrays orthogonal to their base output), canonical
errors, the closed form of the scalar error law theta' = -k sin(theta) that
both instances obey, and the runtime verification predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sampling import _draws, random_rotation, random_unit
from .systems import project_dynamics
from .so3 import (
    _sum_squares,
    act,
    cross,
    hat,
    section,
    unit,
    vee,
)

FD_EPS = 1e-6  # central-difference step shared by every oracle check


@dataclass(frozen=True)
class SphereCost:
    """Invariant cost k * (1 - <yhat, y>), equal to (k/2)||yhat - y||^2.

    The gain sets the exponential contraction rate of the error angle.  An
    array of gains gives ``grad1`` and ``rate`` one gain per row of a batch:
    (n, 1) for (n, 3) rows, (runs, 1, 1) for the observer rows of a
    (runs, 2, 3) pair.
    """

    k: float | np.ndarray = 1.0

    def __post_init__(self):
        if not np.all((np.asarray(self.k) > 0.0) & np.isfinite(self.k)):
            raise ValueError("gain k must be positive and finite")

    def value(self, yhat, y) -> float:
        return self.k * (1.0 - float(np.dot(yhat, y)))

    def grad1(self, yhat, y) -> np.ndarray:
        """Gradient in the first slot under the embedded sphere metric, over
        leading axes of either argument."""
        yhat = np.asarray(yhat)
        y = np.asarray(y, dtype=float)
        dot = yhat.dot(y) if y.ndim == 1 else np.einsum("...i,...i->...", yhat, y)
        # -k (y - yhat <yhat, y>), built in the one temporary yhat <yhat, y>.
        g = yhat * dot[..., None]
        np.subtract(y, g, out=g)
        g *= -self.k
        return g

    def rate(self, yhat, y) -> np.ndarray:
        """Body-rate innovation yhat x grad1(yhat, y) in its closed form
        k * (y x yhat), over leading axes of either argument."""
        return self.k * cross(y, yhat)


@dataclass(frozen=True)
class AnisotropicCost:
    """Non-invariant cost 0.5 * ||A (yhat - y)||^2 with A != c*I.

    Deliberate symmetry breaking: its gradient field is not equivariant, so
    the induced error dynamics depend on the input.  Used as a negative
    control only.
    """

    A: np.ndarray = field(default_factory=lambda: np.diag([1.0, 1.6, 2.4]))

    def value(self, yhat, y) -> float:
        d = self.A @ (np.asarray(yhat, dtype=float) - y)
        return 0.5 * float(d @ d)

    def grad1(self, yhat, y) -> np.ndarray:
        """Tangent part at yhat of A^T A (yhat - y), over leading axes."""
        yhat = np.asarray(yhat, dtype=float)
        p = (yhat - y) @ (self.A.T @ self.A)  # A^T A is symmetric
        return p - yhat * np.sum(yhat * p, axis=-1, keepdims=True)

    def rate(self, yhat, y) -> np.ndarray:
        """Body-rate innovation yhat x grad1(yhat, y), over leading axes."""
        return cross(yhat, self.grad1(yhat, y))


def projected_observer_field(c, yhat, y, u) -> np.ndarray:
    """Observer velocity on the sphere: the internal model (the projected plant
    at yhat) plus the innovation -c.grad1, over leading axes where grad1 allows."""
    return project_dynamics(yhat, u) - c.grad1(yhat, y)


def _plant_row(S):
    """The plant row of a stacked pair, as the reference of its observer rows:
    a plain vector for a shared-plant (1 + n, 3) stack, the (..., 1, 3) rows
    of a stack with a leading run axis."""
    return S[0] if S.ndim == 2 else S[..., :1, :]  # a plain vector: grad1 takes one dot, not einsum


def projected_pair_field(c, S, H) -> np.ndarray:
    """Velocity of a stacked sphere pair: axis -2 of S holds the plant row and
    the observer rows after it, (1 + n, 3) or, with one plant and input per
    run, (runs, 2, 3).

    H = hat(u) is the input's generator: every row moves by its internal
    model y x u = (S @ H) row by row; the observer rows add the innovation
    -c.grad1 against the plant row, as projected_observer_field does.
    ``c = None`` leaves the internal model alone (synchrony).  H is one
    (3, 3) generator, or one per run.  Taking the generator rather than u
    lets a caller build hat of a whole table of inputs in one call.
    """
    S = np.asarray(S)
    if H.ndim == 2:
        v = S.dot(H)  # dot costs less for one rate
    elif H.ndim > 2:
        v = S @ H
    else:
        raise ValueError(f"H must be a generator hat(u) of shape (..., 3, 3), not shape {H.shape}")
    if c is not None:
        observers = v[..., 1:, :]
        observers -= c.grad1(S[..., 1:, :], _plant_row(S))
    return v


def projected_pair_rates(c, S, u) -> np.ndarray:
    """Body rates of a stacked sphere pair (rows as in projected_pair_field):
    u on the plant row and observer_body_rate on the observer rows (u on
    every row for ``c = None``).  Each row y moves by act(group_exp(h * w), y)
    with its own rate w.

    At the outputs act(G, y0) of a stacked group pair (the plant and lifted
    observers along axis -3 of G) these are the group pair's body rates, the
    input and lifted_observer_field row by row: G moves by
    plant_vector_field(G, rates)."""
    S = np.asarray(S)
    u = np.asarray(u, dtype=float)[..., None, :]
    if c is None:
        return np.full(S.shape, u)
    # The observer rows' u + c.rate written in place, the plant row's copy of u
    # beside them: np.concatenate cannot broadcast a shared u against a batch.
    w = np.empty(S.shape)
    w[..., :1, :] = u
    np.add(c.rate(S[..., 1:, :], _plant_row(S)), u, out=w[..., 1:, :])
    return w


@dataclass(frozen=True)
class HorizontalSubspace:
    """Horizontal complement of the stabiliser directions for reference y0.

    In the body frame at Xhat these are the velocities hat(w) with w
    orthogonal to the current output act(Xhat, y0).
    """

    y0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y0", unit(self.y0))

    def lift(self, Xhat, vec) -> np.ndarray:
        """Unique horizontal group tangent at Xhat pushing forward to vec, a
        tangent vector at the output base = act(Xhat, y0).

        Finite differences of t -> act(Xhat @ group_exp(t * w), y0) with
        w = vec x base recover vec; the zero-component-along-base constraint
        picks w out of the one-parameter family of generators.  Raises
        ValueError when |<vec, base>| / max(1, ||vec||) exceeds 1e-9 on any
        row of the leading axes Xhat and vec may carry, naming the worst.
        """
        # act(Xhat, y0) rounded as act's one-matrix branch rounds it, on every
        # row: a stack lifts bit for bit as its rows do one at a time.
        r = self.y0 @ np.asarray(Xhat)
        base = r / np.sqrt((r[..., None, :] @ r[..., None])[..., 0])
        vec = np.asarray(vec, dtype=float)
        defect = np.abs(np.sum(base * vec, axis=-1)) / np.maximum(1.0, np.linalg.norm(vec, axis=-1))
        if np.any(defect > 1e-9):
            raise ValueError("vector is not tangent at act(Xhat, y0): "
                             f"|<vec, base>| / max(1, ||vec||) = {np.max(defect):.3e}")
        return np.asarray(Xhat) @ hat(cross(vec, base))

    def contains(self, Xhat, V, tol: float = 1e-9) -> bool:
        """Whether the group tangent V at Xhat lies in the horizontal space."""
        w = vee(np.asarray(Xhat).T @ np.asarray(V))
        return abs(float(w @ act(Xhat, self.y0))) <= tol


def observer_body_rate(c, yhat, y, u) -> np.ndarray:
    """Body rate u + c.rate(yhat, y) of the observer at output yhat, over
    leading axes: the sphere observer moves by act(group_exp(h * .), yhat).
    The cost's rate is the innovation yhat x c.grad1(yhat, y); for the
    invariant cost it is k * (y x yhat), so the body rate is the proportional
    complementary-filter form u + k * (y x yhat)."""
    return np.asarray(u, dtype=float) + c.rate(yhat, y)


def lifted_observer_field(c, Xhat, y, u, y0) -> np.ndarray:
    """Body-frame velocity of the group observer: observer_body_rate at
    act(Xhat, y0).

    Advancing Xhat by group_exp(h * hat(.)) of the returned vector realises
    Xhat' = Xhat @ hat(u) minus the horizontal lift of the cost gradient.
    Xhat, y and u may carry leading axes.
    """
    return observer_body_rate(c, act(Xhat, y0), y, u)


def lifted_cost(c, Xhat, X, y0) -> float:
    """Cost pulled back to the group through the output map; right invariant."""
    return c.value(act(Xhat, y0), act(X, y0))


def grad1_lifted_cost(c: SphereCost, Xhat, X, y0) -> np.ndarray:
    """Gradient of the pulled-back invariant cost at Xhat.

    Computed from the closed form k * Xhat @ hat(yhat x y) under the
    right-invariant half-trace metric, independently of ``HorizontalSubspace.lift``;
    the two agree identically, which the verification suite checks.
    """
    yhat = act(Xhat, y0)
    y = act(X, y0)
    return c.k * (np.asarray(Xhat) @ hat(cross(yhat, y)))


def right_invariant_error(Xhat, X) -> np.ndarray:
    """Group error Xhat @ X^-1; unchanged under simultaneous right
    translation of both states.  Either argument may carry leading axes."""
    return np.asarray(Xhat) @ np.asarray(X).swapaxes(-1, -2)


def canonical_error_from_group(Xhat, X, y0) -> np.ndarray:
    """Canonical error act(Xhat @ X^-1, y0); equals y0 exactly when the states
    are indistinguishable.  Fixed only up to a stabiliser rotation by the
    choice of representatives; its angle to y0 is the invariant observable."""
    return act(right_invariant_error(Xhat, X), y0)


def error_angle(yhat, y):
    """Geodesic angle between two unit directions, in [0, pi], over leading
    axes.

    Evaluated as 2 atan2(||yhat - y||, ||yhat + y||), which equals
    arccos(<yhat, y>) clamped to [-1, 1] but stays fully conditioned at both
    coincident and antipodal arguments.
    """
    yhat = np.asarray(yhat, dtype=float)
    y = np.asarray(y, dtype=float)
    return 2.0 * np.arctan2(np.sqrt(_sum_squares(yhat - y)), np.sqrt(_sum_squares(yhat + y)))


def error_angle_closed_form(theta0: float, k: float, t):
    """Signed error angle theta(t) = 2 atan(tan(theta0/2) e^{-k t}) solving
    theta' = -k sin(theta) from theta0 in [-pi, pi]: the geodesic error angle
    on the sphere, and the signed error of the planar instance.

    |theta0| = pi (to 1e-12) is the unstable equilibrium and is returned
    unchanged.  A theta0 outside [-pi, pi] or not finite raises ValueError.
    """
    if not -np.pi <= theta0 <= np.pi:  # false for NaN too
        raise ValueError(f"theta0 must be a finite angle in [-pi, pi], not {theta0!r}")
    t = np.asarray(t, dtype=float)
    if abs(abs(theta0) - np.pi) < 1e-12:
        out = np.full_like(t, theta0)
    else:
        out = 2.0 * np.arctan(np.tan(0.5 * theta0) * np.exp(-k * t))
    return float(out) if out.ndim == 0 else out


def check_synchrony(theta) -> float:
    """Largest excursion |theta(t) - theta(0)| of recorded error angles, time
    along the first axis and, for a batch, one column per run.

    For a pair running the internal model only (innovation disabled) this is
    zero up to integrator tolerance; a nonzero value witnesses a correction
    term acting.
    """
    theta = np.asarray(theta, dtype=float)
    return float(np.max(np.abs(theta - theta[0])))


def worst_residual(residuals) -> float:
    """Largest of the residuals (floats or tuples of floats), 0.0 for none;
    NaN if one is NaN, where a running max(worst, r) would skip it."""
    return float(np.max(list(residuals), initial=0.0))


def check_innovation_equivariance(c, samples: int = 1000, seed: int = 0) -> float:
    """Worst-case equivariance defect of the cost gradient over random
    (rotation, yhat, y) triples.

    Zero (to rounding) for an invariant cost and metric; order-one for the
    anisotropic negative control.
    """
    rng = np.random.default_rng(seed)
    S, yhat, y = _draws(samples, lambda: (random_rotation(rng), random_unit(rng), random_unit(rng)))
    lhs = (c.grad1(yhat, y)[..., None, :] @ S)[..., 0, :]  # S^T grad1, row by row
    return worst_residual(np.linalg.norm(lhs - c.grad1(act(S, yhat), act(S, y)), axis=-1))


class SectionedCost:
    """Invariant cost generated from a single-argument candidate function.

    Given fhat with a global minimum at y0, evaluates fhat at the relative
    point carried back to the reference through minimal-rotation section
    representatives.  The construction is exactly invariant when fhat is
    constant on stabiliser orbits (a function of the angle to y0 alone),
    which is also what the convergence theory asks of a candidate.  Reduces to
    fhat when the second argument is the reference; an argument at -y0 raises AntipodalError.
    """

    def __init__(self, fhat, y0):
        self.fhat = fhat
        self.y0 = unit(y0)

    def value(self, y1, y2) -> float:
        X = section(y1, self.y0)
        Xhat = section(y2, self.y0)
        z = X.T @ Xhat @ self.y0
        return float(self.fhat(z / np.linalg.norm(z)))
