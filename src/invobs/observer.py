"""Gradient-innovation observers on the sphere and their lift to the group.

The observer splits into an internal model (a copy of the projected plant)
plus an innovation that vanishes when the estimated output matches the
measurement.  Taking the innovation as minus the Riemannian gradient of an
invariant cost makes the error-angle dynamics autonomous and almost globally
contracting; lifting the innovation horizontally gives the matching group
observer.  This module holds the cost functions, gradients, the horizontal
structure, canonical errors, the scalar error law, and the runtime
verification predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sampling import random_rotation, random_unit
from .systems import project_dynamics
from .so3 import (
    TangentVector,
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
    (n, 1) array of gains gives one gain per row of a batch to ``grad1``.
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
        if yhat.ndim == 1 and y.ndim == 1:
            return -self.k * (y - yhat * float(np.dot(yhat, y)))
        dot = yhat @ y if y.ndim == 1 else np.einsum("...i,...i->...", yhat, y)
        return -self.k * (y - yhat * dot[..., None])


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


def projected_observer_field(c, yhat, y, u) -> np.ndarray:
    """Observer velocity on the sphere: the internal model (the projected plant
    at yhat) plus the innovation -c.grad1, over leading axes where grad1 allows."""
    return project_dynamics(yhat, u) - c.grad1(yhat, y)


def omega_bar(v: TangentVector) -> np.ndarray:
    """Body-frame angular velocity with omega_bar x base = vec and zero
    component along base; equals base x vec."""
    return cross(v.base, v.vec)


@dataclass(frozen=True)
class HorizontalSubspace:
    """Horizontal complement of the stabiliser directions for reference y0.

    In the body frame at Xhat these are the velocities hat(w) with w
    orthogonal to the current output act(Xhat, y0).
    """

    y0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y0", unit(self.y0))

    def lift(self, Xhat, v: TangentVector) -> np.ndarray:
        """Unique horizontal group tangent at Xhat pushing forward to v.

        Finite differences of t -> act(Xhat @ group_exp(t * w), y0) with
        w = vec x base recover v; the zero-component-along-base constraint
        picks w out of the one-parameter family of generators.
        """
        yhat = act(Xhat, self.y0)
        if float(np.linalg.norm(v.base - yhat)) > 1e-9:
            raise ValueError("tangent base point does not match act(Xhat, y0)")
        return np.asarray(Xhat) @ hat(cross(v.vec, v.base))

    def contains(self, Xhat, V, tol: float = 1e-9) -> bool:
        """Whether the group tangent V at Xhat lies in the horizontal space."""
        w = vee(np.asarray(Xhat).T @ np.asarray(V))
        return abs(float(w @ act(Xhat, self.y0))) <= tol


def observer_body_rate(c, yhat, y, u) -> np.ndarray:
    """Body rate u - (c.grad1(yhat, y) x yhat) of the observer at output yhat,
    over leading axes: the sphere observer moves by act(group_exp(h * .), yhat).
    For the invariant cost this is u + k * (y x yhat), the proportional
    complementary-filter form."""
    return np.asarray(u, dtype=float) - cross(c.grad1(yhat, y), yhat)


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
    """Geodesic angle between two unit directions, in [0, pi]; a float for a
    pair of vectors, an array over the leading axes otherwise.

    Evaluated as 2 atan2(||yhat - y||, ||yhat + y||), which equals
    arccos(<yhat, y>) clamped to [-1, 1] but stays fully conditioned at both
    coincident and antipodal arguments.
    """
    yhat = np.asarray(yhat, dtype=float)
    y = np.asarray(y, dtype=float)
    if yhat.ndim == 1 and y.ndim == 1:
        return 2.0 * float(np.arctan2(np.linalg.norm(yhat - y), np.linalg.norm(yhat + y)))
    return 2.0 * np.arctan2(np.linalg.norm(yhat - y, axis=-1), np.linalg.norm(yhat + y, axis=-1))


def error_angle_closed_form(theta0: float, k: float, t):
    """Error angle theta(t) = 2 atan(tan(theta0/2) e^{-k t}) solving
    theta' = -k sin(theta).

    theta0 = pi (the unstable equilibrium) is rejected.
    """
    if not 0.0 <= theta0 < np.pi:
        raise ValueError("theta0 must lie in [0, pi); the antipode is an equilibrium")
    t = np.asarray(t, dtype=float)
    out = 2.0 * np.arctan(np.tan(0.5 * theta0) * np.exp(-k * t))
    return float(out) if out.ndim == 0 else out


def check_synchrony(record) -> float:
    """Largest excursion |theta(t) - theta(0)| over a recorded trajectory.

    For a pair running the internal model only (innovation disabled) this is
    zero up to integrator tolerance; a nonzero value witnesses a correction
    term acting.
    """
    theta = np.asarray(record.theta, dtype=float)
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

    def residual():
        S = random_rotation(rng)
        yhat = random_unit(rng)
        y = random_unit(rng)
        lhs = S.T @ c.grad1(yhat, y)
        rhs = c.grad1(act(S, yhat), act(S, y))
        return float(np.linalg.norm(lhs - rhs))

    return worst_residual(residual() for _ in range(samples))


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
