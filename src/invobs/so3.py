"""Rotation-group and unit-sphere primitives for the SO(3) / S^2 instance.

Group elements are plain 3x3 special-orthogonal arrays, algebra elements are
length-3 arrays under the hat isomorphism, and output points are unit vectors.
The group acts on the sphere from the right via ``act(X, y) = X^T y``; the
stabiliser of a reference direction is the circle of rotations about it.
Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

IDENTITY = np.eye(3)

# Frobenius drift that triggers re-orthonormalisation inside compose().
DRIFT_TOL = 1e-12

_ANTIPODAL_TOL = 1e-9
_SMALL_ANGLE2 = 1e-8  # squared-norm switch to the series branch of group_exp


class AntipodalError(ValueError):
    """Raised where an operation is genuinely singular at antipodal inputs."""


def hat(omega) -> np.ndarray:
    """Antisymmetric matrix of a length-3 vector, so that hat(a) @ b = a x b."""
    wx, wy, wz = omega
    return np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])


def cross(a, b) -> np.ndarray:
    """Cross product over the last axis, broadcasting leading axes.

    Same arithmetic as ``np.cross`` (``a1*b2 - a2*b1`` and so on), so the
    result is bit-for-bit equal for float64 and integer input, without its
    per-call overhead.  A pair of plain 3-vectors is computed on Python
    scalars; anything else on last-axis slices.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1:] != (3,) or b.shape[-1:] != (3,):
        raise ValueError(f"cross needs a last axis of length 3, got shapes {a.shape} and {b.shape}")
    if a.ndim == 1 and b.ndim == 1:
        a0, a1, a2 = a.tolist()
        b0, b1, b2 = b.tolist()
        return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.promote_types(a.dtype, b.dtype))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[..., j], b[..., k], out=out[..., i])
        out[..., i] -= a[..., k] * b[..., j]
    return out


def vee(A) -> np.ndarray:
    """Inverse of hat.  Rejects matrices whose symmetric part exceeds 1e-9."""
    A = np.asarray(A, dtype=float)
    sym = float(np.linalg.norm(A + A.T))
    if sym > 1e-9:
        raise ValueError(f"matrix is not antisymmetric: ||A + A^T||_F = {sym:.3e}")
    return np.array([A[2, 1], A[0, 2], A[1, 0]])


def group_exp(omega) -> np.ndarray:
    """Matrix exponential of hat(omega) in closed Rodrigues form.

    Switches to a truncated series below ||omega|| ~ 1e-4 where sin(t)/t and
    (1-cos(t))/t^2 lose digits to cancellation.
    """
    omega = np.asarray(omega, dtype=float)
    t2 = float(omega @ omega)
    K = hat(omega)
    if t2 < _SMALL_ANGLE2:
        a = 1.0 - t2 / 6.0 * (1.0 - t2 / 20.0)
        b = 0.5 * (1.0 - t2 / 12.0 * (1.0 - t2 / 30.0))
    else:
        theta = np.sqrt(t2)
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / t2
    return IDENTITY + a * K + b * (K @ K)


def drift(X) -> float:
    """Frobenius distance of X^T X from the identity."""
    X = np.asarray(X)
    return float(np.linalg.norm(X.T @ X - IDENTITY))


def orthonormalize(X) -> np.ndarray:
    """Nearest rotation to X (polar projection via SVD, determinant +1)."""
    U, _, Vt = np.linalg.svd(np.asarray(X, dtype=float))
    if np.linalg.det(U @ Vt) < 0.0:
        U = U.copy()
        U[:, -1] *= -1.0
    return U @ Vt


def compose(X, Y) -> np.ndarray:
    """Group product X @ Y, re-orthonormalised whenever drift exceeds 1e-12."""
    Z = np.asarray(X) @ np.asarray(Y)
    if drift(Z) > DRIFT_TOL:
        Z = orthonormalize(Z)
    return Z


def unit(v) -> np.ndarray:
    """v scaled to unit norm."""
    v = np.asarray(v, dtype=float)
    n = math.sqrt(float(v @ v))
    if n == 0.0:
        raise ValueError("cannot normalise the zero vector")
    return v / n


def act(X, y) -> np.ndarray:
    """Right action on the sphere: act(X, y) = X^T y, renormalised.

    Satisfies act(X, act(Y, y)) == act(Y @ X, y).
    """
    r = np.asarray(X).T @ np.asarray(y, dtype=float)
    return r / math.sqrt(float(r @ r))


def in_stabiliser(X, y0, tol: float = 1e-9) -> bool:
    """True when X fixes the reference direction under the action."""
    return float(np.linalg.norm(act(X, y0) - unit(y0))) <= tol


def section(y, y0) -> np.ndarray:
    """A group element carrying the reference to y: act(section(y, y0), y0) = y.

    Chooses the minimal-angle rotation, whose axis is y0 x y.  The antipode is
    refused: every axis is equally valid there, and the construction loses
    accuracy smoothly as y approaches -y0.
    """
    y = unit(y)
    y0 = unit(y0)
    if float(np.linalg.norm(y + y0)) <= _ANTIPODAL_TOL:
        raise AntipodalError("section undefined: y is antipodal to y0")
    K = hat(cross(y0, y))
    c = float(y0 @ y)
    # Exact rotation R with R @ y0 == y; the action uses the transpose.
    R = IDENTITY + K + (K @ K) / (1.0 + c)
    return R.T


def tangent_project(y, v) -> np.ndarray:
    """Component of v tangent to the sphere at y."""
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    return v - y * float(y @ v)


@dataclass(frozen=True)
class TangentVector:
    """A vector ``vec`` tangent to the unit sphere at ``base``."""

    base: np.ndarray
    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "vec", np.asarray(self.vec, dtype=float))
        defect = abs(float(self.base @ self.vec))
        if defect > 1e-9 * max(1.0, float(np.linalg.norm(self.vec))):
            raise ValueError(f"vector is not tangent at base: |<vec, base>| = {defect:.3e}")


def riemannian_inner(v: TangentVector, w: TangentVector) -> float:
    """Embedded Euclidean metric on the sphere; invariant under the action."""
    if float(np.linalg.norm(v.base - w.base)) > 1e-9:
        raise ValueError("tangent vectors have mismatched base points")
    return float(v.vec @ w.vec)
