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

_ANTIPODAL_TOL = 1e-9
_SMALL_ANGLE2 = 1e-8  # squared-norm switch to the series branch of group_exp

# w @ _HAT_BASIS is hat(w) flattened row by row.
_HAT_BASIS = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
])


class AntipodalError(ValueError):
    """Raised where an operation is genuinely singular at antipodal inputs."""


def hat(omega) -> np.ndarray:
    """Antisymmetric matrix of a 3-vector, so that hat(a) @ b = a x b.

    Leading axes are kept: an (n, 3) stack gives an (n, 3, 3) stack.
    """
    w = np.asarray(omega, dtype=float)
    if w.ndim == 1:
        wx, wy, wz = w.tolist()
        return np.array((0.0, -wz, wy, wz, 0.0, -wx, -wy, wx, 0.0)).reshape(3, 3)
    return (w @ _HAT_BASIS).reshape(w.shape[:-1] + (3, 3))


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
    """Matrix exponential of hat(omega) in closed Rodrigues form, over
    leading axes.

    Switches to a truncated series below ||omega|| ~ 1e-4 where sin(t)/t and
    (1-cos(t))/t^2 lose digits to cancellation.
    """
    omega = np.asarray(omega, dtype=float)
    K = hat(omega)
    if omega.ndim == 1:
        t2 = float(omega @ omega)
        if t2 < _SMALL_ANGLE2:
            a = 1.0 - t2 / 6.0 * (1.0 - t2 / 20.0)
            b = 0.5 * (1.0 - t2 / 12.0 * (1.0 - t2 / 30.0))
        else:
            theta = np.sqrt(t2)
            a = np.sin(theta) / theta
            b = (1.0 - np.cos(theta)) / t2
        return IDENTITY + a * K + b * (K @ K)
    t2 = np.sum(omega * omega, axis=-1)
    small = t2 < _SMALL_ANGLE2
    t2_large = np.where(small, 1.0, t2)
    theta = np.sqrt(t2_large)
    a = np.where(small, 1.0 - t2 / 6.0 * (1.0 - t2 / 20.0), np.sin(theta) / theta)
    b = np.where(small, 0.5 * (1.0 - t2 / 12.0 * (1.0 - t2 / 30.0)),
                 (1.0 - np.cos(theta)) / t2_large)
    return IDENTITY + a[..., None, None] * K + b[..., None, None] * (K @ K)


def drift(X):
    """Frobenius distance of X^T X from the identity; an array for a stack."""
    X = np.asarray(X)
    D = X.swapaxes(-1, -2) @ X - IDENTITY
    if X.ndim == 2:
        return float(np.linalg.norm(D))
    return np.linalg.norm(D, axis=(-2, -1))


def orthonormalize(X) -> np.ndarray:
    """One Björck step X (3I - X^T X) / 2 towards the nearest rotation, over
    leading axes.  For X near SO(3) only, where it squares the drift and
    matches the SVD polar factor to rounding."""
    X = np.asarray(X, dtype=float)
    return X @ (1.5 * IDENTITY - 0.5 * (X.swapaxes(-1, -2) @ X))


def compose(X, Y) -> np.ndarray:
    """Group product X @ Y, retracted onto SO(3) by orthonormalize."""
    return orthonormalize(np.asarray(X) @ np.asarray(Y))


def unit(v) -> np.ndarray:
    """v scaled to unit norm along its last axis."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        n = math.sqrt(float(v @ v))
        zero = n == 0.0
    else:
        n = np.linalg.norm(v, axis=-1, keepdims=True)
        zero = not n.all()
    if zero:
        raise ValueError("cannot normalise the zero vector")
    return v / n


def act(X, y) -> np.ndarray:
    """Right action on the sphere: act(X, y) = X^T y, renormalised; either
    argument may carry leading axes.

    Satisfies act(X, act(Y, y)) == act(Y @ X, y).
    """
    X = np.asarray(X)
    y = np.asarray(y, dtype=float)
    if X.ndim == 2 and y.ndim == 1:
        r = X.T @ y
        return r / math.sqrt(float(r @ r))
    return unit(np.einsum("...ji,...j->...i", X, y))


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

