"""Rotation-group and unit-sphere primitives for the SO(3) / S^2 instance.

Group elements are plain 3x3 special-orthogonal arrays, algebra elements are
length-3 arrays under the hat isomorphism, output points are unit vectors, and
a tangent vector at an output y is a plain vector orthogonal to y.
The group acts on the sphere from the right via ``act(X, y) = X^T y``; the
stabiliser of a reference direction is the circle of rotations about it.
Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import math

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
_CROSS_ROWS = np.array([[1, 2, 0], [2, 0, 1]])  # last-axis gathers of cross
# y @ _ACT_BASIS, reshaped to (9, 3), has row 3i + j equal to y_i e_j.
_ACT_BASIS = np.multiply.outer(IDENTITY, IDENTITY).reshape(3, 27)
_ONES = np.ones(3)
_ONES33 = np.ones((3, 3))  # v @ _ONES33 repeats the sum of each row of v along it
_I15 = 1.5 * IDENTITY


class AntipodalError(ValueError):
    """Raised where an operation is genuinely singular at antipodal inputs."""


def hat(omega) -> np.ndarray:
    """Antisymmetric matrix of a 3-vector, so that hat(a) @ b = a x b.

    Leading axes are kept: an (n, 3) stack gives an (n, 3, 3) stack.
    """
    w = np.asarray(omega, dtype=float)
    return w.dot(_HAT_BASIS).reshape(w.shape[:-1] + (3, 3))


def _sum_squares(v, ones=_ONES):
    """Squared norms along the last axis, of the length of ``ones``: one
    elementwise square and one dot product with ones, which costs less per
    call than np.linalg.norm, einsum or vecdot from 2 to 1000 rows.  With
    _ONES33 each norm comes repeated along its row."""
    return (v * v).dot(ones)


def cross(a, b) -> np.ndarray:
    """Cross product over the last axis, broadcasting leading axes.

    Same arithmetic as ``np.cross`` (``a1*b2 - a2*b1`` and so on), so the
    result is bit-for-bit equal for finite float64 and integer input,
    without its per-call overhead.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1:] != (3,) or b.shape[-1:] != (3,):
        raise ValueError(f"cross needs a last axis of length 3, got shapes {a.shape} and {b.shape}")
    # Rows [a1 a2 a0], [a2 a0 a1] of a times rows [b2 b0 b1], [b1 b2 b0] of b:
    # the first product row minus the second is a x b.
    p = a[..., _CROSS_ROWS] * b[..., _CROSS_ROWS[::-1]]
    return p[..., 0, :] - p[..., 1, :]


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
    t2 = _sum_squares(omega)[..., None, None]
    small = t2 < _SMALL_ANGLE2
    if np.count_nonzero(small):
        t2_large = np.where(small, 1.0, t2)
        theta = np.sqrt(t2_large)
        a = np.where(small, 1.0 - t2 / 6.0 * (1.0 - t2 / 20.0), np.sin(theta) / theta)
        b = np.where(small, 0.5 * (1.0 - t2 / 12.0 * (1.0 - t2 / 30.0)),
                     (1.0 - np.cos(theta)) / t2_large)
    else:
        theta = np.sqrt(t2)
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / t2
    # I + a K + b K^2, summed in that order in place: a K + I is the same sum.
    out = a * K
    out += IDENTITY
    K2 = K @ K
    K2 *= b
    out += K2
    return out


def _gram(X):
    """X^T X over leading axes.  The transpose is made contiguous first: a
    stack of strided transposes takes batched matmul's slow path."""
    return np.ascontiguousarray(X.swapaxes(-1, -2)) @ X


def drift(X):
    """Frobenius distance of X^T X from the identity, over leading axes."""
    D = _gram(np.asarray(X)) - IDENTITY
    D = D.reshape(D.shape[:-2] + (9,))
    # Summed row by row, not as a product with ones: gemv rounds by row count,
    # so a run's drift would depend on the size of its sweep.
    return np.sqrt(np.add.reduce(D * D, axis=-1))


def orthonormalize(X) -> np.ndarray:
    """One Björck step X (3I - X^T X) / 2 towards the nearest rotation, over
    leading axes.  For X near SO(3) only, where it squares the drift and
    matches the SVD polar factor to rounding."""
    X = np.asarray(X, dtype=float)
    g = _gram(X)  # 1.5 I - 0.5 X^T X, formed in place: -0.5 g + 1.5 I is the same sum
    g *= -0.5
    g += _I15
    return X @ g


def compose(X, Y) -> np.ndarray:
    """Group product X @ Y, retracted onto SO(3) by orthonormalize."""
    return orthonormalize(np.asarray(X) @ np.asarray(Y))


def unit(v) -> np.ndarray:
    """v scaled to unit norm along its last axis.

    The norm is repeated along each row, one sum of the three squares per
    entry, so the division is elementwise, with no short broadcast loop.
    Each sum equals the one _sum_squares(v) forms as long as BLAS adds the
    three squares (each times an exact 1) the same way in gemm as in gemv."""
    v = np.asarray(v, dtype=float)
    n = np.sqrt(_sum_squares(v, _ONES33))
    if np.count_nonzero(n) < n.size:
        raise ValueError("cannot normalise the zero vector")
    return v / n


def act(X, y) -> np.ndarray:
    """Right action on the sphere: act(X, y) = X^T y, renormalised; either
    argument may carry leading axes.

    Satisfies act(X, act(Y, y)) == act(Y @ X, y).
    """
    X = np.asarray(X)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        if X.ndim == 2:  # kept for its rounding: the bench reference of verify residuals pins it
            r = X.T @ y
            return r / math.sqrt(float(r @ r))
        return _actor(y)(X)
    return unit((y[..., None, :] @ X)[..., 0, :])


def _actor(y):
    """act(., y) on rotation stacks, with its (9, 3) matrix built once for a
    caller that acts on many stacks with one direction y.

    Row 3i + j of the matrix is y_i e_j, so the product of a stack flattened
    to (..., 9) with it sums X_ij y_i in entry j: each row is X^T y.
    """
    Y = np.asarray(y, dtype=float).dot(_ACT_BASIS).reshape(9, 3)
    return lambda X: unit(X.reshape(X.shape[:-2] + (9,)).dot(Y))


def section(y, y0) -> np.ndarray:
    """A group element carrying the reference to y: act(section(y, y0), y0) = y.

    Chooses the minimal-angle rotation, whose axis is y0 x y.  The antipode is
    refused: every axis is equally valid there.  Near it the result stays a
    rotation to rounding: the axis y0 x y = y0 x d and the denominator
    1 + <y0, y> = ||d||^2 / 2 come from d = y + y0, which does not cancel.
    """
    y, y0 = unit(y), unit(y0)
    d = y + y0
    if float(np.linalg.norm(d)) <= _ANTIPODAL_TOL:
        raise AntipodalError("section undefined: y is antipodal to y0")
    K = hat(cross(y0, d))
    # Exact rotation R with R @ y0 == y; the action uses the transpose.
    R = IDENTITY + K + (K @ K) / (0.5 * float(d @ d))
    return R.T

