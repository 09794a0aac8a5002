"""Seeded samplers for sphere points, rotations, and tangent directions.

All draws go through numpy Generators so sweeps replay bit-identically from a
seed.  Rotations are Haar-uniform via QR of a Gaussian matrix with the usual
sign fix; sphere points are normalised Gaussian triples.
"""

from __future__ import annotations

import numpy as np

from .so3 import cross


def random_unit(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Uniform point(s) on the unit sphere, shape (3,) or (n, 3)."""
    shape = (3,) if n is None else (n, 3)
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_rotation(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Haar-uniform rotation(s), shape (3, 3) or (n, 3, 3)."""
    shape = (3, 3) if n is None else (n, 3, 3)
    Q, R = np.linalg.qr(rng.standard_normal(shape))
    Q = Q * np.sign(np.diagonal(R, axis1=-2, axis2=-1))[..., None, :]
    det = np.sum(cross(Q[..., 0], Q[..., 1]) * Q[..., 2], axis=-1)  # columns' triple product
    Q[det < 0.0, :, 0] *= -1.0
    return Q


def _draws(n: int, draw) -> tuple[np.ndarray, ...]:
    """n calls of ``draw()``, each a tuple of fields, stacked field by field
    along a new first axis: the generator advances exactly as n serial draws."""
    return tuple(np.stack(f) for f in zip(*(draw() for _ in range(n))))


def random_tangent(rng: np.random.Generator, base: np.ndarray) -> np.ndarray:
    """Unit vector tangent to the sphere at ``base``."""
    base = np.asarray(base, dtype=float)
    while True:
        v = rng.standard_normal(3)
        v = v - base * float(base @ v)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            return v / norm
