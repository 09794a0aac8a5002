"""Planar-rotation instance: angles wrapped to (-pi, pi], scalar velocities.

The group and the output space are both circles and the stabiliser of any
reference angle is trivial, so every quantity has a scalar closed form.  This
makes the instance an independent oracle for the machinery built on SO(3)/S^2.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap(a):
    """Wrap an angle (or array of angles) to (-pi, pi]."""
    w = np.mod(np.asarray(a, dtype=float) + np.pi, TWO_PI) - np.pi
    w = np.where(w == -np.pi, np.pi, w)
    return float(w) if np.isscalar(a) or np.ndim(a) == 0 else w


def error_closed_form(delta0: float, k: float, t):
    """Signed observer error delta(t) solving delta' = -k sin(delta).

    delta0 = pi is the unstable equilibrium and is returned unchanged.
    """
    t = np.asarray(t, dtype=float)
    if abs(abs(delta0) - np.pi) < 1e-12:
        out = np.full_like(t, delta0)
    else:
        out = 2.0 * np.arctan(np.tan(0.5 * delta0) * np.exp(-k * t))
    return float(out) if out.ndim == 0 else out
