"""Planar-rotation instance: angles wrapped to (-pi, pi].

The group and the output space are both circles and the stabiliser of any
reference angle is trivial, so every quantity has a scalar closed form.  The
signed observer error obeys the same law as the error angle on the sphere,
``observer.error_angle_closed_form``, which makes the instance an independent
oracle for the machinery built on SO(3)/S^2.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap(a):
    """Wrap an angle (or array of angles) to (-pi, pi]."""
    w = np.mod(np.asarray(a, dtype=float) + np.pi, TWO_PI) - np.pi
    w = np.where(w == -np.pi, np.pi, w)
    return float(w) if np.isscalar(a) or np.ndim(a) == 0 else w
