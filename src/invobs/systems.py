"""The plant: left-invariant kinematics, the direction output, the projected
sphere dynamics, and admissible input signals.

The state equation is Xdot = X @ hat(u) with u measured.  Its output
y = act(X, y0) obeys the closed sphere equation ydot = -hat(u) @ y, which is
independent of the group representative and is the minimal realisation of the
input-output behaviour; the stabiliser of y0 is exactly what the output cannot
see.
"""

from __future__ import annotations

import numpy as np

from .so3 import cross, hat


def plant_vector_field(X, u) -> np.ndarray:
    """Group tangent X @ hat(u) of the left-invariant plant, over leading axes."""
    return np.asarray(X) @ hat(u)


def project_dynamics(y, u) -> np.ndarray:
    """Output-space velocity -hat(u) @ y = y x u induced by any representative
    of y, over leading axes of either argument."""
    return cross(y, u)


class InputSignal:
    """Deterministic, piecewise-smooth velocity signal evaluable at any t >= 0.

    Kinds: constant, sinusoid (amplitude * sin(2 pi f t + phase)),
    piecewise-constant (right-continuous at switch times), and sums of those.
    ``integral`` is the exact running integral from 0, used by the scalar
    closed-form oracle.
    """

    KINDS = ("constant", "sinusoid", "piecewise-constant", "sum")

    def __init__(self, kind, amplitude=None, frequency=0.0, phase=0.0,
                 times=(), values=(), terms=()):
        if kind not in self.KINDS:
            raise ValueError(f"unknown input kind {kind!r}")
        self.kind = kind
        self.amplitude = None if amplitude is None else np.asarray(amplitude, dtype=float)
        self.frequency = float(frequency)
        self.phase = float(phase)
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.terms = tuple(terms)
        if kind in ("constant", "sinusoid"):
            if self.amplitude is None or self.amplitude.ndim != 1:
                raise ValueError(f"{kind} input needs a 1-d amplitude vector")
            if not np.all(np.isfinite(self.amplitude)):
                raise ValueError("amplitude must be finite")
        if kind == "sinusoid" and self.frequency < 0.0:
            raise ValueError("frequency must be nonnegative")
        if kind == "piecewise-constant":
            if self.values.ndim != 2 or len(self.values) != len(self.times) + 1:
                raise ValueError("piecewise-constant needs len(times) + 1 segment values")
            if len(self.times) and (np.any(np.diff(self.times) <= 0.0) or self.times[0] < 0.0):
                raise ValueError("times must be nonnegative and strictly increasing")
        if kind == "sum":
            if not self.terms:
                raise ValueError("sum input needs at least one term")
            dims = {t.dim for t in self.terms}
            if len(dims) != 1:
                raise ValueError("sum terms must share one dimension")

    @classmethod
    def constant(cls, amplitude) -> "InputSignal":
        return cls("constant", amplitude=amplitude)

    @classmethod
    def sinusoid(cls, amplitude, frequency, phase=0.0) -> "InputSignal":
        return cls("sinusoid", amplitude=amplitude, frequency=frequency, phase=phase)

    @classmethod
    def piecewise(cls, times, values) -> "InputSignal":
        return cls("piecewise-constant", times=times, values=values)

    @classmethod
    def sum_of(cls, *terms) -> "InputSignal":
        return cls("sum", terms=terms)

    @property
    def dim(self) -> int:
        if self.kind in ("constant", "sinusoid"):
            return len(self.amplitude)
        if self.kind == "piecewise-constant":
            return self.values.shape[1]
        return self.terms[0].dim

    def eval(self, t: float) -> np.ndarray:
        """Value at time t.  Callers must treat the result as read-only."""
        if self.kind == "constant":
            return self.amplitude
        if self.kind == "sinusoid":
            return self.amplitude * np.sin(2.0 * np.pi * self.frequency * t + self.phase)
        if self.kind == "piecewise-constant":
            return self.values[np.searchsorted(self.times, t, side="right")]
        out = self.terms[0].eval(t).copy()
        for term in self.terms[1:]:
            out += term.eval(t)
        return out

    def integral(self, t: float) -> np.ndarray:
        """Exact integral of the signal over [0, t]."""
        if self.kind == "constant":
            return self.amplitude * t
        if self.kind == "sinusoid":
            w = 2.0 * np.pi * self.frequency
            if w == 0.0:
                return self.amplitude * (np.sin(self.phase) * t)
            return self.amplitude * ((np.cos(self.phase) - np.cos(w * t + self.phase)) / w)
        if self.kind == "piecewise-constant":
            total = np.zeros(self.dim)
            prev = 0.0
            for i, switch in enumerate(self.times):
                if t < switch:
                    break
                total += self.values[i] * (switch - prev)
                prev = switch
            total += self.values[np.searchsorted(self.times, t, side="right")] * max(0.0, t - prev)
            return total
        out = self.terms[0].integral(t).copy()
        for term in self.terms[1:]:
            out += term.integral(t)
        return out
