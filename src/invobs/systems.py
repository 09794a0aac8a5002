"""The plant: left-invariant kinematics and admissible input signals.

The state equation is Xdot = X @ hat(u) with u measured.  Its output
y = act(X, y0) obeys the closed sphere equation ydot = -hat(u) @ y = y x u,
which is independent of the group representative and is the minimal
realisation of the input-output behaviour; the stabiliser of y0 is exactly
what the output cannot see.  The pair fields in ``invobs.observer`` step that
sphere equation for the plant row of a stacked pair.
"""

from __future__ import annotations

import math

import numpy as np

from .so3 import hat


def plant_vector_field(X, u) -> np.ndarray:
    """Group tangent X @ hat(u) of the left-invariant plant, over leading axes."""
    return np.asarray(X) @ hat(u)


def _primitive(s, f, phase):
    """The primitive of sin(2 pi f s + phase) in s that vanishes at s = 0."""
    w = 2.0 * math.pi * f
    return np.sin(phase) * s if w == 0.0 else (np.cos(phase) - np.cos(w * s + phase)) / w


class InputSignal:
    """Deterministic, piecewise-smooth velocity signal evaluable at any t >= 0.

    Kinds: constant, sinusoid (amplitude * sin(2 pi f t + phase)),
    piecewise-constant (right-continuous at switch times), and sums of those.
    Every kind is evaluated in one form, a sum of leaves
    ``values[segment(t)] * sin(2 pi f t + phase)``, each stored once at
    construction as (times, values, f, phase): a sinusoid is one segment, a
    constant or piecewise-constant signal has f = 0 and phase = pi/2 (whose
    sine is exactly 1.0), and a sum is its terms' leaves, added in order.
    The kind, its parameters and ``terms`` stay for validation and the
    scenario echo.  ``integral`` is the exact running integral from 0, used
    by the circle oracle.
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
        for name in ("amplitude", "frequency", "phase", "times", "values"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if kind in ("constant", "sinusoid"):
            if self.amplitude is None or self.amplitude.ndim != 1:
                raise ValueError(f"{kind} input needs a 1-d amplitude vector")
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
            self._leaves = tuple(leaf for term in self.terms for leaf in term._leaves)
        elif kind == "piecewise-constant":
            self._leaves = ((self.times, self.values, 0.0, math.pi / 2),)
        else:
            wave = (self.frequency, self.phase) if kind == "sinusoid" else (0.0, math.pi / 2)
            self._leaves = ((np.empty(0), self.amplitude[None], *wave),)

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
        return self._leaves[0][1].shape[1]

    def eval(self, t, at=None) -> np.ndarray:
        """Value at time t, over leading axes of t: a new array of shape
        t.shape + (dim,), which shares no memory with the signal.  Segments
        are looked up at ``at`` (default t), broadcast to the shape of t: a
        stepper passes one time per step to hold its segment at every stage."""
        t = np.asarray(t, dtype=float)
        at = t if at is None else np.broadcast_to(at, t.shape)
        parts = (values.take(np.searchsorted(times, at, side="right"), axis=0)
                 * np.sin(2.0 * math.pi * f * t + phase)[..., None]
                 for times, values, f, phase in self._leaves)
        out = next(parts)
        for part in parts:
            out += part
        return out

    def integral(self, t) -> np.ndarray:
        """Exact integral of the signal over [0, t], over leading axes of t.
        Per leaf, with F the primitive of its wave and F(0) = 0: a running
        sum of the whole segments before each switch, then the part of the
        current segment up to t."""
        t = np.asarray(t, dtype=float)
        out = 0.0
        for times, values, f, phase in self._leaves:
            starts = np.concatenate(([0.0], times))
            F = _primitive(starts, f, phase)
            whole = np.cumsum(np.concatenate((np.zeros((1, values.shape[1])),
                                              values[:-1] * np.diff(F)[:, None])), axis=0)
            i = np.searchsorted(times, t, side="right")
            out = out + (whole[i] + values[i] * (_primitive(t, f, phase) - F[i])[..., None])
        return out
