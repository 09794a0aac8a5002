"""Spans around the calls into each invobs layer, recorded from outside.

Nothing in the package is edited.  ``Tracer.install`` replaces each public
function of a layer module, and a few hot methods, with a timing shim on every
module attribute that a consumer looks up at call time: ``invobs.so3.compose``
finds ``invobs.so3.orthonormalize``, ``invobs.simulate`` its own imported
``orthonormalize``, and every module ``numpy.cross`` and ``numpy.linalg.svd``.
``Tracer.remove`` puts the originals back.

A span is [name, start, end, parent index]; spans stay in memory, grouped by
pass, until ``write`` dumps them.  A span's self time is its duration minus
the durations of its direct children, so the self times of one pass sum to
the duration of its root span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("scenario", "so3", "systems", "observer", "sampling", "simulate",
          "circle", "verify", "runner")

# Methods on the hot path of a step; plain functions are found by inspection.
METHODS = {
    "systems": {"InputSignal": ("eval", "integral")},
    "observer": {"SphereCost": ("value", "grad1"), "AnisotropicCost": ("value", "grad1"),
                 "HorizontalSubspace": ("lift", "contains")},
}

NUMPY_CALLEES = ((np, "cross", "numpy.cross"), (np.linalg, "svd", "numpy.linalg.svd"))

# Entry points whose first argument is a scenario; each adds its step count
# (batch steps for a sweep) to the pass.
STEPPING = ("simulate_projected", "simulate_lifted", "simulate_cosim", "simulate_circle",
            "so2_oracle_run", "monte_carlo")


def _cost_label(args, kwargs):
    """Tell the invariant call of a dual-use check from its negative control."""
    cost = args[0] if args else kwargs.get("c")
    return f"[{type(cost).__name__}]"


def _spread_label(args, kwargs):
    cost = kwargs.get("cost", args[2] if len(args) > 2 else None)
    return "[invariant]" if cost is None else "[control]"


LABELS = {"check_innovation_equivariance": _cost_label, "autonomy_spread": _spread_label}


class Tracer:
    def __init__(self):
        self.passes: list[dict] = []
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.steps = 0

    # --- recording -----------------------------------------------------------

    def _shim(self, fn, name, label=None, stepping=False):
        clock = time.perf_counter
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer._spans
            span = [name if label is None else name + label(args, kwargs),
                    clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if stepping:
                sc = args[0]
                tracer.steps += max(1, round(sc.t_end / sc.integrator.h))
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Shim every traced callable on every module that refers to it."""
        import invobs

        modules = [invobs] + [importlib.import_module(f"invobs.{m}") for m in LAYERS + ("cli",)]
        for layer in LAYERS:
            mod = importlib.import_module(f"invobs.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                shim = self._shim(fn, f"{layer}.{attr}", LABELS.get(attr), attr in STEPPING)
                for consumer in modules:
                    for cattr, value in list(vars(consumer).items()):
                        if value is fn:
                            self._patch(consumer, cattr, shim)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    shim = self._shim(vars(cls)[meth], f"{layer}.{cls_name}.{meth}")
                    self._patch(cls, meth, shim)
        for owner, attr, name in NUMPY_CALLEES:
            self._patch(owner, attr, self._shim(getattr(owner, attr), name))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run_pass(self, label: str, fn):
        """Call fn() inside a root span and keep the pass's spans.  Returns
        fn's result and the pass record."""
        self._spans, self._stack[:] = [], []
        self.steps = 0
        root = ["bench.pass", 0.0, 0.0, -1]
        self._spans.append(root)
        self._stack.append(0)
        t0 = time.perf_counter()
        root[1] = t0
        try:
            result = fn()
        finally:
            root[2] = time.perf_counter()
            self._stack.pop()
        record = {"pass": label, "wall_s": root[2] - t0, "steps": self.steps,
                  "spans": self._spans}
        self.passes.append(record)
        return result, record

    def write(self, path: str):
        """Dump every pass as gzipped JSON, times in ns from the pass start."""
        out = []
        for p in self.passes:
            t0 = p["spans"][0][1]
            out.append({"pass": p["pass"], "wall_s": p["wall_s"], "steps": p["steps"],
                        "fields": ["name", "start_ns", "end_ns", "parent"],
                        "spans": [[s[0], round((s[1] - t0) * 1e9), round((s[2] - t0) * 1e9), s[3]]
                                  for s in p["spans"]]})
        with gzip.open(path, "wt") as fh:
            json.dump({"passes": out}, fh, separators=(",", ":"))


# --- analysis ----------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_of(name: str) -> str:
    return "harness" if name == "bench.pass" else name.split(".")[0]


def summarize(record: dict) -> dict:
    """Self time and calls per span name, and self time per layer."""
    spans = record["spans"]
    by_name: dict[str, list] = {}
    by_layer: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        entry = by_name.setdefault(s[0], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += own
        entry[2] += s[2] - s[1]
        layer = layer_of(s[0])
        by_layer[layer] = by_layer.get(layer, 0.0) + own
    return {"calls": {k: v[0] for k, v in by_name.items()},
            "self_s": {k: v[1] for k, v in by_name.items()},
            "total_s": {k: v[2] for k, v in by_name.items()},
            "layer_self_s": by_layer}
