"""The three benchmark workloads: their scenarios, one pass, and its checks.

A workload is a fixed list of operations.  Each operation is one
``invobs.runner.run`` call on a parsed scenario, the same entry point the
CLI uses, so a pass writes the same artifacts a user gets.  The checks read
those artifacts back and hold them to tolerances pinned here; the error-angle
law is evaluated here from the recorded angles.

``build_ops(workload, seed)`` with ``seed=None`` gives the default
configuration: the presets' own initial conditions and the scenario seeds the
CLI uses without ``--seed``.  Its outputs are compared with
``reference.json``, recorded from the seed code by ``record_reference.py``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from invobs import parse_scenario, preset, scenario_to_dict
from invobs import runner

WORKLOADS = ("single-runs", "mc-sweep", "verify-suite")

# Acceptance tolerances, pinned here so that a change which loosens one in the
# program still fails the benchmark.
ERROR_LAW_TOL = 1e-5
COSIM_TOL = 1e-6
DRIFT_TOL = 1e-9
REFERENCE_TOL = 1e-12
MARGIN_CAP = 16.0

VERIFY_PROPERTIES = {
    # name: (tolerance, bound); "max" residuals must stay below, "min" above.
    "cost_closed_forms": (1e-12, "max"),
    "innovation_cross_form": (1e-12, "max"),
    "metric_trace_identity": (1e-12, "max"),
    "innovation_equivariance": (1e-12, "max"),
    "equivariance_negative_control": (1e-3, "min"),
    "horizontal_lift_round_trip": (1e-6, "max"),
    "lifted_gradient_identity": (1e-12, "max"),
    "observer_two_forms": (1e-12, "max"),
    "cost_gradient_fd": (1e-5, "max"),
    "lifted_cost_gradient_fd": (1e-5, "max"),
    "invariant_cost_construction": (1e-9, "max"),
    "synchrony_constancy": (1e-8, "max"),
    "autonomy_spread": (1e-6, "max"),
    "autonomy_negative_control": (1e-3, "min"),
    "cosim_projection_consistency": (1e-6, "max"),
    "antipodal_stationarity": (1e-9, "max"),
    "so2_oracle_deviation": (1e-8, "max"),
    "so2_state_convergence": (1e-6, "max"),
}

# Seeded observer initial conditions stay this far (rad) from the antipode.
ANTIPODE_CLEARANCE = 0.1


@dataclass(frozen=True)
class Scale:
    """Horizons and sizes.  The full scale keeps each preset's own step size
    and shortens only the horizon (so a single run is an exact prefix of the
    preset's trajectory), runs the sweeps at the coarsest admissible step,
    and keeps ``invobs verify``'s step size with a short horizon."""

    single_t_end: float = 1.0
    mc_h: float = 0.01
    mc_runs_projected: int = 1000
    mc_runs_lifted: int = 200
    verify_t_end: float = 0.3
    so2_t_end: float = 20.0


FULL = Scale()
SMOKE = Scale(single_t_end=0.05, mc_runs_projected=20, mc_runs_lifted=10, verify_t_end=0.05)


@dataclass
class Op:
    """One operation: a scenario run through ``runner.run``."""

    label: str
    kind: str          # "trajectory" | "sweep" | "verify"
    doc: dict
    scenario: object = None


SINGLE_RUNS = (
    # label, preset, mode, integrator
    ("metni-s2.rk4", "metni-s2", "projected", "rk4-project"),
    ("explicit-complementary.rk4", "explicit-complementary", "lifted", "rk4-project"),
    ("autonomy-demo.rk4", "autonomy-demo", "projected", "rk4-project"),
    ("explicit-complementary.co-sim", "explicit-complementary", "co-sim", "rk4-project"),
    ("metni-s2.lie", "metni-s2", "projected", "lie-euler"),
    ("explicit-complementary.lie", "explicit-complementary", "lifted", "lie-euler"),
)


def _rotation(axis_angle: np.ndarray) -> np.ndarray:
    """Rodrigues rotation, written here so the benchmark's inputs do not
    depend on the code under test."""
    theta = float(np.linalg.norm(axis_angle))
    a = axis_angle / theta
    K = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


def seeded_observer(rng: np.random.Generator, y0: np.ndarray) -> list[float]:
    """Axis-angle observer start whose output is at least
    ANTIPODE_CLEARANCE from the antipode of the plant output y0."""
    while True:
        axis = rng.standard_normal(3)
        w = axis / np.linalg.norm(axis) * rng.uniform(0.2, math.pi)
        yhat = _rotation(w).T @ y0
        if math.acos(max(-1.0, min(1.0, float(yhat @ y0)))) <= math.pi - ANTIPODE_CLEARANCE:
            return w.tolist()


def _single_run_docs(seed, scale):
    rng = None if seed is None else np.random.default_rng(seed)
    out = []
    for label, name, mode, method in SINGLE_RUNS:
        doc = scenario_to_dict(preset(name))
        doc["mode"] = mode
        doc["integrator"]["method"] = method
        doc["t_end"] = scale.single_t_end
        if rng is not None:
            doc["seed"] = seed
            doc["init"]["observer"] = {"axis_angle": seeded_observer(rng, np.array(doc["y0"]))}
        out.append((label, "trajectory", doc))
    return out


def _sweep_docs(seed, scale):
    doc = scenario_to_dict(preset("almost-global-sweep"))
    doc["integrator"]["h"] = scale.mc_h
    doc["mc"]["runs"] = scale.mc_runs_projected
    if seed is not None:
        doc["seed"] = seed
    lifted = copy.deepcopy(doc)
    lifted["mc"].update(space="lifted", runs=scale.mc_runs_lifted)
    return [("sweep.projected", "sweep", doc), ("sweep.lifted", "sweep", lifted)]


def _verify_docs(seed, scale):
    s = 0 if seed is None else seed
    return [
        ("verify.so3-s2", "verify",
         {"instance": "so3-s2", "mode": "verify", "t_end": scale.verify_t_end, "seed": s}),
        # The so2-s1 state-convergence property needs about 15 s of decay from
        # the default pi/2 start; the default 10 s horizon does not reach 1e-6.
        ("verify.so2-s1", "verify",
         {"instance": "so2-s1", "mode": "verify", "t_end": scale.so2_t_end, "seed": s}),
    ]


_DOCS = {"single-runs": _single_run_docs, "mc-sweep": _sweep_docs, "verify-suite": _verify_docs}


def build_ops(workload: str, seed: int | None, scale: Scale = FULL) -> list[Op]:
    """Parse the workload's scenarios, as the CLI does from scenario files."""
    ops = []
    for label, kind, doc in _DOCS[workload](seed, scale):
        sc = parse_scenario(json.dumps(doc))
        ops.append(Op(label, kind, scenario_to_dict(sc), sc))
    return ops


# --- one pass ----------------------------------------------------------------

@dataclass
class OpResult:
    code: int | None
    error: str | None
    out_dir: str


def run_pass(ops: list[Op], out_root: str, before_op=None) -> tuple[list[OpResult], float]:
    """Run every operation once; returns the results and the pass wall time,
    the sum of the operations' wall times.  ``before_op``, if given, is called
    before each operation, outside the time measured."""
    results = []
    wall = 0.0
    for op in ops:
        if before_op is not None:
            before_op()
        out_dir = os.path.join(out_root, op.label)
        t0 = time.perf_counter()
        try:
            code = runner.run(op.scenario, out_dir, quiet=True)
            results.append(OpResult(code, None, out_dir))
        except Exception as exc:  # an aborting operation counts as failed
            results.append(OpResult(None, f"{type(exc).__name__}: {exc}", out_dir))
        wall += time.perf_counter() - t0
    return results, wall


def artifact_bytes(results: list[OpResult]) -> int:
    total = 0
    for r in results:
        for name in os.listdir(r.out_dir):
            total += os.path.getsize(os.path.join(r.out_dir, name))
    return total


# --- checks ------------------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed, and the accuracy margin, over a run."""

    attempted: int = 0
    failed: int = 0
    margin: float = MARGIN_CAP
    margin_at: str = ""
    failures: list[str] = field(default_factory=list)

    def op(self, label: str, checks: list[tuple[str, float, float, str]], error=None):
        """Record one operation.  A check is (name, residual, tolerance,
        bound).  Bound "max" (an accuracy tolerance) and "gate" (exact
        agreement, byte stability, seed-code reference) pass when residual <=
        tolerance, "min" (a negative control) when residual >= tolerance.
        Only "max" checks enter the accuracy margin."""
        self.attempted += 1
        bad = [] if error is None else [error]
        for name, res, tol, bound in checks:
            ok = res >= tol if bound == "min" else res <= tol
            if not ok:  # also catches NaN
                bad.append(f"{name}: residual {res:.3e} vs {bound} {tol:.1e}")
            if bound == "max" and _margin(res, tol) < self.margin:
                self.margin, self.margin_at = _margin(res, tol), f"{label}.{name}"
        if bad:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(bad)}")

    @property
    def pass_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted


def _margin(residual: float, tol: float) -> float:
    """Decades between a residual and its tolerance, within +-MARGIN_CAP."""
    if residual == 0.0:
        return MARGIN_CAP
    if not math.isfinite(residual):
        return -MARGIN_CAP
    return max(-MARGIN_CAP, min(MARGIN_CAP, math.log10(tol / residual)))


def _read_csv(path: str) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _max_abs_diff(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want))) if got.size else 0.0


def error_law_deviation(t: np.ndarray, theta: np.ndarray, k: float) -> float:
    """Worst gap to the autonomous law theta(t) = 2 atan(tan(theta0/2) e^{-kt})."""
    law = 2.0 * np.arctan(np.tan(0.5 * theta[0]) * np.exp(-k * t))
    return float(np.max(np.abs(theta - law)))


def digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def observe(op: Op, result: OpResult) -> dict:
    """The values a pass is judged on, read from the operation's artifacts."""
    summary = _read_json(os.path.join(result.out_dir, "summary.json"))
    if op.kind == "trajectory":
        csv = _read_csv(os.path.join(result.out_dir, "trajectory.csv"))
        return {"t": csv["t"], "theta": csv["theta"], "drift": csv["drift"],
                "summary": summary["summary"]}
    if op.kind == "sweep":
        mc = summary["monte_carlo"]
        return {"n_runs": mc["n_runs"], "convergence_fraction": mc["convergence_fraction"],
                "final_angles": [r["final_angle"] for r in mc["runs"]],
                "max_drift": max(r["max_drift"] for r in mc["runs"])}
    return {"properties": {p["name"]: p for p in summary["properties"]}}


def reference_record(op: Op, seen: dict) -> dict:
    """The part of an observation that reference.json pins."""
    if op.kind == "trajectory":
        return {"theta": seen["theta"].tolist()}
    if op.kind == "sweep":
        return {"convergence_fraction": seen["convergence_fraction"],
                "final_angles": seen["final_angles"]}
    return {name: p["max_residual"] for name, p in seen["properties"].items()}


def check_pass(ops, results, tally: Tally, reference: dict | None, digests: dict):
    """Judge one pass.  ``digests`` maps label to the artifact digest of the
    first pass of the same configuration; later passes must match it byte for
    byte.  ``reference`` (default configuration only) holds seed-code values."""
    for op, res in zip(ops, results):
        if op.kind == "verify":
            _check_verify(op, res, tally, reference, digests)
            continue
        if res.error is not None or res.code != runner.EXIT_OK:
            tally.op(op.label, [], res.error or f"exit code {res.code}")
            continue
        try:
            seen = observe(op, res)
        except (OSError, KeyError, ValueError) as exc:
            tally.op(op.label, [], f"unreadable artifacts: {exc}")
            continue
        checks = _stability(op, res, digests)
        if op.kind == "trajectory":
            checks.append(("drift", float(np.max(seen["drift"])), DRIFT_TOL, "max"))
            if op.doc["integrator"]["method"] == "rk4-project":
                dev = error_law_deviation(seen["t"], seen["theta"], op.doc["k"])
                checks.append(("error_law", dev, ERROR_LAW_TOL, "max"))
            if op.doc["mode"] == "co-sim":
                checks.append(("cosim", seen["summary"]["consistency_max_residual"],
                               COSIM_TOL, "max"))
            if reference is not None:
                checks.append(("reference.theta",
                               _max_abs_diff(seen["theta"], reference[op.label]["theta"]),
                               REFERENCE_TOL, "gate"))
        else:
            want = op.doc["mc"]["runs"]
            checks.append(("n_runs", abs(seen["n_runs"] - want), 0, "gate"))
            checks.append(("convergence", 1.0 - seen["convergence_fraction"], 0.0, "gate"))
            checks.append(("drift", seen["max_drift"], DRIFT_TOL, "max"))
            if reference is not None:
                ref = reference[op.label]
                checks.append(("reference.convergence",
                               abs(seen["convergence_fraction"] - ref["convergence_fraction"]),
                               0.0, "gate"))
                checks.append(("reference.final_angles",
                               _max_abs_diff(seen["final_angles"], ref["final_angles"]),
                               REFERENCE_TOL, "gate"))
        tally.op(op.label, checks)


def _stability(op, res, digests) -> list:
    d = digest(res.out_dir)
    first = digests.setdefault(op.label, d)
    return [("byte_stable", 0.0 if d == first else 1.0, 0.0, "gate")]


def _check_verify(op, res, tally, reference, digests):
    """Each property of a verify scenario is one operation."""
    circle = op.doc["instance"] == "so2-s1"
    names = [n for n in VERIFY_PROPERTIES if n.startswith("so2_") == circle]
    if res.error is not None or res.code not in (runner.EXIT_OK, runner.EXIT_PROPERTY_FAILURE):
        for n in names:
            tally.op(f"{op.label}.{n}", [], res.error or f"exit code {res.code}")
        return
    try:
        props = observe(op, res)["properties"]
    except (OSError, KeyError, ValueError) as exc:
        for n in names:
            tally.op(f"{op.label}.{n}", [], f"unreadable artifacts: {exc}")
        return
    stable = _stability(op, res, digests)
    for extra in sorted(set(props) - set(names)):
        tally.op(f"{op.label}.{extra}", [], "property not in the benchmark's list")
    for n in names:
        tol, bound = VERIFY_PROPERTIES[n]
        if n not in props:
            tally.op(f"{op.label}.{n}", [], "property missing from summary.json")
            continue
        p = props[n]
        checks = [(n, p["max_residual"], tol, bound)] + stable
        if (p["tolerance"], p["bound"]) != (tol, bound):
            checks.append(("declared_tolerance", 1.0, 0.0, "gate"))
        if reference is not None:
            checks.append(("reference", abs(p["max_residual"] - reference[op.label][n]),
                           REFERENCE_TOL, "gate"))
        tally.op(f"{op.label}.{n}", checks)
