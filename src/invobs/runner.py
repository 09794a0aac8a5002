"""Batch execution: run a scenario, write trajectory.csv and summary.json.

Artifacts are deterministic: trajectory numbers are printed with 17
significant digits and the summary echoes the fully resolved scenario, so a
run can be reproduced bit for bit from its own output.  Exit codes: 0 on
success, 1 when a verify-mode property fails, 2 on input errors, 3 when a
simulation aborts.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import __version__
from .observer import check_synchrony
from .scenario import Scenario, scenario_to_dict
from .simulate import (
    MonteCarloResult,
    TrajectoryRecord,
    _simulate,
    closed_form_deviation,
    monte_carlo,
    so2_oracle_run,
    summarize,
)
from .verify import COSIM_TOL, SYNCHRONY_TOL, PropertyCheck, run_verification

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_RUNTIME_ABORT = 3

CSV_COLUMNS = ("t", "y_x", "y_y", "y_z", "yhat_x", "yhat_y", "yhat_z", "theta", "drift")


def write_trajectory_csv(path: str, rec: TrajectoryRecord):
    rows = np.column_stack((rec.t, rec.y, rec.yhat, rec.theta, rec.drift))
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=",".join(CSV_COLUMNS), comments="")


def _write_summary(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _base_payload(sc: Scenario) -> dict:
    return {
        "schema_version": 1,
        "code_version": __version__,
        "scenario": scenario_to_dict(sc),
    }


def _property_dicts(checks: list[PropertyCheck]) -> list[dict]:
    """One row per property; a non-finite residual is written as null (strict
    JSON has no NaN or Infinity), and the row's ``passed`` keeps the verdict."""
    return [
        {"name": c.name, "max_residual": c.residual if np.isfinite(c.residual) else None,
         "tolerance": c.tolerance, "bound": c.bound, "passed": c.passed}
        for c in checks
    ]


def run(sc: Scenario, out_dir: str, quiet: bool = False) -> int:
    """Execute a scenario and write its artifacts into out_dir."""
    os.makedirs(out_dir, exist_ok=True)

    def say(msg):
        if not quiet:
            print(msg)

    payload = _base_payload(sc)
    code = EXIT_OK

    if sc.mode == "verify":
        checks = run_verification(sc)
        payload["properties"] = _property_dicts(checks)
        failed = [c for c in checks if not c.passed]
        payload["passed"] = not failed
        code = EXIT_PROPERTY_FAILURE if failed else EXIT_OK
        for c in checks:
            mark = "pass" if c.passed else "FAIL"
            rel = "<=" if c.bound == "max" else ">="
            say(f"[{mark}] {c.name}: residual {c.residual:.3e} {rel} {c.tolerance:.1e}")
        say(f"verification: {len(checks) - len(failed)}/{len(checks)} properties passed")
    elif sc.mode == "monte-carlo":
        result: MonteCarloResult = monte_carlo(sc)
        payload["monte_carlo"] = {
            "n_runs": sc.mc.runs,
            "seed": sc.seed,
            "threshold": sc.mc.threshold,
            "converged": int(round(result.convergence_fraction * sc.mc.runs)),
            "convergence_fraction": result.convergence_fraction,
            "runs": [dict(vars(s)) for s in result.summaries],
        }
        say(f"monte carlo: {result.convergence_fraction:.4f} of {sc.mc.runs} runs "
            f"below {sc.mc.threshold:g} rad")
    else:
        # The circle oracle steps the pair itself; its record is the run's.
        so2_oracle = sc.instance == "so2-s1" and sc.mode in ("projected", "lifted")
        oracle = so2_oracle_run(sc) if so2_oracle else None
        rec = oracle.record if oracle else _simulate(sc)
        summary = summarize(rec)
        payload["summary"] = dict(vars(summary))
        if sc.mode in ("projected", "lifted"):
            payload["summary"]["closed_form_max_deviation"] = (
                closed_form_deviation(rec, sc.k) if sc.instance == "so3-s2" else None
            )
        if sc.mode == "co-sim":
            resid = float(np.max(rec.consistency))
            payload["summary"]["consistency_max_residual"] = resid
            payload["summary"]["consistency_passed"] = resid <= COSIM_TOL
        if sc.mode == "synchrony":
            delta = check_synchrony(rec.theta)
            payload["summary"]["synchrony_max_delta"] = delta
            payload["summary"]["synchrony_passed"] = delta <= SYNCHRONY_TOL
        if oracle:
            payload["summary"]["oracle_max_deviation"] = oracle.worst_deviation
            payload["summary"]["final_state_error"] = oracle.final_state_error
        write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), rec)
        say(f"final error angle: {summary.final_angle:.3e} rad "
            f"(samples: {len(rec.t)}, max drift: {summary.max_drift:.3e})")

    _write_summary(os.path.join(out_dir, "summary.json"), payload)
    return code

