"""Golden trajectories: every simulation path, under both integrators, held to
values recorded before the time loops were merged into one stepping engine.

The fixture ``data/golden.json`` is written by running this file as a script
(``PYTHONPATH=src python tests/test_golden.py``).  Regenerate it only for a
change that is meant to move trajectories, and say so in the change log.
"""

import json
import os

import numpy as np
import pytest
from conftest import build_scenario

from invobs import (
    monte_carlo,
    simulate_circle,
    simulate_cosim,
    simulate_lifted,
    simulate_projected,
)
from invobs.simulate import so2_oracle_run

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden.json")
TOL = 1e-12
METHODS = ("rk4-project", "lie-euler")

SINUSOID = {"kind": "sinusoid", "amplitude": [1.0, 0.5, 0.8], "frequency": 0.5, "phase": 0.3}
SO3_INIT = {"plant": {"axis_angle": [0.3, -0.2, 0.5]}, "observer": {"axis_angle": [1.7, -0.4, 0.3]}}
SO2_BASE = {
    "k": 1.0, "t_end": 2.0, "sample_every": 100,
    "input": {"kind": "sinusoid", "amplitude": [0.8], "frequency": 0.4, "phase": 0.2},
    "init": {"plant": {"angle": 0.3}, "observer": {"angle": 2.2}},
}
SO3_RUNS = {
    "projected": simulate_projected,
    "synchrony": simulate_projected,
    "lifted": simulate_lifted,
    "co-sim": simulate_cosim,
}


def _trajectory(rec) -> dict:
    out = {"t": rec.t, "theta": rec.theta, "y": rec.y, "yhat": rec.yhat}
    if rec.consistency is not None:
        out["consistency"] = rec.consistency
    return {k: np.asarray(v).tolist() for k, v in out.items()}


def compute() -> dict:
    """Every case of the fixture, as plain JSON values."""
    cases = {}
    for method in METHODS:
        integ = {"method": method, "h": 1e-3}
        for mode, fn in SO3_RUNS.items():
            sc = build_scenario(mode=mode, k=1.3, input=SINUSOID, t_end=0.5, sample_every=50,
                                integrator=integ, init=SO3_INIT)
            cases[f"so3-s2.{mode}.{method}"] = _trajectory(fn(sc))
        for mode in ("projected", "synchrony", "co-sim"):
            sc = build_scenario("so2-s1", mode=mode, integrator=integ, **SO2_BASE)
            cases[f"so2-s1.{mode}.{method}"] = _trajectory(simulate_circle(sc))
        res = so2_oracle_run(build_scenario("so2-s1", mode="verify", integrator=integ, **SO2_BASE))
        cases[f"so2-s1.oracle.{method}"] = dict(
            _trajectory(res.record), observer_deviation=res.observer_deviation,
            plant_deviation=res.plant_deviation, final_state_error=res.final_state_error)
        for space in ("projected", "lifted"):
            sc = build_scenario(mode="monte-carlo", k=1.0, input=SINUSOID, t_end=8.0,
                                sample_every=10, seed=5, integrator=dict(integ, h=1e-2),
                                mc={"runs": 30, "space": space, "threshold": 1e-3})
            res = monte_carlo(sc)
            cases[f"so3-s2.sweep-{space}.{method}"] = {
                "final_angle": [s.final_angle for s in res.summaries],
                "t_converged": [s.t_converged for s in res.summaries],
                "convergence_fraction": res.convergence_fraction,
            }
    return cases


def _gap(got, want) -> float:
    """Worst absolute gap; None (a run that never converged) must match None."""
    got = np.array(got, dtype=float)  # None -> nan
    want = np.array(want, dtype=float)
    if got.shape != want.shape or not np.array_equal(np.isnan(got), np.isnan(want)):
        return np.inf
    d = np.abs(got - want)[~np.isnan(want)]
    return float(d.max()) if d.size else 0.0


@pytest.fixture(scope="module")
def computed():
    return compute()


GOLDEN = {}
if os.path.exists(FIXTURE):
    with open(FIXTURE) as _fh:
        GOLDEN = json.load(_fh)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_case(computed, case):
    want = GOLDEN[case]
    got = computed[case]
    assert sorted(got) == sorted(want)
    for field, value in want.items():
        assert _gap(got[field], value) <= TOL, (case, field)


def test_golden_covers_every_case(computed):
    assert sorted(computed) == sorted(GOLDEN)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    cases = compute()
    with open(FIXTURE, "w") as fh:  # one case per line
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(cases[k], sort_keys=True)}"
                                      for k in sorted(cases)) + "\n}\n")
    print(f"wrote {FIXTURE}")
