"""Per-layer metrics: microbenchmarks on fixed seeded inputs, and figures
derived from a traced pass.

Microbenchmarks call only public names, with a warm-up call first, and report
the median per call over several samples together with the number of calls
timed.  The private ``_batch`` helpers of ``invobs.simulate`` are not timed on
their own; the batched sweeps reach them through ``monte_carlo``.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np

from invobs import (
    InputSignal,
    SphereCost,
    act,
    closed_form_deviation,
    compose,
    fit_rate,
    group_exp,
    hat,
    monte_carlo,
    orthonormalize,
    parse_scenario,
    preset,
    random_rotation,
    scenario_to_dict,
    simulate_circle,
    simulate_cosim,
    simulate_lifted,
    simulate_projected,
    summarize,
    unit,
)
from invobs.runner import write_trajectory_csv

from tracing import summarize as summarize_trace

MICRO_SEED = 20081004


def per_call(fn, budget_s: float, samples: int = 7) -> tuple[float, int]:
    """Median seconds per call of fn() and the number of calls timed."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    n = max(1, int(budget_s / samples / once))
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times), n * samples


def _scenario(doc: dict):
    return parse_scenario(json.dumps(doc))


def _preset_doc(name: str, **over) -> dict:
    doc = scenario_to_dict(preset(name))
    doc.update(over)
    return doc


def microbenchmarks(out_dir: str, budget_s: float, step_t_end: float) -> dict[str, tuple]:
    """name -> (value, unit, calls timed)."""
    rng = np.random.default_rng(MICRO_SEED)
    res: dict[str, tuple] = {}

    def add(name, unit_, scale, fn, budget=budget_s):
        sec, n = per_call(fn, budget)
        res[name] = (sec * scale, unit_, n)

    text = json.dumps(_preset_doc("autonomy-demo"))
    add("scenario.parse_us", "us", 1e6, lambda: parse_scenario(text))

    w = rng.standard_normal(3)
    X = group_exp(rng.standard_normal(3))
    Y = group_exp(rng.standard_normal(3))
    X_drifted = X + 1e-9 * rng.standard_normal((3, 3))  # the defect after one RK4 step
    y = unit(rng.standard_normal(3))
    add("so3.hat_us", "us", 1e6, lambda: hat(w))
    add("so3.group_exp_us", "us", 1e6, lambda: group_exp(w))
    add("so3.orthonormalize_us", "us", 1e6, lambda: orthonormalize(X_drifted))
    add("so3.act_us", "us", 1e6, lambda: act(X, y))
    add("so3.compose_us", "us", 1e6, lambda: compose(X, Y))
    add("so3.unit_us", "us", 1e6, lambda: unit(w))

    autonomy = preset("autonomy-demo").input
    signals = {
        "constant": InputSignal.constant([0.3, -0.2, 0.5]),
        "sinusoid": preset("metni-s2").input,
        "piecewise-constant": autonomy.terms[1],
        "sum": autonomy,
    }
    for kind, sig in signals.items():
        add(f"systems.input_eval_us.{kind}", "us", 1e6, lambda sig=sig: sig.eval(3.7))

    cost = SphereCost(1.0)
    yh = unit(rng.standard_normal(3))
    add("observer.grad1_us", "us", 1e6, lambda: cost.grad1(yh, y))

    steps = {
        "simulate.projected.rk4.step_us":
            (simulate_projected, "metni-s2", "projected", "rk4-project"),
        "simulate.projected.lie.step_us":
            (simulate_projected, "metni-s2", "projected", "lie-euler"),
        "simulate.lifted.rk4.step_us":
            (simulate_lifted, "explicit-complementary", "lifted", "rk4-project"),
        "simulate.lifted.lie.step_us":
            (simulate_lifted, "explicit-complementary", "lifted", "lie-euler"),
        "simulate.cosim.rk4.step_us":
            (simulate_cosim, "explicit-complementary", "co-sim", "rk4-project"),
    }
    for name, (fn, pre, mode, method) in steps.items():
        sc = _scenario(_preset_doc(pre, mode=mode, t_end=step_t_end,
                                   integrator={"method": method, "h": 1e-3}))
        n_steps = round(step_t_end / 1e-3)
        add(name, "us", 1e6 / n_steps, lambda fn=fn, sc=sc: fn(sc), budget=4 * budget_s)

    circle = _scenario({"instance": "so2-s1", "t_end": step_t_end})
    add("simulate.circle.step_us", "us", 1e6 / round(step_t_end / 1e-3),
        lambda: simulate_circle(circle), budget=2 * budget_s)

    for space, runs in (("projected", 1000), ("lifted", 200)):
        sweep_t_end = 3.0
        sc = _scenario(_preset_doc("almost-global-sweep", t_end=sweep_t_end,
                                   integrator={"method": "rk4-project", "h": 0.01},
                                   mc={"runs": runs, "space": space, "threshold": 1e-3}))
        add(f"simulate.mc.{space}.run_step_us", "us", 1e6 / (runs * round(sweep_t_end / 0.01)),
            lambda sc=sc: monte_carlo(sc), budget=6 * budget_s)

    # Post-processing on one full-length record: 1001 samples of a 10 s run.
    rec_sc = _scenario(_preset_doc("metni-s2", sample_every=1,
                                   integrator={"method": "rk4-project", "h": 0.01}))
    rec = simulate_projected(rec_sc)
    add("simulate.fit_rate_us", "us", 1e6, lambda: fit_rate(rec.t, rec.theta))
    add("simulate.summarize_us", "us", 1e6, lambda: summarize(rec))
    add("simulate.closed_form_deviation_us", "us", 1e6, lambda: closed_form_deviation(rec, 1.0))
    csv_path = os.path.join(out_dir, "micro-trajectory.csv")
    add("runner.csv_write_ms", "ms", 1e3, lambda: write_trajectory_csv(csv_path, rec))

    draw_rng = np.random.default_rng(MICRO_SEED)
    add("sampling.random_rotation_us", "us", 1e6, lambda: random_rotation(draw_rng, 200))
    return res


# --- figures from a traced pass ----------------------------------------------

# Span name -> verify property.  The two dual-use calls carry a label telling
# the invariant case from its negative control.  Both so2-s1 properties come
# from one oracle run, so they share one figure.
PROPERTY_SPANS = {
    "verify.cost_closed_forms_residual": "cost_closed_forms",
    "verify.innovation_cross_form_residual": "innovation_cross_form",
    "verify.metric_identity_residual": "metric_trace_identity",
    "observer.check_innovation_equivariance[SphereCost]": "innovation_equivariance",
    "observer.check_innovation_equivariance[AnisotropicCost]": "equivariance_negative_control",
    "verify.lift_round_trip_residual": "horizontal_lift_round_trip",
    "verify.lifted_gradient_identity_residual": "lifted_gradient_identity",
    "verify.observer_two_forms_residual": "observer_two_forms",
    "verify.gradient_fd_residual": "cost_gradient_fd",
    "verify.lifted_gradient_fd_residual": "lifted_cost_gradient_fd",
    "verify.invariant_cost_construction_residual": "invariant_cost_construction",
    "verify.synchrony_residual": "synchrony_constancy",
    "verify.autonomy_spread[invariant]": "autonomy_spread",
    "verify.autonomy_spread[control]": "autonomy_negative_control",
    "verify.cosim_residual": "cosim_projection_consistency",
    "verify.antipodal_stationarity_residual": "antipodal_stationarity",
    "simulate.so2_oracle_run": "so2_oracle",
}
SIMULATION_PROPERTIES = ("synchrony_constancy", "autonomy_spread", "autonomy_negative_control",
                         "cosim_projection_consistency", "antipodal_stationarity", "so2_oracle")

# Layers whose self share every workload exercises.
SHARE_LAYERS = ("so3", "systems", "simulate", "runner", "scenario", "harness")


def traced_figures(record: dict, untraced_wall_s: float, bytes_written: int) -> dict[str, tuple]:
    """Counts and shares from one traced workload pass."""
    t = summarize_trace(record)
    calls, self_s = t["calls"], t["self_s"]
    wall, steps = record["wall_s"], max(1, record["steps"])
    res: dict[str, tuple] = {}
    for fn in ("orthonormalize", "group_exp", "compose"):
        res[f"so3.{fn}.calls_per_step"] = (calls.get(f"so3.{fn}", 0) / steps, "1/step")
    res["numpy.cross.calls_per_step"] = (calls.get("numpy.cross", 0) / steps, "1/step")
    res["numpy.cross.self_share"] = (self_s.get("numpy.cross", 0.0) / wall, "ratio")
    res["numpy.linalg.svd.self_share"] = (self_s.get("numpy.linalg.svd", 0.0) / wall, "ratio")
    res["sampling.draw_calls"] = (calls.get("sampling.random_unit", 0)
                                  + calls.get("sampling.random_rotation", 0), "count")
    res["runner.self_ms"] = (self_s.get("runner.run", 0.0) * 1e3, "ms")
    res["runner.bytes_written"] = (bytes_written, "bytes")
    for layer in SHARE_LAYERS:
        res[f"trace.{layer}.self_share"] = (t["layer_self_s"].get(layer, 0.0) / wall, "ratio")
    res["trace.overhead_frac"] = (wall / untraced_wall_s - 1.0, "ratio")
    return res


def self_time_table(record: dict) -> dict[str, float]:
    """Seconds of self time per layer; the entries sum to the pass wall time."""
    return dict(sorted(summarize_trace(record)["layer_self_s"].items(), key=lambda kv: -kv[1]))


def verify_figures(record: dict) -> dict[str, tuple]:
    """Inclusive seconds per verify property, from a traced verify pass."""
    total = summarize_trace(record)["total_s"]
    per_prop: dict[str, float] = {}
    for span, prop in PROPERTY_SPANS.items():
        per_prop[prop] = per_prop.get(prop, 0.0) + total.get(span, 0.0)
    res = {f"verify.{p}.s": (v, "s") for p, v in per_prop.items()}
    res["verify.algebraic_s"] = (sum(v for p, v in per_prop.items()
                                     if p not in SIMULATION_PROPERTIES), "s")
    res["verify.simulation_s"] = (sum(per_prop[p] for p in SIMULATION_PROPERTIES), "s")
    return res
