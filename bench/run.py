"""Benchmark for invobs: end-to-end figures per workload, or per-layer figures
from a traced run.

    python3 bench/run.py --workload single-runs --seed 1 --seconds 50 --trace 0

Workloads: ``single-runs``, ``mc-sweep``, ``verify-suite`` (see
``bench/README.md``).  One process, one closed-loop client, BLAS and OpenMP
pinned to one thread.  Every metric is printed by name with its unit; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics from passes repeated for ``--seconds``, with the host's
speed sampled between operations (``calibration.py``); ``--trace 1``
reports the per-layer ones from a fixed set of microbenchmarks and passes.  ``--smoke`` runs one
tiny pass with no timing claims, for the benchmark's own tests.

Exits 2 when the invobs sources are not next to the benchmark.
"""

import os

PINNED_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_SAMPLES = 9
MIN_PASSES = 3


def _import_invobs():
    """Import the package from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "invobs", "__init__.py")):
        print(f"error: invobs sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import invobs

    if os.path.dirname(os.path.dirname(os.path.abspath(invobs.__file__))) != SRC:
        print(f"error: imported invobs from {invobs.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


_import_invobs()

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from calibration import Calibration  # noqa: E402
from tracing import Tracer  # noqa: E402


def environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pinned_threads": PINNED_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def setup_probe(workload: str, seed: int, scale_name: str):
    """A callable returning the seconds a fresh interpreter takes to import
    invobs (CLI included) and parse the workload's scenarios."""
    code = (
        "import time; t0 = time.perf_counter()\n"
        "import sys; sys.path[:0] = [{src!r}, {bench!r}]\n"
        "import invobs.cli, workloads\n"
        "workloads.build_ops({workload!r}, {seed!r}, workloads.{scale})\n"
        "print(repr(time.perf_counter() - t0))\n"
    ).format(src=SRC, bench=BENCH, workload=workload, seed=seed, scale=scale_name)

    def probe() -> float:
        proc = subprocess.run([sys.executable, "-c", code], env=os.environ.copy(),
                              capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.strip().splitlines()[-1])

    return probe


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Runner:
    """Runs passes of one workload in a scratch directory and tallies checks."""

    def __init__(self, workload: str, seed: int, scale, work_dir: str):
        self.scale = scale
        self.default_ops = workloads.build_ops(workload, None, scale)
        self.ops = workloads.build_ops(workload, seed, scale)
        self.work_dir = work_dir
        self.tally = workloads.Tally()
        self._digests = {"default": {}, "seeded": {}}

    def reference_pass(self, reference: dict):
        """Default configuration, compared with the seed-code values; also
        warms every cache before timing."""
        return self._pass(self.default_ops, "default", reference)

    def seeded_pass(self, before_op=None):
        return self._pass(self.ops, "seeded", None, before_op)

    def _pass(self, ops, key, reference, before_op=None):
        gc.collect()
        results, wall = workloads.run_pass(ops, os.path.join(self.work_dir, key), before_op)
        workloads.check_pass(ops, results, self.tally, reference, self._digests[key])
        return results, wall

    def traced_pass(self, tracer: Tracer, label: str, ops=None):
        ops = self.ops if ops is None else ops
        gc.collect()
        out_root = os.path.join(self.work_dir, "traced-" + label)
        tracer.install()
        try:
            (results, _), record = tracer.run_pass(
                label, lambda: workloads.run_pass(ops, out_root))
        finally:
            tracer.remove()
        workloads.check_pass(ops, results, self.tally, None, {})
        return results, record


def end_to_end(args, runner: Runner, reference: dict, scale_name: str):
    """Untraced passes: the end-to-end metrics and their raw samples."""
    # Set-up samples are spread over the run, between passes, so that a
    # slow or fast spell of the machine does not decide their median.
    probe = setup_probe(args.workload, args.seed, scale_name)
    n_setup = 1 if args.smoke else SETUP_SAMPLES
    setup = [probe()]
    if not args.smoke:
        runner.reference_pass(reference)
    walls = []
    calibration = Calibration(args.workload)
    start = time.perf_counter()
    while True:
        walls.append(runner.seeded_pass(calibration)[1])
        if len(setup) < n_setup:
            setup.append(probe())
        elapsed = time.perf_counter() - start
        if args.smoke or (len(walls) >= MIN_PASSES
                          and elapsed + statistics.median(walls) > args.seconds):
            break
    while len(setup) < n_setup:
        setup.append(probe())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = statistics.fmean(walls)
    detail = {"pass_wall_s": {"samples": walls, "quartiles": quartiles(walls), "mean": wall},
              "calibration": {"mean_chunk_s": statistics.fmean(calibration.samples),
                              "chunks": len(calibration.samples),
                              "scale": calibration.scale()},
              "setup_s": {"samples": setup},
              "accuracy_margin_decades": {"check": runner.tally.margin_at}}
    return {
        "scaled_wall_s": (wall * calibration.scale(), "s", len(walls)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "pass_frac": (runner.tally.pass_frac, "ratio", runner.tally.attempted),
        "accuracy_margin_decades": (runner.tally.margin, "decades", runner.tally.attempted),
    }, detail


def per_layer(args, runner: Runner, reference: dict):
    """Microbenchmarks, then untraced and traced passes of the workload."""
    budget = 0.01 if args.smoke else 0.15
    os.makedirs(runner.work_dir, exist_ok=True)
    metrics = layers.microbenchmarks(runner.work_dir, budget, 0.02 if args.smoke else 0.2)
    if not args.smoke:
        runner.reference_pass(reference)
    untraced = [runner.seeded_pass()[1] for _ in range(1 if args.smoke else 2)]
    tracer = Tracer()
    results, record = runner.traced_pass(tracer, args.workload)
    figures = layers.traced_figures(record, statistics.median(untraced),
                                    workloads.artifact_bytes(results))
    metrics.update({k: (v, u, 1) for k, (v, u) in figures.items()})
    if args.workload == "verify-suite":
        verify_record = record
    else:
        verify_ops = workloads.build_ops("verify-suite", args.seed, runner.scale)
        _, verify_record = runner.traced_pass(tracer, "verify-suite", verify_ops)
    metrics.update({k: (v, u, 1) for k, (v, u) in layers.verify_figures(verify_record).items()})
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json.gz"))
    return metrics, {"untraced_wall_s": untraced, "traced_wall_s": record["wall_s"],
                     "self_time_s": layers.self_time_table(record)}


def declared_metrics(trace: int) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one tiny pass per run; checks schema and correctness only")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        p.error("--seed must be a non-negative 64-bit integer")

    scale_name = "SMOKE" if args.smoke else "FULL"
    scale = getattr(workloads, scale_name)
    with open(os.path.join(BENCH, "reference.json")) as fh:
        reference = json.load(fh)[args.workload]
    env = environment(args)

    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        runner = Runner(args.workload, args.seed, scale, work_dir)
        if args.trace:
            measured, detail = per_layer(args, runner, reference)
        else:
            measured, detail = end_to_end(args, runner, reference, scale_name)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    declared = declared_metrics(args.trace)
    metrics = {}
    for m in declared:
        value, unit, n = measured[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']} is measured in {unit}, declared in {m['unit']}")
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
        print(f"{m['name']:<48} {value:>14.6g} {m['unit']:<8} (n={n})")
    if "calibration" in detail:
        cal = detail["calibration"]
        print(f"mean pass wall time {detail['pass_wall_s']['mean']:.4f} s, scaled by "
              f"{cal['scale']:.4f} (calibration chunk {cal['mean_chunk_s']:.6f} s, mean of "
              f"{cal['chunks']})")
    if "self_time_s" in detail:
        table = detail["self_time_s"]
        print(f"self time by layer over the traced pass ({detail['traced_wall_s']:.4f} s): "
              + ", ".join(f"{k} {v:.4f} s" for k, v in table.items())
              + f"; sum {sum(table.values()):.4f} s")
    tally = runner.tally
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {"environment": env, "result": result, "detail": detail,
              "failures": tally.failures}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
