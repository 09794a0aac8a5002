"""The benchmark in ``bench/`` drives invobs from outside the package: it imports
public names and shims layer functions and methods by name.  A rename or
deletion that would break every benchmark run fails here instead."""

import os

import invobs.simulate
import invobs.so3

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_benchmark_view_of_invobs_resolves(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import layers  # noqa: F401  every public name the microbenchmarks call
    import tracing

    original = invobs.so3.orthonormalize
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert invobs.simulate.orthonormalize is not original
    finally:
        tracer.remove()
    assert invobs.simulate.orthonormalize is original
    assert invobs.so3.orthonormalize is original


def test_traced_cosim_counts_its_steps_once(monkeypatch, make_scenario):
    """The tracer adds a run's step count at each public stepping entry point
    it passes through.  Co-simulation steps its two pairs through the private
    engine, so a traced 0.1 s run at h = 1e-3 counts 100 steps, not 300."""
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    sc = make_scenario(mode="co-sim", t_end=0.1, integrator={"h": 1e-3})
    tracer = tracing.Tracer()
    try:
        tracer.install()
        invobs.simulate.simulate_cosim(sc)
    finally:
        tracer.remove()
    assert tracer.steps == 100
