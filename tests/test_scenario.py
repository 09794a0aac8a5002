"""Scenario parsing, validation messages, presets, and round-tripping."""

import copy
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invobs
from invobs import (
    ScenarioError,
    closed_form_deviation,
    parse_scenario,
    preset,
    scenario_to_dict,
    simulate_lifted,
    simulate_projected,
)
from invobs.scenario import (
    INSTANCES,
    MAX_MC_RUNS,
    MAX_MC_VALUES,
    MAX_RUN_SAMPLES,
    MODES,
    preset_names,
    scenario_from_dict,
)


def parse(doc):
    return parse_scenario(json.dumps(doc))


def test_minimal_document_gets_defaults():
    sc = parse({"instance": "so3-s2", "k": 1.0})
    assert sc.mode == "projected"
    assert np.array_equal(sc.y0, [0.0, 0.0, 1.0])
    assert sc.integrator.method == "rk4-project" and sc.integrator.h == 1e-3
    assert sc.t_end == 10.0 and sc.sample_every == 10 and sc.seed == 0
    assert sc.input.kind == "constant"
    y, yhat = sc.initial_sphere_pair()
    assert np.allclose(y, [0, 0, 1], atol=1e-15)
    assert abs(float(y @ yhat)) <= 1e-12  # default observer offset is a quarter turn


def test_invalid_json_rejected():
    with pytest.raises(ScenarioError, match="invalid JSON"):
        parse_scenario("{not json")


@pytest.mark.parametrize("doc,fragment", [
    ({"instance": "so5"}, "instance"),
    ({"instance": "so3-s2", "mode": "warp"}, "mode"),
    ({"instance": "so3-s2", "k": -1.0}, "k must be positive"),
    ({"instance": "so3-s2", "k": 0}, "k must be positive"),
    ({"instance": "so3-s2", "y0": [0, 0, 2]}, "y0 not unit norm"),
    ({"instance": "so3-s2", "y0": [0, 0]}, "y0"),
    ({"instance": "so3-s2", "bogus": 1}, "bogus"),
    ({"instance": "so3-s2", "input": {"kind": "constant", "amplitude": [1, 0, 0], "extra": 2}}, "extra"),
    ({"instance": "so3-s2", "input": {"kind": "blip"}}, "input.kind"),
    ({"instance": "so3-s2", "input": {"kind": "constant", "amplitude": [1, 0]}}, "input.amplitude"),
    ({"instance": "so3-s2", "integrator": {"h": 0.02}}, "integrator"),
    ({"instance": "so3-s2", "integrator": {"h": -1}}, "integrator"),
    ({"instance": "so3-s2", "integrator": {"method": "euler"}}, "integrator"),
    ({"instance": "so3-s2", "t_end": 0.0}, "t_end"),
    ({"instance": "so3-s2", "sample_every": 0}, "sample_every"),
    ({"instance": "so3-s2", "seed": -1}, "seed"),
    ({"instance": "so3-s2", "seed": 1.5}, "seed"),
    ({"instance": "so3-s2", "init": {"observer": {"direction": [0, 0, 2]}}}, "not unit norm"),
    ({"instance": "so3-s2", "init": {"observer": {"rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 2]]}}},
     "special-orthogonal"),
    ({"instance": "so3-s2", "init": {"observer": {"direction": [0, 0, 1], "angle": 1}}}, "init.observer"),
    ({"instance": "so3-s2", "mc": {"runs": 10}}, "monte-carlo"),
    ({"instance": "so3-s2", "mode": "monte-carlo", "mc": {"runs": 0}}, "mc.runs"),
    ({"instance": "so3-s2", "mode": "monte-carlo", "mc": {"space": "elsewhere"}}, "mc.space"),
    ({"instance": "so2-s1", "mode": "monte-carlo"}, "so3-s2"),
    ({"instance": "so2-s1", "y0": [1, 0, 0]}, "y0"),
    ({"instance": "so3-s2", "schema_version": 99}, "schema_version"),
    ({"instance": "so3-s2", "t_end": 1e30}, "^t_end "),
    ({"instance": "so3-s2", "t_end": 100001.0, "integrator": {"h": 1e-3}}, "^t_end "),
    ({"instance": "so3-s2", "input": {"kind": "piecewise-constant", "times": [None],
                                      "values": [[0, 0, 0], [1, 0, 0]]}}, r"^input\.times "),
    ({"instance": "so3-s2", "input": {"kind": "piecewise-constant", "times": [[0.01]],
                                      "values": [[0, 0, 0], [1, 0, 0]]}}, r"^input\.times "),
    ({"instance": "so3-s2", "input": {"kind": "constant", "amplitude": [10 ** 400, 0, 0]}},
     r"^input\.amplitude "),
    ({"instance": "so3-s2", "y0": [0, 0, 10 ** 400]}, "^y0 "),
    ({"instance": "so3-s2", "init": {"observer": {"axis_angle": [1e308, 1e308, 0]}}},
     r"^init\.observer\.axis_angle "),
    ({"instance": "so3-s2", "mode": "monte-carlo", "mc": {"runs": 10 ** 9, "space": "lifted"}},
     r"^mc\.runs "),
    ({"instance": "so3-s2", "mode": "monte-carlo", "t_end": 1000.0, "sample_every": 1},
     r"^mc\.runs "),
    ({"instance": "so3-s2", "integrator": {"method": None}}, r"^integrator\.method "),
    ({"instance": "so3-s2", "seed": float("inf")}, "^seed "),
    ({"instance": "so3-s2", "sample_every": 2.0 ** 64}, "^sample_every "),
    ({"instance": "so3-s2", "init": {"observer": {"rotation": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}}},
     "special-orthogonal"),
    ({"instance": "so3-s2", "t_end": 100000, "sample_every": 1}, "^t_end .*sample_every"),
    ({"instance": "so3-s2", "mode": "monte-carlo", "mc": {"runs": 1}, "t_end": 40000,
      "sample_every": 1}, "^t_end .*sample_every"),
    ({"instance": "so3-s2", "t_end": 0.0115}, r"^t_end .*integrator\.h"),
    ({"instance": "so3-s2", "t_end": 1.0005}, r"^t_end .*integrator\.h"),
    ({"instance": "so3-s2", "input": {"kind": "sinusoid", "amplitude": [1, 0, 0]}},
     "missing required field 'input.frequency'"),
    ({"instance": "so3-s2", "y0": [0, 0, float("inf")]}, "^y0 must be finite"),
    ({"instance": "so3-s2", "input": {"kind": "sum", "terms": []}},
     r"^input\.terms must be a non-empty list"),
    ({"instance": "so3-s2", "init": {"observer": {"direction": [0, 0, 1], "axis_angle": [0, 0, 1]}}},
     r"^init\.observer needs exactly one of"),
    ([], "must be a JSON object"),
    ({"instance": "so3-s2", "input": {"kind": "sinusoid", "amplitude": [1, 0, 0], "frequency": -1}},
     r"^input\.frequency must be nonnegative"),
    ({"instance": "so2-s1", "init": {"observer": {}}}, r"missing required field 'init\.observer\.angle'"),
])
def test_validation_errors_name_the_field(doc, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse(doc)


def test_step_count_limit():
    # 10**8 steps of the default h parse when few enough are recorded; the run
    # itself is not started.
    assert parse({"instance": "so3-s2", "t_end": 1e5, "sample_every": 1000}).t_end == 1e5


def test_run_sample_limit():
    # A run records its initial state, each stride and the last step: 999 999
    # steps recorded every step reach the bound, and a stride of 2 over
    # 1 999 999 steps (its last step recorded too) passes it by one.  The runs
    # are not started.
    doc = {"instance": "so3-s2", "t_end": 999.999, "sample_every": 1}
    assert round(parse(doc).t_end / 1e-3) + 1 == MAX_RUN_SAMPLES
    with pytest.raises(ScenarioError, match="^t_end .*sample_every"):
        parse(dict(doc, t_end=1999.999, sample_every=2))


def test_sweep_size_limits():
    # Both sweep bounds reached exactly, then passed by one recorded sample;
    # the sweeps themselves are not started.
    doc = {"instance": "so3-s2", "mode": "monte-carlo", "mc": {"runs": MAX_MC_RUNS},
           "t_end": 0.499, "sample_every": 1}
    sc = parse(doc)
    assert sc.mc.runs * (round(sc.t_end / sc.integrator.h) + 1) == MAX_MC_VALUES
    with pytest.raises(ScenarioError, match=r"^mc\.runs "):
        parse(dict(doc, t_end=0.5))


HUGE = 10 ** 30  # a JSON integer beyond every 64-bit type


@pytest.mark.parametrize("doc,label", [
    ({"k": HUGE}, "k"),
    ({"t_end": HUGE}, "t_end"),
    ({"sample_every": HUGE}, "sample_every"),
    ({"seed": HUGE}, "seed"),
    ({"integrator": {"h": HUGE}}, "integrator.h"),
    ({"mode": "monte-carlo", "mc": {"runs": HUGE}}, "mc.runs"),
    ({"mode": "monte-carlo", "mc": {"threshold": HUGE}}, "mc.threshold"),
    ({"input": {"kind": "sinusoid", "amplitude": [1, 0, 0], "frequency": HUGE}}, "input.frequency"),
])
def test_huge_integers_name_the_field(doc, label):
    with pytest.raises(ScenarioError, match=f"^{re.escape(label)} "):
        parse(dict(doc, instance="so3-s2"))


def test_antipodal_direction_cannot_be_lifted():
    doc = {"instance": "so3-s2", "mode": "lifted",
           "init": {"observer": {"direction": [0, 0, -1]}}}
    with pytest.raises(ScenarioError, match="antipodal"):
        parse(doc)
    # Every mode whose runs lift both initial states, whichever state it is.
    lifted_sweep = {"mode": "monte-carlo", "mc": {"runs": 3, "space": "lifted"}}
    for over in ({"mode": "co-sim"}, {"mode": "verify"}, lifted_sweep):
        for name in ("plant", "observer"):
            bad = dict(doc, **over, init={name: {"direction": [0, 0, -1]}})
            with pytest.raises(ScenarioError, match=f"^init.{name}.direction: .*antipodal"):
                parse(bad)
    parse(dict(doc, mode="monte-carlo", init={"plant": {"direction": [0, 0, -1]}}))
    # the same init is fine for the projected realisation
    sc = parse(dict(doc, mode="projected"))
    _, yhat = sc.initial_sphere_pair()
    assert np.allclose(yhat, [0, 0, -1], atol=1e-15)


def test_first_fault_in_read_order_is_named():
    """Fields are read in the order schema_version, instance, mode, k, y0,
    integrator, t_end, sample_every, seed, mc, input, init, each checked
    where it is read, so the first fault in that order is the one named."""
    cases = [
        # the sinusoid horizon needs t_end, so t_end is read before the input
        ({"t_end": 0.0115, "input": {"kind": "blip"}}, "^t_end "),
        # the lift check needs the sweep's space, so mc is read before init
        ({"mode": "monte-carlo", "mc": {"space": "elsewhere"},
          "init": {"observer": {"direction": [0, 0, -1]}}}, r"^mc\.space "),
        # each state is lifted where it is read: the plant before the observer
        ({"mode": "lifted", "init": {"plant": {"direction": [0, 0, -1]},
                                     "observer": {"direction": [0, 0, 2]}}},
         r"^init\.plant\.direction: .*antipodal"),
    ]
    for doc, fragment in cases:
        with pytest.raises(ScenarioError, match=fragment):
            parse(dict(doc, instance="so3-s2"))


def test_input_echo_key_order_is_independent_of_the_hash_seed():
    """The input echo lists each kind's fields in one fixed order, whatever
    PYTHONHASHSEED orders sets by."""
    script = ("import json; from invobs import preset, scenario_to_dict; "
              "sig = scenario_to_dict(preset('autonomy-demo'))['input']; "
              "print(json.dumps([list(sig)] + [list(t) for t in sig['terms']]))")
    src = os.path.dirname(os.path.dirname(invobs.__file__))
    orders = {subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=src,
                                                  PYTHONHASHSEED=seed)).stdout
              for seed in ("1", "2")}
    assert [json.loads(out) for out in orders] == [
        [["kind", "terms"], ["kind", "amplitude", "frequency", "phase"], ["kind", "times", "values"]]]


def test_axis_angle_and_rotation_inits_agree():
    w = [0.7, -0.3, 0.4]
    from invobs import group_exp
    sc1 = parse({"instance": "so3-s2", "init": {"observer": {"axis_angle": w}}})
    sc2 = parse({"instance": "so3-s2",
                 "init": {"observer": {"rotation": group_exp(w).tolist()}}})
    a = sc1.initial_group_pair()[1]
    b = sc2.initial_group_pair()[1]
    assert np.allclose(a, b, atol=1e-15)


def test_so2_scenario():
    sc = parse({"instance": "so2-s1", "k": 2.0, "y0": 0.4,
                "input": {"kind": "constant", "amplitude": [0.3]},
                "init": {"plant": {"angle": 0.1}, "observer": {"angle": -1.0}}})
    assert sc.y0_angle == pytest.approx(0.4)
    assert sc.initial_angle_pair() == (0.1, -1.0)
    assert sc.input.dim == 1


def test_round_trip_is_canonical():
    doc = {"instance": "so3-s2", "mode": "lifted", "k": 1.5,
           "input": {"kind": "sum", "terms": [
               {"kind": "sinusoid", "amplitude": [1, 0, 0], "frequency": 0.5, "phase": 0.1},
               {"kind": "piecewise-constant", "times": [1.0], "values": [[0, 0, 0], [0, 1, 0]]}]},
           "init": {"plant": "identity", "observer": {"axis_angle": [1.0, 0.2, 0.0]}},
           "t_end": 2.0}
    sc = parse(doc)
    echo = scenario_to_dict(sc)
    again = scenario_from_dict(json.loads(json.dumps(echo)))
    assert scenario_to_dict(again) == echo


def test_presets():
    assert preset_names() == sorted(["metni-s2", "explicit-complementary",
                                     "autonomy-demo", "almost-global-sweep"])
    for name in preset_names():
        sc = preset(name)
        assert sc.instance == "so3-s2"
    sweep = preset("almost-global-sweep")
    assert sweep.mode == "monte-carlo" and sweep.mc.runs == 1000
    assert preset("explicit-complementary").mode == "lifted"
    with pytest.raises(ScenarioError, match="almost-global-sweep"):
        preset("nope")


# --- fuzzing: one field of a preset document replaced by arbitrary JSON -----

HUGE_INTS = st.sampled_from([2 ** 64, -2 ** 63 - 1, 10 ** 30, 10 ** 400, -10 ** 400])
# Finite floats whose squares or products overflow: a norm or X^T X of them
# warns of overflow, which the RuntimeWarning filter turns into an error.
HUGE_FLOATS = st.sampled_from([1e200, -1e200, 1e308])
NUMBERS = st.integers() | HUGE_INTS | HUGE_FLOATS | st.floats()  # floats include +-inf and nan
SCALARS = st.none() | st.booleans() | st.text(max_size=8) | NUMBERS
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=10,
)
# Shapes the parser reads as vectors and matrices, so that fuzzing reaches
# the checks behind the shape checks.
HUGE_ROWS = st.lists(HUGE_FLOATS | st.just(0.0), min_size=3, max_size=3)
VALUES = (JSON | st.lists(NUMBERS, min_size=1, max_size=4)
          | st.lists(st.lists(NUMBERS, min_size=3, max_size=3), min_size=1, max_size=4)
          | HUGE_ROWS | st.lists(HUGE_ROWS, min_size=3, max_size=3))

EXTRA_DOCS = [
    {"instance": "so3-s2", "mode": "co-sim", "y0": [0.0, 0.6, 0.8],
     "input": {"kind": "piecewise-constant", "times": [0.5, 1.5],
               "values": [[0.1, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.3]]},
     "init": {"plant": {"direction": [0.0, 0.0, 1.0]},
              "observer": {"axis_angle": [0.4, -0.2, 0.1]}},
     "integrator": {"method": "lie-euler", "h": 0.01}, "t_end": 2.0, "sample_every": 5},
    {"instance": "so2-s1", "mode": "synchrony", "y0": 0.3,
     "input": {"kind": "sinusoid", "amplitude": [0.5], "frequency": 0.2, "phase": 0.1},
     "init": {"plant": {"angle": 0.1}, "observer": {"angle": 1.0}}},
]
BASE_DOCS = [scenario_to_dict(preset(name)) for name in preset_names()] + EXTRA_DOCS
# Settable top-level fields, present in a base document or not.
TOP_FIELDS = ("schema_version", "instance", "mode", "k", "y0", "input", "init", "integrator",
              "t_end", "sample_every", "seed", "mc")


def _field_paths(node, path=()):
    """Paths of every field (object key) below node, lists indexed on the way."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(node, dict):
            yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, path + (key,))


FIELDS = [(i, path) for i, doc in enumerate(BASE_DOCS)
          for path in sorted(set(_field_paths(doc)) | {(k,) for k in TOP_FIELDS}, key=str)]


def _label(path) -> str:
    """A field path as messages spell it: input.terms[1].times."""
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else (f".{key}" if out else key)
    return out


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(field=st.sampled_from(FIELDS), value=VALUES)
def test_fuzzed_field_parses_or_is_named(field, value):
    i, path = field
    doc = copy.deepcopy(BASE_DOCS[i])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        sc = scenario_from_dict(doc)
    except ScenarioError as exc:
        message = str(exc)
        if path in (("instance",), ("mode",)) and value in INSTANCES + MODES:
            # A valid instance or mode changes how the other fields are read;
            # the message then names the field it made invalid.
            assert any(_label(p) in message for p in _field_paths(doc)), message
        else:
            assert _label(path) in message, message
        return
    echo = scenario_to_dict(sc)
    assert scenario_to_dict(scenario_from_dict(json.loads(json.dumps(echo)))) == echo


PIECEWISE_TIMES = st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4, unique=True).map(sorted)
SEGMENT = st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(times=PIECEWISE_TIMES, data=st.data())
def test_piecewise_input_at_switch_times(times, data):
    """A piecewise-constant input parsed with h on the 0.01 bound takes the
    next segment's value at each switch time and the previous one just below
    it, and its exact integral is continuous across the switch; h one ulp
    above the bound is a ScenarioError naming integrator.h."""
    values = data.draw(st.lists(SEGMENT, min_size=len(times) + 1, max_size=len(times) + 1))
    doc = {"instance": "so3-s2", "integrator": {"h": 0.01},
           "input": {"kind": "piecewise-constant", "times": times, "values": values}}
    sig = parse(doc).input
    scale = 1.0 + 5.0 * np.sqrt(3.0) * max(times)
    for i, switch in enumerate(times):
        below = np.nextafter(switch, -np.inf)
        assert np.array_equal(sig.eval(switch), values[i + 1])
        assert np.array_equal(sig.eval(below), values[i])
        gap = np.linalg.norm(sig.integral(switch) - sig.integral(below))
        assert gap <= 1e-13 * scale, (switch, gap)
    too_long = dict(doc, integrator={"h": float(np.nextafter(0.01, 1.0))})
    with pytest.raises(ScenarioError, match=r"^integrator\.h "):
        parse(too_long)


# --- valid documents: every input kind, both spaces and integrators ---------

def _unit(v) -> list:
    v = np.asarray(v, dtype=float)
    return (v / np.linalg.norm(v)).tolist()


DIRECTIONS = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(_unit)
RATES = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)
# Initial error angles, down to 1e-6 rad short of the antipode.
THETA0 = st.floats(0.05, 3.0) | st.floats(1e-6, 1e-2).map(lambda eps: np.pi - eps)


def _inputs(h):
    """Inputs of every kind over one second, switch times on and off the
    step grid, and sums nested in sums."""
    switch = st.integers(1, round(1.0 / h) - 1).map(lambda i: i * h) | st.floats(0.0, 1.0)
    piecewise = st.lists(switch, min_size=1, max_size=3, unique=True).map(sorted).flatmap(
        lambda times: st.fixed_dictionaries({
            "kind": st.just("piecewise-constant"), "times": st.just(times),
            "values": st.lists(RATES, min_size=len(times) + 1, max_size=len(times) + 1)}))
    leaf = (st.fixed_dictionaries({"kind": st.just("constant"), "amplitude": RATES})
            | st.fixed_dictionaries({"kind": st.just("sinusoid"), "amplitude": RATES,
                                     "frequency": st.floats(0.0, 3.0),
                                     "phase": st.floats(-np.pi, np.pi)})
            | piecewise)
    return st.recursive(leaf, lambda inner: st.fixed_dictionaries({
        "kind": st.just("sum"), "terms": st.lists(inner, min_size=1, max_size=3)}), max_leaves=4)


@st.composite
def valid_documents(draw):
    h = draw(st.sampled_from((2e-3, 5e-3, 1e-2)))
    y0 = draw(DIRECTIONS)
    plant = draw(st.just("identity") | DIRECTIONS.filter(lambda d: np.dot(d, y0) > -0.9))
    y = np.array(y0 if plant == "identity" else plant)
    axis = np.array(_unit(np.cross(y, draw(DIRECTIONS.filter(
        lambda r: np.linalg.norm(np.cross(y, r)) > 0.1)))))
    theta0 = draw(THETA0)
    if plant == "identity" and draw(st.booleans()):
        observer = {"axis_angle": (theta0 * axis).tolist()}
    else:
        observer = {"direction": _unit(np.cos(theta0) * y + np.sin(theta0) * axis)}
    return {"instance": "so3-s2", "mode": draw(st.sampled_from(("projected", "lifted"))),
            "k": draw(st.floats(0.1, 5.0)), "y0": y0, "input": draw(_inputs(h)),
            "init": {"plant": plant if plant == "identity" else {"direction": plant},
                     "observer": observer},
            "integrator": {"method": draw(st.sampled_from(("rk4-project", "lie-euler"))), "h": h},
            "t_end": 1.0, "sample_every": 1}


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(doc=valid_documents())
def test_valid_documents_parse_round_trip_and_follow_the_law(doc):
    """Every drawn valid document parses, its echo is a fixed point of
    echo -> parse -> echo, and its run follows the closed-form error law:
    to 1e-5 under rk4-project, to 2 k h under the first-order lie-euler."""
    sc = parse(doc)
    echo = scenario_to_dict(sc)
    assert scenario_to_dict(scenario_from_dict(json.loads(json.dumps(echo)))) == echo
    run = simulate_projected if sc.mode == "projected" else simulate_lifted
    deviation = closed_form_deviation(run(sc), sc.k)
    rk4 = sc.integrator.method == "rk4-project"
    bound = 1e-5 if rk4 else 2.0 * sc.k * sc.integrator.h
    assert deviation <= bound, (deviation, bound)
