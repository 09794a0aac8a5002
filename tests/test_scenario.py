"""Scenario parsing, validation messages, presets, and round-tripping."""

import json
import re

import numpy as np
import pytest

from invobs import (
    ScenarioError,
    parse_scenario,
    preset,
    preset_names,
    scenario_from_dict,
    scenario_to_dict,
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
])
def test_validation_errors_name_the_field(doc, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse(doc)


def test_step_count_limit():
    # 10**8 steps of the default h parse; the run itself is not started.
    assert parse({"instance": "so3-s2", "t_end": 1e5}).t_end == 1e5


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
    # the same init is fine for the projected realisation
    sc = parse(dict(doc, mode="projected"))
    _, yhat = sc.initial_sphere_pair()
    assert np.allclose(yhat, [0, 0, -1], atol=1e-15)


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
