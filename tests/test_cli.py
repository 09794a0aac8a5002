"""End-to-end CLI behaviour: artifacts, determinism, exit codes."""

import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

from invobs import cli, parse_scenario, preset, simulate_lifted
from invobs.runner import CSV_CHUNK_ROWS, CSV_COLUMNS, write_trajectory_csv
from invobs.simulate import SimulationAbort, TrajectoryRecord
from invobs.verify import PropertyCheck

FAST_RUN = {
    "instance": "so3-s2", "mode": "projected", "k": 1.0,
    "input": {"kind": "sinusoid", "amplitude": [1.0, 0.5, 0.8], "frequency": 0.5},
    "init": {"plant": "identity", "observer": {"axis_angle": [1.5, 0.0, 0.0]}},
    "t_end": 2.0,
}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["run", "--scenario", write_scenario(tmp_path, FAST_RUN),
                     "--out", str(out), "--quiet"])
    assert code == 0
    csv_lines = (out / "trajectory.csv").read_text().splitlines()
    assert csv_lines[0] == ",".join(CSV_COLUMNS)
    assert len(csv_lines) == 1 + 201  # header + samples
    summary = json.loads((out / "summary.json").read_text())
    assert summary["code_version"]
    assert summary["scenario"]["mode"] == "projected"
    assert summary["summary"]["final_angle"] < FAST_RUN["init"]["observer"]["axis_angle"][0]
    assert summary["summary"]["closed_form_max_deviation"] < 1e-6


def test_run_is_bit_stable_and_summary_reproduces_run(tmp_path):
    src = write_scenario(tmp_path, FAST_RUN)
    cli.main(["run", "--scenario", src, "--out", str(tmp_path / "a"), "--quiet"])
    cli.main(["run", "--scenario", src, "--out", str(tmp_path / "b"), "--quiet"])
    csv_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    assert csv_a == (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert (tmp_path / "a" / "summary.json").read_bytes() == \
        (tmp_path / "b" / "summary.json").read_bytes()
    # re-running from the echoed scenario reproduces the trajectory exactly
    echo = json.loads((tmp_path / "a" / "summary.json").read_text())["scenario"]
    cli.main(["run", "--scenario", write_scenario(tmp_path, echo, "echo.json"),
              "--out", str(tmp_path / "c"), "--quiet"])
    assert csv_a == (tmp_path / "c" / "trajectory.csv").read_bytes()


def test_run_with_preset(tmp_path):
    code = cli.main(["run", "--preset", "autonomy-demo", "--out", str(tmp_path / "p"), "--quiet"])
    assert code == 0
    assert (tmp_path / "p" / "trajectory.csv").exists()


def test_cosim_and_synchrony_summaries(tmp_path):
    doc = dict(FAST_RUN, mode="co-sim")
    cli.main(["run", "--scenario", write_scenario(tmp_path, doc), "--out",
              str(tmp_path / "cs"), "--quiet"])
    summary = json.loads((tmp_path / "cs" / "summary.json").read_text())
    assert summary["summary"]["consistency_passed"] is True
    assert summary["summary"]["consistency_max_residual"] <= 1e-6

    doc = dict(FAST_RUN, mode="synchrony")
    cli.main(["run", "--scenario", write_scenario(tmp_path, doc, "s.json"), "--out",
              str(tmp_path / "sy"), "--quiet"])
    summary = json.loads((tmp_path / "sy" / "summary.json").read_text())
    assert summary["summary"]["synchrony_passed"] is True
    assert summary["summary"]["synchrony_max_delta"] <= 1e-8


def test_sweep_subcommand(tmp_path):
    doc = {"instance": "so3-s2", "mode": "monte-carlo", "k": 1.0,
           "input": {"kind": "constant", "amplitude": [0.3, 0.1, 0.2]},
           "t_end": 12.0, "sample_every": 20, "seed": 5,
           "mc": {"runs": 25, "space": "projected", "threshold": 1e-3}}
    code = cli.main(["sweep", "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "mc"), "--quiet"])
    assert code == 0
    summary = json.loads((tmp_path / "mc" / "summary.json").read_text())
    mc = summary["monte_carlo"]
    assert mc["n_runs"] == 25 and mc["convergence_fraction"] == 1.0
    assert len(mc["runs"]) == 25
    assert not (tmp_path / "mc" / "trajectory.csv").exists()


def test_sweep_seed_override_changes_draws(tmp_path):
    doc = {"instance": "so3-s2", "mode": "monte-carlo",
           "input": {"kind": "constant", "amplitude": [0.0, 0.0, 0.0]},
           "t_end": 1.0, "sample_every": 50,
           "mc": {"runs": 4, "space": "projected", "threshold": 1e-3}}
    src = write_scenario(tmp_path, doc)
    cli.main(["sweep", "--scenario", src, "--out", str(tmp_path / "s0"), "--quiet"])
    cli.main(["sweep", "--scenario", src, "--out", str(tmp_path / "s1"),
              "--seed", "99", "--quiet"])
    a = json.loads((tmp_path / "s0" / "summary.json").read_text())
    b = json.loads((tmp_path / "s1" / "summary.json").read_text())
    assert a["scenario"]["seed"] == 0 and b["scenario"]["seed"] == 99
    assert a["monte_carlo"]["runs"] != b["monte_carlo"]["runs"]


def test_verify_subcommand_so2(tmp_path):
    doc = {"instance": "so2-s1", "k": 1.0,
           "input": {"kind": "sinusoid", "amplitude": [0.6], "frequency": 0.3},
           "init": {"plant": {"angle": 0.2}, "observer": {"angle": 2.0}},
           "t_end": 20.0}
    code = cli.main(["verify", "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "v"), "--quiet"])
    assert code == 0
    summary = json.loads((tmp_path / "v" / "summary.json").read_text())
    assert summary["passed"] is True
    names = {p["name"] for p in summary["properties"]}
    assert {"so2_oracle_deviation", "so2_state_convergence"} <= names
    for p in summary["properties"]:
        assert p["passed"] is True


def test_verify_of_a_sweep_document_echoes_a_verify_document(tmp_path):
    """A monte-carlo document verified as such drops its sweep settings, so
    the summary's echo parses and reproduces the verify run."""
    from invobs.scenario import scenario_from_dict

    doc = {"instance": "so3-s2", "mode": "monte-carlo", "t_end": 0.3, "seed": 4,
           "mc": {"runs": 10, "space": "lifted"}}
    code = cli.main(["verify", "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "v"), "--quiet"])
    assert code == 0
    echo = json.loads((tmp_path / "v" / "summary.json").read_text())["scenario"]
    assert echo["mode"] == "verify" and "mc" not in echo
    assert scenario_from_dict(echo).seed == 4


def _strict_json(path):
    """The file parsed as strict JSON: a NaN or Infinity token raises."""
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_non_finite_lift_residual_keeps_summary_json(tmp_path, monkeypatch):
    """A lift gone infinite makes the residuals of the three properties that
    call it non-finite (infinite, or NaN for the round trip): each fails
    (exit 1), and its row says so with a null residual."""
    from invobs.observer import HorizontalSubspace

    monkeypatch.setattr(HorizontalSubspace, "lift", lambda self, Xhat, v: np.full((3, 3), np.inf))
    doc = {"instance": "so3-s2", "mode": "verify", "t_end": 0.1}
    with np.errstate(invalid="ignore"):
        code = cli.main(["verify", "--scenario", write_scenario(tmp_path, doc),
                         "--out", str(tmp_path / "vf"), "--quiet"])
    assert code == 1
    summary = _strict_json(tmp_path / "vf" / "summary.json")
    lifted = ("horizontal_lift_round_trip", "lifted_gradient_identity", "observer_two_forms")
    assert summary["passed"] is False
    for row in summary["properties"]:
        if row["name"] in lifted:
            assert (row["max_residual"], row["passed"]) == (None, False), row
        else:
            assert row["passed"] and np.isfinite(row["max_residual"]), row


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    """A failed property exits 1; a non-finite residual is written as null
    and its row keeps the verdict."""
    import invobs.runner as runner_mod

    checks = [PropertyCheck("broken", 1.0, 1e-12, "max"), PropertyCheck("inf", np.inf, 1e-12),
              PropertyCheck("nan", np.nan, 1e-12), PropertyCheck("control", np.inf, 1e-3, "min")]
    monkeypatch.setattr(runner_mod, "run_verification", lambda sc: checks)
    doc = {"instance": "so3-s2", "mode": "verify", "t_end": 1.0}
    code = cli.main(["verify", "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "vf"), "--quiet"])
    assert code == 1
    summary = _strict_json(tmp_path / "vf" / "summary.json")
    assert summary["passed"] is False
    assert [(row["max_residual"], row["passed"]) for row in summary["properties"]] == \
        [(1.0, False), (None, False), (None, False), (None, True)]


def test_input_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"instance": "so3-s2", "k": -3}')
    assert cli.main(["run", "--scenario", str(bad), "--out", str(tmp_path / "x")]) == 2
    missing = str(tmp_path / "missing.json")
    assert cli.main(["run", "--scenario", missing, "--out", str(tmp_path / "x")]) == 2
    assert cli.main(["run", "--preset", "nope", "--out", str(tmp_path / "x")]) == 2
    assert cli.main(["run", "--out", str(tmp_path / "x")]) == 2
    huge = tmp_path / "huge.json"
    huge.write_text('{"instance": "so3-s2", "seed": 100000000000000000000}')
    assert cli.main(["run", "--scenario", str(huge), "--out", str(tmp_path / "x")]) == 2
    endless = tmp_path / "endless.json"
    endless.write_text('{"instance": "so3-s2", "t_end": 1e30}')
    assert cli.main(["run", "--scenario", str(endless), "--out", str(tmp_path / "x")]) == 2
    so2 = tmp_path / "so2.json"
    so2.write_text('{"instance": "so2-s1"}')
    assert cli.main(["sweep", "--scenario", str(so2), "--out", str(tmp_path / "x")]) == 2
    # Directions antipodal to y0 have no lift, for a lifted sweep or verify's co-sim.
    antipodal = tmp_path / "antipodal.json"
    for doc in ('"mc": {"runs": 3, "space": "lifted"}, "init": {"plant": {"direction": [0, 0, -1]}}',
                '"mc": {"runs": 3, "space": "lifted"}, "init": {"observer": {"direction": [0, 0, -1]}}'):
        antipodal.write_text('{"instance": "so3-s2", "mode": "monte-carlo", "t_end": 0.1, %s}' % doc)
        assert cli.main(["sweep", "--scenario", str(antipodal), "--out", str(tmp_path / "x")]) == 2
    antipodal.write_text('{"instance": "so3-s2", "init": {"observer": {"direction": [0, 0, -1]}}}')
    assert cli.main(["verify", "--scenario", str(antipodal), "--out", str(tmp_path / "x")]) == 2
    piecewise = '"input": {"kind": "piecewise-constant", "times": %s, "values": [[0, 0, 0], [1, 0, 0]]}'
    for i, doc in enumerate([
        piecewise % "[null]",
        piecewise % "[[0.01]]",
        '"input": {"kind": "constant", "amplitude": [%s, 0, 0]}' % ("1" + "0" * 400),
        '"y0": [0, 0, %s]' % ("1" + "0" * 400),
        '"init": {"observer": {"axis_angle": [1e308, 1e308, 0]}}',
        '"mode": "monte-carlo", "mc": {"runs": 1000000000, "space": "lifted"}',
    ]):
        bad = tmp_path / f"hole{i}.json"
        bad.write_text('{"instance": "so3-s2", %s}' % doc)
        assert cli.main(["run", "--scenario", str(bad), "--out", str(tmp_path / "x")]) == 2, doc
    # An so2-s1 angle whose rotation overflows is named at parse, for run and verify alike;
    # one just below the overflow still parses.
    for name in ("plant", "observer"):
        doc = {"instance": "so2-s1", "t_end": 0.01, "init": {name: {"angle": -1.4e154}}}
        for command in ("run", "verify"):
            path = write_scenario(tmp_path, doc, f"angle-{name}.json")
            assert cli.main([command, "--scenario", path, "--out", str(tmp_path / "x")]) == 2, name
            assert f"error: init.{name}.angle does not give a finite rotation" in capsys.readouterr().err
        doc["init"][name]["angle"] = 1.3e154
        assert getattr(parse_scenario(json.dumps(doc)), name).value == 1.3e154
    # A sweep of a run document is held to the sweep bounds too.
    long_run = tmp_path / "long.json"
    long_run.write_text('{"instance": "so3-s2", "t_end": 100000, "sample_every": 1}')
    assert cli.main(["sweep", "--scenario", str(long_run), "--out", str(tmp_path / "x")]) == 2
    huge_seed = ["--seed", str(2 ** 64), "--out", str(tmp_path / "x")]
    assert cli.main(["run", "--preset", "metni-s2"] + huge_seed) == 2
    # So is a run of it: 10**8 + 1 recorded samples exceed the run sample bound.
    assert cli.main(["run", "--scenario", str(long_run), "--out", str(tmp_path / "x")]) == 2


def test_overflowing_sinusoid_argument_is_an_input_error(tmp_path, capsys):
    """A sinusoid whose argument 2 pi frequency t + phase overflows within
    t_end, where math.sin raises, is rejected at parse time with its field
    named (exit 2): a top-level input, a term of a sum, and an so2-s1 verify
    document.  The same frequency over a horizon it does not overflow runs."""
    def sinusoid(frequency, dim=3):
        return {"kind": "sinusoid", "amplitude": [1.0] * dim, "frequency": frequency}

    cases = [
        ("run", {"instance": "so3-s2", "t_end": 0.1, "input": sinusoid(1e308)}, "input.frequency"),
        ("run", {"instance": "so3-s2", "t_end": 1000, "integrator": {"h": 0.01}, "sample_every": 100,
                 "input": {"kind": "sum", "terms": [{"kind": "constant", "amplitude": [0, 0, 1]},
                                                    sinusoid(1e306)]}},
         "input.terms[1].frequency"),
        ("verify", {"instance": "so2-s1", "mode": "verify", "input": sinusoid(1e307, dim=1)},
         "input.frequency"),
    ]
    for i, (command, doc, field) in enumerate(cases):
        path = write_scenario(tmp_path, doc, f"overflow{i}.json")
        assert cli.main([command, "--scenario", path, "--out", str(tmp_path / "x")]) == 2, field
        assert re.search(rf"error: {re.escape(field)}: .*overflows", capsys.readouterr().err), field
    short = write_scenario(tmp_path, dict(cases[1][1], t_end=0.01, integrator={"h": 0.001},
                                          sample_every=1), "short.json")
    assert cli.main(["run", "--scenario", short, "--out", str(tmp_path / "short"), "--quiet"]) == 0


HUGE_ENTRIES = [
    ({"y0": [1e200, 1e200, 1e200]}, "error: y0 not unit norm"),
    ({"init": {"observer": {"direction": [1e200, 1e200, 0]}}},
     "error: init.observer.direction not unit norm"),
    ({"init": {"observer": {"rotation": [[1e200, 0, 0], [0, 1, 0], [0, 0, 1]]}}},
     "error: init.observer.rotation is not special-orthogonal"),
]
DIVERGING = [
    ("run", {"k": 1e308}),
    ("sweep", {"k": 1e308, "mode": "monte-carlo", "mc": {"runs": 4}}),
    ("run", {"input": {"kind": "constant", "amplitude": [1e308, 0, 0]}}),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_under_the_warning_filter_exits_with_one_line(tmp_path, capsys):
    """With RuntimeWarning raised as an error (python -W error, as Tier-1
    runs), huge finite entries that overflow a norm or X^T X are still an
    input error naming the field (exit 2), and a diverging admitted run is a
    runtime abort (exit 3), each with one stderr line and no traceback."""
    cases = [("run", doc, 2, want) for doc, want in HUGE_ENTRIES]
    cases += [(command, doc, 3, "simulation aborted: overflow encountered in ")
              for command, doc in DIVERGING]
    for i, (command, doc, code, want) in enumerate(cases):
        doc = dict({"instance": "so3-s2", "t_end": 1}, **doc)
        path = write_scenario(tmp_path, doc, f"huge{i}.json")
        assert cli.main([command, "--scenario", path, "--out", str(tmp_path / "x")]) == code, doc
        err = capsys.readouterr().err
        assert err.startswith(want) and err.count("\n") == 1, (doc, err)


@pytest.mark.parametrize("command", ["run", "verify", "sweep"])
def test_diverging_run_under_the_default_filter_exits_with_one_line(tmp_path, capsys, command):
    """Under Python's default warning filter, a diverging admitted run is a
    runtime abort (exit 3) with one stderr line and no warning shown: main
    raises numpy's RuntimeWarning whatever the interpreter's filter."""
    path = write_scenario(tmp_path, {"instance": "so3-s2", "k": 1e308, "t_end": 1})
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("default")
        code = cli.main([command, "--scenario", path, "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 3 and not shown, (code, [str(w.message) for w in shown])
    assert err.startswith("simulation aborted: overflow encountered in ") and err.count("\n") == 1


def test_trajectory_csv_matches_row_rendering(tmp_path):
    """trajectory.csv holds each sample as 17 significant digits, as a
    row-by-row f-string rendering and np.savetxt write it, down to signed
    zeros and subnormals, across the chunks of rows it is formatted in."""
    sc = dataclasses.replace(preset("explicit-complementary"), t_end=1.0)
    edges = np.array([0.0, -0.0, 5e-324, -1e-310, 1e300, 0.1, 1.0 / 3.0])
    t = np.arange(7.0)
    n = CSV_CHUNK_ROWS + 3
    rng = np.random.default_rng(4)
    records = [simulate_lifted(sc),
               TrajectoryRecord(t, np.stack([edges] * 3, axis=1), -np.stack([edges] * 3, axis=1),
                                edges[::-1], np.abs(edges)),
               TrajectoryRecord(np.arange(n) * 1e-3, rng.standard_normal((n, 3)),
                                rng.standard_normal((n, 3)), rng.uniform(0.0, 3.0, n),
                                rng.uniform(0.0, 1e-15, n))]
    for i, rec in enumerate(records):
        path = tmp_path / f"trajectory-{i}.csv"
        write_trajectory_csv(str(path), rec)
        want = ",".join(CSV_COLUMNS) + "\n" + "".join(
            ",".join(f"{v:.17g}" for v in (rec.t[j], *rec.y[j], *rec.yhat[j], rec.theta[j],
                                           rec.drift[j])) + "\n"
            for j in range(len(rec.t)))
        assert path.read_bytes() == want.encode()
        np.savetxt(tmp_path / "savetxt.csv", np.column_stack((rec.t, rec.y, rec.yhat, rec.theta, rec.drift)),
                   fmt="%.17g", delimiter=",", header=",".join(CSV_COLUMNS), comments="")
        assert path.read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def test_runtime_abort_exit_code(tmp_path, monkeypatch):
    import invobs.runner as runner_mod

    def explode(sc):
        raise SimulationAbort("non-finite state at t = 0.5 s")

    monkeypatch.setattr(runner_mod, "_simulate", explode)
    code = cli.main(["run", "--scenario", write_scenario(tmp_path, FAST_RUN),
                     "--out", str(tmp_path / "boom"), "--quiet"])
    assert code == 3


# Lifted RK4 at k h = 3 is unstable: the states leave SO(3) faster than the
# retraction after each step can bring them back.
UNSTABLE_LIFTED = {
    "instance": "so3-s2", "mode": "lifted", "k": 300, "t_end": 1, "integrator": {"h": 0.01},
    "input": {"kind": "sinusoid", "amplitude": [1, 0.5, 0.8], "frequency": 0.5},
}


def test_rotation_leaving_so3_aborts(tmp_path, capsys):
    code = cli.main(["run", "--scenario", write_scenario(tmp_path, UNSTABLE_LIFTED),
                     "--out", str(tmp_path / "unstable"), "--quiet"])
    assert code == 3
    assert re.search(r"SO\(3\).* at t = \S+ s", capsys.readouterr().err)
    out = tmp_path / "stable"
    code = cli.main(["run", "--scenario", write_scenario(tmp_path, dict(UNSTABLE_LIFTED, k=50)),
                     "--out", str(out), "--quiet"])
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["summary"]["max_drift"] <= 1e-9


@pytest.mark.parametrize("name", ["plant", "observer"])
def test_lifted_run_from_near_the_antipode(tmp_path, name):
    """A direction 1e-6 rad off -y0 lifts through the section to a rotation:
    the run exits 0 and starts with drift <= 1e-15, where a section formed
    with 1 + <y0, y> left SO(3) at t = 0 and the run exited 3."""
    a = 1e-6
    doc = {"instance": "so3-s2", "mode": "lifted", "t_end": 0.1,
           "init": {name: {"direction": [np.sin(a), 0.0, -np.cos(a)]}}}
    out = tmp_path / "out"
    code = cli.main(["run", "--scenario", write_scenario(tmp_path, doc), "--out", str(out), "--quiet"])
    assert code == 0
    first = (out / "trajectory.csv").read_text().splitlines()[1].split(",")
    assert float(first[CSV_COLUMNS.index("drift")]) <= 1e-15


def test_run_from_the_exact_antipode_writes_a_null_deviation(tmp_path):
    """An observer started at the plant's antipode starts at the law's
    unstable equilibrium, where closed_form_deviation has no law to compare
    against: the summary writes null, and the run exits 0."""
    doc = dict(FAST_RUN, t_end=0.1, init={"plant": "identity", "observer": {"direction": [0.0, 0.0, -1.0]}})
    out = tmp_path / "out"
    code = cli.main(["run", "--scenario", write_scenario(tmp_path, doc), "--out", str(out), "--quiet"])
    assert code == 0
    first = (out / "trajectory.csv").read_text().splitlines()[1].split(",")
    assert float(first[CSV_COLUMNS.index("theta")]) == np.pi
    assert json.loads((out / "summary.json").read_text())["summary"]["closed_form_max_deviation"] is None


def test_verify_without_out_leaves_no_file(tmp_path, monkeypatch):
    """``invobs verify`` without ``--out`` writes its artifacts into a
    temporary directory: it exits 0 and the working directory gains nothing."""
    src = write_scenario(tmp_path, {"instance": "so3-s2", "t_end": 0.3})
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert cli.main(["verify", "--scenario", src, "--quiet"]) == 0
    assert list(work.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json", "work"]


def test_preset_commands(capsys):
    assert cli.main(["preset", "list"]) == 0
    listing = capsys.readouterr().out
    for name in ("metni-s2", "explicit-complementary", "autonomy-demo", "almost-global-sweep"):
        assert name in listing
    assert cli.main(["preset", "show", "metni-s2"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["mode"] == "projected"


def test_so2_run_reports_oracle(tmp_path):
    doc = {"instance": "so2-s1", "k": 1.0,
           "input": {"kind": "constant", "amplitude": [0.5]},
           "init": {"plant": {"angle": 0.0}, "observer": {"angle": 1.4}},
           "t_end": 5.0}
    code = cli.main(["run", "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "so2"), "--quiet"])
    assert code == 0
    summary = json.loads((tmp_path / "so2" / "summary.json").read_text())
    assert summary["summary"]["oracle_max_deviation"] <= 1e-8
    rows = (tmp_path / "so2" / "trajectory.csv").read_text().splitlines()
    first = np.array(rows[1].split(","), dtype=float)
    assert first[3] == 0.0  # planar embedding keeps y_z at zero
