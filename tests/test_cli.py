"""End-to-end CLI behaviour: artifacts, determinism, exit codes."""

import dataclasses
import json
import re

import numpy as np

from invobs import TrajectoryRecord, cli, preset, simulate_lifted
from invobs.runner import CSV_COLUMNS, write_trajectory_csv
from invobs.simulate import SimulationAbort
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
    from invobs import scenario_from_dict

    doc = {"instance": "so3-s2", "mode": "monte-carlo", "t_end": 0.3, "seed": 4,
           "mc": {"runs": 10, "space": "lifted"}}
    code = cli.main(["verify", "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "v"), "--quiet"])
    assert code == 0
    echo = json.loads((tmp_path / "v" / "summary.json").read_text())["scenario"]
    assert echo["mode"] == "verify" and "mc" not in echo
    assert scenario_from_dict(echo).seed == 4


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    import invobs.runner as runner_mod

    monkeypatch.setattr(runner_mod, "run_verification",
                        lambda sc: [PropertyCheck("broken", 1.0, 1e-12, "max")])
    doc = {"instance": "so3-s2", "mode": "verify", "t_end": 1.0}
    code = cli.main(["verify", "--scenario", write_scenario(tmp_path, doc),
                     "--out", str(tmp_path / "vf"), "--quiet"])
    assert code == 1
    summary = json.loads((tmp_path / "vf" / "summary.json").read_text())
    assert summary["passed"] is False


def test_input_error_exit_codes(tmp_path):
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
    # A sweep of a run document is held to the sweep bounds too.
    long_run = tmp_path / "long.json"
    long_run.write_text('{"instance": "so3-s2", "t_end": 100000, "sample_every": 1}')
    assert cli.main(["sweep", "--scenario", str(long_run), "--out", str(tmp_path / "x")]) == 2
    huge_seed = ["--seed", str(2 ** 64), "--out", str(tmp_path / "x")]
    assert cli.main(["run", "--preset", "metni-s2"] + huge_seed) == 2
    # So is a run of it: 10**8 + 1 recorded samples exceed the run sample bound.
    assert cli.main(["run", "--scenario", str(long_run), "--out", str(tmp_path / "x")]) == 2


def test_trajectory_csv_matches_row_rendering(tmp_path):
    """trajectory.csv holds each sample as 17 significant digits, as a
    row-by-row f-string rendering writes it, down to signed zeros and
    subnormals."""
    sc = dataclasses.replace(preset("explicit-complementary"), t_end=1.0)
    edges = np.array([0.0, -0.0, 5e-324, -1e-310, 1e300, 0.1, 1.0 / 3.0])
    t = np.arange(7.0)
    records = [simulate_lifted(sc),
               TrajectoryRecord(t, np.stack([edges] * 3, axis=1), -np.stack([edges] * 3, axis=1),
                                edges[::-1], np.abs(edges))]
    for i, rec in enumerate(records):
        path = tmp_path / f"trajectory-{i}.csv"
        write_trajectory_csv(str(path), rec)
        want = ",".join(CSV_COLUMNS) + "\n" + "".join(
            ",".join(f"{v:.17g}" for v in (rec.t[j], *rec.y[j], *rec.yhat[j], rec.theta[j],
                                           rec.drift[j])) + "\n"
            for j in range(len(rec.t)))
        assert path.read_bytes() == want.encode()


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
