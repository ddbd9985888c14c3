"""Command-line interface: exit codes, report shapes, determinism."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from projmet import cli

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_check_flat_exits_zero(capsys):
    code, report = run_cli(capsys, "check", "--input", f"{INPUTS}/flat.json")
    assert code == 0
    assert report["report"]["verdict"] == "MetrisableFlat"


def test_check_degenerate_exits_one(capsys):
    code, report = run_cli(
        capsys, "check", "--input", f"{INPUTS}/painleve1.json")
    assert code == 1
    assert report["report"]["verdict"] == "DegenerateKernel"


def test_reports_are_reproducible(capsys):
    _, first = run_cli(capsys, "check", "--input", f"{INPUTS}/painleve1.json")
    _, second = run_cli(capsys, "check", "--input",
                        f"{INPUTS}/painleve1.json")
    assert first == second
    # byte-level as well: keys are sorted, floats repr'd deterministically
    cli.main(["check", "--input", f"{INPUTS}/painleve1.json"])
    a = capsys.readouterr().out
    cli.main(["check", "--input", f"{INPUTS}/painleve1.json"])
    b = capsys.readouterr().out
    assert a == b


def test_invariants_exact_values(capsys):
    code, report = run_cli(
        capsys, "invariants", "--input", f"{INPUTS}/liouville-metric.json")
    assert code == 0
    p1, p2 = report["points"]
    assert p1["point"] == ["1", "1"]
    assert p1["mode"] == "exact"
    assert p1["L1"] == "-3/8" and p1["L2"] == "3/8"
    assert p1["I1_coeffs"] == ["9/4", "-9/4"]
    assert p1["nu5"] == "0"
    assert p1["det_M"] == "0"
    assert p2["L1"] == "-1/9" and p2["L2"] == "1/9"


def test_invariants_mode_override(capsys):
    code, report = run_cli(
        capsys, "invariants", "--input", f"{INPUTS}/liouville-metric.json",
        "--mode", "float")
    assert code == 0
    p1 = report["points"][0]
    assert p1["mode"] == "float"
    assert abs(p1["L1"] - (-0.375)) < 1e-12


def test_tractor_agreement(capsys):
    code, report = run_cli(
        capsys, "tractor", "--input", f"{INPUTS}/painleve1.json")
    assert code == 0
    for entry in report["points"]:
        assert entry["det_M"] == "0"
        assert entry["det_theta"] == "0"
        assert entry["D"] == "0"
        assert entry["contraction_agrees"] is True


def test_recover_exponential_family(capsys):
    code, report = run_cli(
        capsys, "recover", "--input", f"{INPUTS}/exp-family-c1.json")
    assert code == 0
    assert report["verdict"] == "Metrisable"
    assert report["signature"] == "riemannian"
    assert report["transport_defect"] < 1e-10
    assert report["roundtrip_residual"] < 1e-6
    assert report["excluded_nodes"] == []
    assert len(report["nodes"]) == 81
    corner = report["nodes"][0]
    assert corner["point"] == [-0.2, -0.2]
    assert abs(corner["E"] - math.exp(0.04)) < 1e-9
    assert abs(corner["F"]) < 1e-12


def test_recover_refuses_nonmetrisable(capsys):
    code, report = run_cli(
        capsys, "recover", "--input", f"{INPUTS}/painleve1.json")
    assert code == 1
    assert report["refused"] is True
    assert report["verdict"] == "DegenerateKernel"


def test_selftest(capsys):
    code, report = run_cli(capsys, "selftest")
    assert code == 0
    assert report == {"checks": 4, "command": "selftest", "status": "ok",
                      "version": cli.__version__}


def test_reports_echo_input_and_version(capsys):
    code, report = run_cli(capsys, "check", "--input", f"{INPUTS}/flat.json")
    assert code == 0
    assert report["version"] == cli.__version__
    assert report["input"]["kind"] == "ode"


def test_missing_input_file_exits_three(capsys):
    code, report = run_cli(capsys, "check", "--input", "no-such-file.json")
    assert code == 3
    assert "cannot read" in report["error"]


def test_invalid_json_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, report = run_cli(capsys, "check", "--input", str(bad))
    assert code == 3
    assert "invalid JSON" in report["error"]


def test_unknown_kind_exits_three(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"kind": "spinor", "points": [[0, 0]]}))
    code, report = run_cli(capsys, "check", "--input", str(job))
    assert code == 3
    assert "kind" in report["error"]


def test_output_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["selftest", "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["command"] == "selftest"


def test_timing_flag(capsys):
    code, report = run_cli(capsys, "selftest", "--timing")
    assert code == 0
    assert report["timing_seconds"] >= 0


def test_module_entrypoint():
    # The child imports the same package the tests import, whether it was
    # found through PYTHONPATH or through pytest's own `pythonpath`.
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "projmet.cli", "selftest"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "ok"


def test_check_requires_input():
    with pytest.raises(SystemExit):
        cli.main(["check"])


def _write_job(tmp_path, data):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(data))
    return str(job)


def test_recover_singular_node_exits_three(tmp_path, capsys):
    job = _write_job(tmp_path, {
        "kind": "metric", "E": "1+x*y", "F": "0", "G": "2+1/(x-1/8)",
        "points": [[0, 0]],
        "grid": {"center": [0, 0], "h": 0.0625, "n": 5, "substeps": 1},
    })
    code, report = run_cli(capsys, "recover", "--input", job)
    assert code == 3
    assert report["error"] == "division by zero (base point (0.125, 0.0))"


@pytest.mark.parametrize("field, value, cap", [
    ("order", cli.MAX_ORDER + 1, "order"),
    ("n", cli.MAX_GRID_N + 1, "n <="),
    ("substeps", cli.MAX_SUBSTEPS + 1, "substeps <="),
])
def test_job_over_a_cap_exits_three_before_jet_work(
        tmp_path, capsys, monkeypatch, field, value, cap):
    data = json.loads((INPUTS / "exp-family-c1.json").read_text())
    if field == "order":
        data["order"] = value
    else:
        data["grid"][field] = value

    def no_jets(*args, **kwargs):
        raise AssertionError("jet work started")

    monkeypatch.setattr(cli, "decide_metrisability", no_jets)
    code, report = run_cli(capsys, "recover", "--input",
                           _write_job(tmp_path, data))
    assert code == 3
    assert cap in report["error"]
    assert str(value - 1) in report["error"]



def test_recover_grid_size_must_be_an_integer(tmp_path, capsys):
    data = json.loads((INPUTS / "exp-family-c1.json").read_text())
    data["grid"]["n"] = "nine"
    code, report = run_cli(capsys, "recover", "--input",
                           _write_job(tmp_path, data))
    assert code == 3
    assert "must be integers" in report["error"]


def test_float_exp_overflow_exits_three(tmp_path, capsys):
    job = _write_job(tmp_path, {
        "kind": "ode", "A0": "exp(1000*x)", "points": [[1, 0]],
        "arithmetic": "float",
    })
    code, report = run_cli(capsys, "check", "--input", job)
    assert code == 3
    assert report["error"] == (
        "the Taylor tower of exp leaves the float range (base point (1, 0))")


def test_float_log_tower_underflow_exits_three(tmp_path, capsys):
    job = _write_job(tmp_path, {
        "kind": "ode", "A0": "log(x)", "points": [[1e-200, 1]],
        "arithmetic": "float",
    })
    code, report = run_cli(capsys, "check", "--input", job)
    assert code == 3
    assert report["error"] == (
        "the Taylor tower of log leaves the float range "
        "(base point (1e-200, 1))")


@pytest.mark.parametrize("command", ["check", "invariants", "tractor"])
def test_non_finite_float_matrix_exits_three(tmp_path, capsys, command):
    # exp(700) is finite, but the derivatives overflow to inf and nan
    job = _write_job(tmp_path, {
        "kind": "ode", "A0": "exp(700*x*y)", "points": [[1, 1]],
        "arithmetic": "float",
    })
    code, report = run_cli(capsys, command, "--input", job)
    assert code == 3
    assert report["error"] == "non-finite matrix entry"


@pytest.mark.parametrize("command, order, change, code", [
    ("tractor", 5, "x*y/3 - y^2/5", 3),
    ("tractor", 5, None, 0),
    ("tractor", 6, "x*y/3 - y^2/5", 0),
    ("invariants", 5, None, 0),
])
def test_low_order_exit_codes(tmp_path, capsys, command, order, change,
                              code):
    # a projective change costs the recomputed stack one order
    data = json.loads((INPUTS / "painleve1.json").read_text())
    data["order"] = order
    if change is not None:
        data["change"] = change
    got, report = run_cli(capsys, command, "--input",
                          _write_job(tmp_path, data))
    assert got == code
    if code == 3:
        assert report["error"] == ("derivative order 5 requested but only "
                                   "order 4 is available")
    else:
        assert report["order"] == order


@pytest.mark.parametrize("command, code", [
    ("check", 3), ("invariants", 0), ("tractor", 0),
])
def test_tower_leaving_float_range_above_order_five(tmp_path, capsys,
                                                    command, code):
    # log's Taylor tower at x = 1e-40 overflows only past the order the
    # constant-term values need; check still works at the job's order
    job = _write_job(tmp_path, {
        "kind": "ode", "A0": "log(x)", "points": [[1e-40, 1]],
        "arithmetic": "float",
    })
    got, report = run_cli(capsys, command, "--input", job)
    assert got == code
    if code == 3:
        assert report["error"].startswith(
            "the Taylor tower of log leaves the float range")
    else:
        assert report["order"] == 10
