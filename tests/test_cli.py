"""Command-line interface: exit codes, report shapes, determinism."""

import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

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


@pytest.mark.parametrize("mode", ["auto", "float", "rational"])
@pytest.mark.parametrize("name", sorted(p.stem for p in INPUTS.glob("*.json")))
def test_det_m_is_one_rule_across_commands(capsys, name, mode):
    # det M comes from the elimination that decides rank M, so it is zero
    # exactly below rank 6, and every command reports the same bytes
    job = f"{INPUTS}/{name}.json"
    runs = {command: run_cli(capsys, command, "--input", job, "--mode", mode)
            for command in ("check", "invariants", "tractor")}
    if runs["check"][0] == 3:   # transcendental input in rational mode
        assert {code for code, _ in runs.values()} == {3}
        return
    points = runs["check"][1]["report"]["points"]
    for p in points:
        assert (Fraction(p["det_m"]) == 0) == (p["rank_m"] < 6)
    want = [json.dumps(p["det_m"]) for p in points]
    for command in ("invariants", "tractor"):
        assert [json.dumps(p["det_M"])
                for p in runs[command][1]["points"]] == want


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
    # the file holds exactly the bytes the same run prints to stdout
    assert cli.main(["selftest"]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_is_an_input_error(tmp_path, capsys, where):
    out = tmp_path / "no" / "x.json" if where == "missing-directory" \
        else tmp_path
    code, report = run_cli(capsys, "check", "--input",
                           str(INPUTS / "flat.json"), "--output", str(out))
    assert code == cli.EXIT_INPUT
    assert report == {"error": report["error"], "version": cli.__version__}
    assert report["error"].startswith("cannot write %s: " % out)


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


SQRT_GRID = {"points": [[0.4, 1]],
             "grid": {"center": [0.4, 1], "n": 9, "h": 0.1}}


@pytest.mark.parametrize("data", [
    {"kind": "ode", "A0": "sqrt(x)", "A1": "0", "A2": "0", "A3": "0"},
    {"kind": "metric", "E": "1+sqrt(x)", "F": "0", "G": "1"},
], ids=["ode", "metric"])
def test_recover_refuses_sqrt_at_zero(tmp_path, capsys, data):
    """The grid's left column lies on x = 0, where sqrt(x) is 0: the node
    fails on the sqrt itself, as a jet at x = 0 does, not on a later
    division by it."""
    job = _write_job(tmp_path, dict(data, **SQRT_GRID))
    code, report = run_cli(capsys, "recover", "--input", job)
    assert code == 3
    assert report["error"] == (
        "sqrt of a non-positive value (base point (0.0, 1.0))")


@pytest.mark.parametrize("command", ["check", "invariants", "tractor"])
def test_sqrt_at_zero_exits_three_on_every_command(tmp_path, capsys,
                                                   command):
    job = _write_job(tmp_path, {"kind": "ode", "A0": "sqrt(x)",
                                "points": [[0, 1]]})
    code, report = run_cli(capsys, command, "--input", job)
    assert code == 3
    assert report["error"] == (
        "sqrt of a non-positive value (base point (0, 1))")


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


def _terms(term, count):
    return "+".join([term] * count)


EVERY_COMMAND = ("check", "invariants", "tractor", "recover")


@pytest.mark.parametrize("data, commands, error", [
    ({"kind": "ode", "A0": "(" * 300 + "x" + ")" * 300}, EVERY_COMMAND,
     "A0: expression nested deeper than 100 levels"),
    ({"kind": "ode", "A0": "-" * 5000 + "x"}, EVERY_COMMAND,
     "A0: expression nested deeper than 100 levels"),
    ({"kind": "ode", "A0": _terms("x", 500)}, EVERY_COMMAND,
     "A0: nested more than 256 levels deep"),
    ({"kind": "metric", "E": _terms("x*y", 500), "G": "1"}, EVERY_COMMAND,
     "E: nested more than 256 levels deep"),
    ({"kind": "ode", "A0": _terms("x", 3000)}, EVERY_COMMAND,
     "A0: nested more than 256 levels deep"),
    ({"kind": "lambda", "p_coeffs": ["1", _terms("y", 700)]}, EVERY_COMMAND,
     "p_coeffs[1]: nested more than 256 levels deep"),
    ({"kind": "ode", "A0": "x*y", "change": _terms("x", 700)}, ("tractor",),
     '"change": nested more than 256 levels deep'),
    ({"kind": "ode", "A0": "x*y",
      "points": [[1, i] for i in range(cli.MAX_POINTS + 1)]}, EVERY_COMMAND,
     '"points" holds more than 64 points'),
], ids=["parentheses", "unary-minus", "sum-500", "metric-500", "sum-3000",
        "lambda-700", "change-700", "points"])
def test_deep_or_many_exits_three(tmp_path, capsys, data, commands, error):
    job = _write_job(tmp_path, dict({"points": [[1, 2]], "order": 6},
                                    **data))
    for command in commands:
        code, report = run_cli(capsys, command, "--input", job)
        assert code == 3
        assert report["error"].startswith(error)


def test_trees_at_the_depth_cap_are_analysed(tmp_path, capsys):
    # E is x*y + ... + x*y, MAX_DEPTH levels deep, and the metric's
    # derived coefficients are deeper still
    for data, commands in (
            ({"kind": "ode", "A0": _terms("x", cli.MAX_DEPTH)}, ("check",)),
            ({"kind": "metric", "E": _terms("x*y", cli.MAX_DEPTH - 1),
              "G": "1"}, EVERY_COMMAND)):
        job = _write_job(tmp_path, dict(data, points=[[1, 2]], order=6))
        for command in commands:
            code, report = run_cli(capsys, command, "--input", job)
            assert code in (0, 1, 2) and "error" not in report



SELFTEST_ODE_EXACT = {"kind": "ode", "A0": "x^2*y", "A1": "y^2", "A2": "x*y",
                      "A3": "x+1"}


@pytest.mark.parametrize("data, error", [
    ({"kind": "metric", "E": "1+x^100000", "G": "1", "points": [[2, 0]]},
     "E: degree 100000, more than 16"),
    # a product of powers inside the old cap on nested exponents ran 36 s
    (dict(SELFTEST_ODE_EXACT, A0="x^16*x^16*x^16*x^16*y",
          points=[["%d/%d" % (2 ** 64 - 1, 2 ** 63 + 1)] * 2], order=16),
     "A0: degree 65, more than 16"),
    # a power of a constant has the degree of its exponent, so exact
    # evaluation of a huge literal power is refused too
    ({"kind": "ode", "A0": "2^1000000000", "points": [[0, 0]]},
     "A0: degree 1000000000, more than 16"),
    (dict(SELFTEST_ODE_EXACT, A1="x*3^100000000", points=[[1, 1]]),
     "A1: degree 100000001, more than 16"),
    ({"kind": "metric", "E": "(2^16)^16", "G": "1", "points": [[0, 0]]},
     "E: degree 256, more than 16"),
    (dict(SELFTEST_ODE_EXACT, points=[["1e1000", 1]]),
     "point x: '1e1000' has a numerator or denominator of more than 64 "
     "bits"),
    (dict(SELFTEST_ODE_EXACT, points=[["1e10000", 1]]),
     "point x: '1e10000' has a numerator or denominator of more than 64 "
     "bits"),
], ids=["metric-power", "product-degree", "constant-power",
        "constant-factor-power", "nested-constant-power", "point-1e1000",
        "point-1e10000"])
def test_oversized_exact_input_exits_three_before_jet_work(
        tmp_path, capsys, monkeypatch, data, error):
    def no_jets(*args, **kwargs):
        raise AssertionError("jet work started")

    monkeypatch.setattr(cli, "ode_from_metric", no_jets)
    monkeypatch.setattr(cli, "decide_metrisability", no_jets)
    code, report = run_cli(capsys, "check", "--input",
                           _write_job(tmp_path, data))
    assert code == 3
    assert report["error"] == error


def test_a_job_at_the_size_caps_is_accepted():
    at_cap = "%d/%d" % (2 ** cli.MAX_EXACT_BITS - 1, 3)
    half = cli.MAX_DEGREE // 2
    nested = "(x^2)^%d" % half
    product = "x^%d*y^%d/(x-y)^%d + 2^%d" % (half, half - 1, 1,
                                              cli.MAX_DEGREE)
    job = cli.Job({"kind": "ode", "A0": "%s - %s" % (nested, at_cap),
                   "A1": product, "points": [[at_cap, 0]]})
    assert job.points == [(Fraction(at_cap), 0)]


def test_a_metric_job_parses_its_points_once(monkeypatch):
    calls = []
    build_points = cli.Job._build_points

    def counted(self, data):
        calls.append(data)
        return build_points(self, data)

    monkeypatch.setattr(cli.Job, "_build_points", counted)
    job = cli.Job(json.loads((INPUTS / "liouville-metric.json").read_text()))
    assert len(calls) == 1
    assert job.points == [(1, 1), (1, 2)]


@pytest.mark.parametrize("data, error", [
    ({"kind": "metric", "E": "x+", "G": "1", "points": []}, "E: "),
    ({"kind": "metric", "E": "x", "G": "0", "points": [[0]]},
     "each point must be a two-element list"),
    ({"kind": "metric", "E": "x", "G": "0", "points": [[1, 0]]},
     "degenerate"),
    ({"kind": "ode", "A0": 1, "points": []}, "A0 must be"),
    ({"kind": "lambda", "p_coeffs": [], "points": []}, "p_coeffs"),
], ids=["metric-E", "metric-point", "metric-degenerate", "ode-A0",
        "lambda-p_coeffs"])
def test_a_job_with_several_faults_reports_the_first(data, error):
    with pytest.raises(cli.InputError, match=error):
        cli.Job(data)


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("slope, want", [
    ("2/7", Fraction(45, 28)), (0.5, Fraction(9, 8)), (-3, Fraction(9)),
])
def test_invariants_at_a_nonzero_slope(tmp_path, capsys, mode, slope, want):
    # L1 = -3/8, L2 = 3/8 at (1, 1): I1 = 9/4 - 9/4 slope
    data = json.loads((INPUTS / "liouville-metric.json").read_text())
    data["slope"] = slope
    code, report = run_cli(capsys, "invariants", "--input",
                           _write_job(tmp_path, data), "--mode", mode)
    assert code == 0
    for p in report["points"]:
        c0, c1 = (_number(c) for c in p["I1_coeffs"])
        got = _number(p["I1_at_slope"])
        assert got == c0 + c1 * _number(slope)
        assert got != c0  # the slope term counts
    got = _number(report["points"][0]["I1_at_slope"])
    if mode == "rational" and not isinstance(slope, float):
        assert got == want
    else:
        assert isinstance(got, float) and abs(got - want) < 1e-12


def _number(v):
    """A report number: exact values are rational strings."""
    return Fraction(v) if isinstance(v, str) else v


def test_recover_refuses_a_bad_witness_before_any_analysis(
        tmp_path, capsys, monkeypatch):
    # a structure recover would refuse as not metrisable
    def no_jets(*args, **kwargs):
        raise AssertionError("jet work started")

    monkeypatch.setattr(cli, "decide_metrisability", no_jets)
    job = _write_job(tmp_path, {"kind": "ode", "A0": "6*y^2+x",
                                "points": [[0, 0]], "witness": [1, 2]})
    code, report = run_cli(capsys, "recover", "--input", job)
    assert code == 3
    assert report["error"] == '"witness" must be a list of six numbers'


def test_recover_grid_size_must_be_an_integer(tmp_path, capsys):
    data = json.loads((INPUTS / "exp-family-c1.json").read_text())
    data["grid"]["n"] = "nine"
    code, report = run_cli(capsys, "recover", "--input",
                           _write_job(tmp_path, data))
    assert code == 3
    assert "must be integers" in report["error"]


@pytest.mark.parametrize("data, commands, error", [
    ({"kind": "ode", "A0": "exp(1000*x)", "points": [[1, 0]],
      "arithmetic": "float"}, ("check",),
     "the Taylor tower of exp leaves the float range (base point (1, 0))"),
    # nu5's float l1**3
    ({"kind": "ode", "A0": "exp(250*y)", "points": [[0, 1]], "order": 6},
     ("check", "invariants", "recover"),
     "value out of float range (base point (0, 1))"),
    # eval_scalar in the metric's degeneracy check, as the job loads
    ({"kind": "metric", "E": "exp(800*x)", "G": "1", "points": [[1, 0]],
      "order": 8}, ("check", "invariants", "tractor", "recover"),
     "value out of float range (base point (1, 0))"),
    ({"kind": "metric", "E": "1", "G": "(exp(700))^3",
      "points": [[0.3, 1]], "order": 8},
     ("check", "invariants", "tractor", "recover"),
     "value out of float range (base point (0.3, 1))"),
    # sin of an infinite argument, in the same degeneracy check
    ({"kind": "metric", "E": "2+sin(exp(700)*exp(700)*x)", "G": "1",
      "points": [[1, 0]], "order": 6},
     ("check", "invariants", "tractor", "recover"),
     "sin of a non-finite value (base point (1, 0))"),
], ids=["jet-tower", "nu5", "metric-exp", "metric-power", "metric-sin"])
def test_float_exp_overflow_exits_three(data, commands, error, tmp_path,
                                        capsys):
    job = _write_job(tmp_path, data)
    for command in commands:
        code, report = run_cli(capsys, command, "--input", job)
        assert code == 3
        assert report["error"] == error


@pytest.mark.parametrize("data, point", [
    # exp(-3 f) = exp(120) is finite, the scale exp(-18 f) = exp(720) is not
    (dict(json.loads((INPUTS / "painleve1.json").read_text()),
          change="-40*x", points=[[1, 0]]), "(1, 0)"),
    # exp(-18 f) = exp(-900) underflows to 0.0, and with it the recomputed
    # determinant, so the invariance check would compare 0 with 0
    ({"kind": "ode", "A0": "x^2+y", "A1": "y^2", "A2": "x*y", "A3": "x+1",
      "points": [[1, 1]], "change": "50*x"}, "(1, 1)"),
], ids=["overflow", "underflow"])
def test_change_scale_outside_the_float_range_exits_three(
        data, point, tmp_path, capsys):
    job = _write_job(tmp_path, data)
    code, report = run_cli(capsys, "tractor", "--input", job)
    assert code == 3
    assert report["error"] == (
        "the change's scale exp(-18 f) leaves the float range "
        "(base point %s)" % point)


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


@pytest.mark.parametrize("command, change", [
    ("tractor", "x*y/3 - y^2/5"),
    ("tractor", "x*y"),
    ("tractor", None),
    ("invariants", None),
])
def test_order_five_reports_as_order_six(tmp_path, capsys, command, change):
    # the values are constant terms, evaluated at the order they need
    # whatever the job's order, also when a projective change costs the
    # recomputed stack one order
    reports = []
    for order in (5, 6):
        data = json.loads((INPUTS / "painleve1.json").read_text())
        data["order"] = order
        if change is not None:
            data["change"] = change
        got, report = run_cli(capsys, command, "--input",
                              _write_job(tmp_path, data))
        assert got == 0
        assert report.pop("order") == order
        assert report.pop("input") == data
        reports.append(report)
    assert reports[0] == reports[1]


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


def _write_raw_job(tmp_path, data):
    # "HUGE" stands for the literal 1e400, which JSON reads as inf
    job = tmp_path / "job.json"
    job.write_text(json.dumps(data).replace('"HUGE"', "1e400"))
    return str(job)


SELFTEST_ODE = {"kind": "ode", "A0": "x^2+y", "A1": "y^2", "A2": "x*y",
                "A3": "x+1", "points": [[0.5, 0.25]], "arithmetic": "float"}
LIOUVILLE_AT_ONE = {"kind": "metric", "E": "x+y", "F": "0", "G": "x+y",
                    "points": [[1, 1]]}


@pytest.mark.parametrize("command, data, error", [
    ("recover", dict(LIOUVILLE_AT_ONE, grid={
        "center": [1e160, 1e160], "h": 0.1, "n": 3}),
     "transported section is not finite at grid node (1, 0) "
     "(base point (1e+160, 1e+160))"),
    ("recover", dict(LIOUVILLE_AT_ONE, grid={"h": "HUGE", "n": 3}),
     "grid.h: expected a finite number or a rational string, got inf"),
    ("recover", dict(LIOUVILLE_AT_ONE, grid={"center": ["HUGE", 1],
                                             "n": 3}),
     "grid.center: expected a finite number or a rational string, got inf"),
    ("check", dict(SELFTEST_ODE, tolerance="HUGE"),
     '"tolerance" must be a positive finite number'),
    ("recover", dict(LIOUVILLE_AT_ONE, witness=["HUGE", 0, 1, 0, 0, 0]),
     "witness: expected a finite number or a rational string, got inf"),
    ("check", dict(SELFTEST_ODE, points=[["HUGE", 0.25]]),
     "point x: expected a finite number or a rational string, got inf"),
    ("recover", dict(LIOUVILLE_AT_ONE, grid={"h": "1e400", "n": 3}),
     "grid.h: '1e400' is out of float range"),
], ids=["grid-centre-overflows", "h", "centre", "tolerance", "witness",
        "point", "exact-h-beyond-float"])
def test_non_finite_numbers_exit_three(tmp_path, capsys, command, data,
                                       error):
    code, report = run_cli(capsys, command, "--input",
                           _write_raw_job(tmp_path, data))
    assert code == 3
    assert report["error"] == error


def test_disagreeing_points_are_inconclusive(tmp_path, capsys):
    job = _write_job(tmp_path, {
        "kind": "ode", "A0": "x^12+y^13", "A1": "y^12", "A2": "x^12*y",
        "A3": "x^13", "points": [[0, 0], [1, 1]],
    })
    code, report = run_cli(capsys, "check", "--input", job)
    assert code == 2
    assert report["report"]["verdict"] == "Inconclusive"
    assert report["report"]["notes"] == [
        "sample points disagree: Metrisable at (0, 0), "
        "NotMetrisable at (1, 1)"]


@pytest.mark.parametrize("tolerance, verdict, code", [
    (1e-3, "Inconclusive", 2),
    (None, "DegenerateKernel", 1),
])
def test_marginal_rank_decision_is_inconclusive(tmp_path, capsys,
                                                tolerance, verdict, code):
    data = {"kind": "ode", "A0": "6*y^2+x", "points": [[0.5, 0.25]],
            "arithmetic": "float"}
    if tolerance is not None:
        data["tolerance"] = tolerance
    got, report = run_cli(capsys, "check", "--input",
                          _write_job(tmp_path, data))
    assert got == code
    assert report["report"]["verdict"] == verdict
    (point,) = report["report"]["points"]
    assert point["cartan_ranks"] == [1, 2, 3, 4, 5, 5, 5, 5]
    marginal = "rank decisions were numerically marginal" in point["notes"]
    assert marginal == (code == 2)


def _exp_family(**changes):
    return dict(json.loads((INPUTS / "exp-family-c1.json").read_text()),
                **changes)


def test_recover_uses_and_echoes_a_user_witness(tmp_path, capsys):
    job = _write_job(tmp_path, _exp_family(witness=[2, 0, 2, 0, 0, 0]))
    code, report = run_cli(capsys, "recover", "--input", job)
    assert code == 0
    assert report["witness"] == [2.0, 0.0, 2.0, 0.0, 0.0, 0.0]
    # twice the seed, twice psi and four times Delta: E = psi1 / Delta^2
    # falls eightfold
    corner = report["nodes"][0]
    assert abs(corner["E"] - math.exp(0.04) / 8) < 1e-9


def test_recover_witness_needs_six_entries(tmp_path, capsys):
    job = _write_job(tmp_path, _exp_family(witness=[1, 0, 1, 0, 0]))
    code, report = run_cli(capsys, "recover", "--input", job)
    assert code == 3
    assert report["error"] == '"witness" must be a list of six numbers'


def test_recover_refuses_a_degenerate_user_witness(tmp_path, capsys):
    job = _write_job(tmp_path, _exp_family(witness=[1, 1, 1, 0, 0, 0]))
    code, report = run_cli(capsys, "recover", "--input", job)
    assert code == 1
    assert report["refused"] is True
    assert "degenerate form" in report["reason"]


def test_recover_flat_job_uses_the_default_seed(tmp_path, capsys):
    # below order 8 no point yields a kernel witness
    data = dict(json.loads((INPUTS / "flat.json").read_text()), order=7)
    code, report = run_cli(capsys, "recover", "--input",
                           _write_job(tmp_path, data))
    assert code == 0
    assert report["verdict"] == "MetrisableFlat"
    assert report["witness"] == [1.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    assert report["signature"] == "riemannian"
    assert report["transport_defect"] == 0.0


def _liouville(**changes):
    return dict(json.loads((INPUTS / "liouville-metric.json").read_text()),
                **changes)


def test_recover_takes_the_witness_at_an_off_sample_centre(tmp_path,
                                                           capsys):
    # no sample point is the centre, so the centre itself is analysed, a
    # float point, in floats whatever the mode
    job = _write_job(tmp_path, _liouville(
        grid={"center": [1.2, 1.15], "h": 0.04, "n": 7}))
    witnesses = []
    for mode in ("rational", "auto", "float"):
        code, report = run_cli(capsys, "recover", "--input", job,
                               "--mode", mode)
        assert code == 0
        assert report["verdict"] == "Metrisable"
        assert report["transport_defect"] <= 1e-7
        witnesses.append(report["witness"])
    assert witnesses[0] == witnesses[1] == witnesses[2]


@pytest.mark.parametrize("command",
                         ["check", "invariants", "tractor", "recover"])
def test_rational_mode_at_a_float_point_exits_three(tmp_path, capsys,
                                                    command):
    job = _write_job(tmp_path, SELFTEST_ODE)
    code, report = run_cli(capsys, command, "--input", job,
                           "--mode", "rational")
    assert code == 3
    assert report["error"] == \
        "exact evaluation requested at the float point (0.5, 0.25)"


def test_recover_takes_the_witness_of_the_centre_sample_point(
        tmp_path, capsys, monkeypatch):
    data = _liouville(grid={"center": [1, 2], "h": 0.04, "n": 5})
    job = _write_job(tmp_path, data)
    _, checked = run_cli(capsys, "check", "--input", job)
    second = checked["report"]["points"][1]["witness"]

    analyze = cli.invariants.analyze_point
    analysed = []

    def counted(structure, point, *args):
        analysed.append(point)
        return analyze(structure, point, *args)
    monkeypatch.setattr(cli.invariants, "analyze_point", counted)
    code, report = run_cli(capsys, "recover", "--input", job)
    assert code == 0
    # the centre is a sample point, so only the sample points are analysed
    assert len(analysed) == len(data["points"])
    assert report["witness"] == second
    assert report["witness"] != checked["report"]["points"][0]["witness"]
    assert report["transport_defect"] <= 1e-7


BAD_INPUTS = [
    ("recover", _exp_family(order=4), "order"),
    ("recover", _exp_family(order="10"), "order"),
    ("recover", _exp_family(tolerance=0), "tolerance"),
    ("recover", _exp_family(arithmetic="exact"), "arithmetic"),
    ("recover", [_exp_family()], "JSON object"),
    ("check", {"kind": "ode", "A0": 1, "points": [[0, 0]]}, "A0"),
    ("check", {"kind": "metric", "E": "1", "points": [[0, 0]]}, '"G"'),
    ("check", {"kind": "lambda", "points": [[0, 0]]}, "p_coeffs"),
    ("check", {"kind": "ode", "points": []}, "points"),
    ("check", {"kind": "ode", "points": [[0, 0, 0]]}, "point"),
    ("recover", _exp_family(grid=[0, 0]), '"grid"'),
    ("recover", _exp_family(grid={"center": [0]}), "grid.center"),
    ("recover", _exp_family(grid={"n": 1}), "n >= 2"),
    ("recover", _exp_family(grid={"h": 0}), "h > 0"),
    ("tractor", _exp_family(change="x+"), '"change"'),
    ("recover", _exp_family(grid={"n": "5"}), "grid.n"),
    ("recover", _exp_family(grid={"n": 5.5}), "grid.n"),
    ("recover", _exp_family(grid={"n": 5.0}), "grid.n"),
    ("recover", _exp_family(grid={"substeps": True}), "grid.substeps"),
    ("recover", _exp_family(grid={"substeps": "2"}), "grid.substeps"),
    ("check", _exp_family(tolerance=True), "tolerance"),
    ("check", _exp_family(tolerance="1e-9"), "tolerance"),
    ("check", _exp_family(order=True), "order"),
    ("check", _exp_family(order=10.0), "order"),
    ("tractor", {"kind": "ode", "A0": "x", "points": [[0, 0]], "change": 5},
     '"change"'),
    ("check", {"kind": "ode", "A0": "x", "points": [["1/0", 0]]},
     "point x"),
    ("invariants", _exp_family(slope="1/0"), "slope"),
    ("recover", _exp_family(grid={"center": ["1/0", 0]}), "grid.center"),
    ("recover", _exp_family(witness=[1, "1/0", 1, 0, 0, 0]), "witness"),
    ("check", {"kind": "ode", "A0": "((x^2)^3)^3", "points": [[0, 0]]},
     "degree 18"),
    ("check", {"kind": "ode", "A0": "1/(x^9*y^8)", "points": [[1, 1]]},
     "degree 17"),
    ("check", {"kind": "ode", "A0": "x/%d" % 2 ** 64, "points": [[0, 0]]},
     "A0: a number"),
    ("invariants", _exp_family(slope=2 ** 64), "slope"),
    ("check", {"kind": "lambda", "p_coeffs": ["1/%d" % 2 ** 64, 0, 0, 0],
               "points": [[0, 0]]}, "p_coeffs[0]"),
]


@pytest.mark.parametrize("command, data, field", BAD_INPUTS, ids=[
    "order-4", "order-string", "tolerance-0", "arithmetic", "job-list",
    "numeric-A0", "metric-without-G", "lambda-without-p_coeffs",
    "empty-points", "three-entry-point", "grid-list", "one-entry-centre",
    "n-1", "h-0", "change", "n-string", "n-fraction", "n-float",
    "substeps-bool", "substeps-string", "tolerance-bool", "tolerance-string",
    "order-bool", "order-float", "change-number", "point-over-zero",
    "slope-over-zero", "centre-over-zero", "witness-over-zero",
    "nested-degree", "quotient-degree", "literal-bits", "slope-bits", "p_coeffs-bits"])
def test_bad_input_exits_three_naming_the_field(tmp_path, capsys, command,
                                                data, field):
    code, report = run_cli(capsys, command, "--input",
                           _write_job(tmp_path, data))
    assert code == 3
    assert field in report["error"]


# ---------------- exact values too large to print ----------------


def _huge_exact_job(order):
    """A seeded exact job inside every input cap whose det M, E1 and E2
    run to thousands of digits."""
    rng = random.Random(0)

    def c():
        return "%d/%d" % (rng.getrandbits(32) | 1, rng.getrandbits(32) | 1)

    def poly():
        return "+".join("%s*x^%d*y^%d" % (c(), i, j)
                        for i in range(9) for j in range(9 - i))

    return {"kind": "ode", "A0": poly(), "A1": poly(), "A2": poly(),
            "A3": poly(), "points": [[c(), c()]], "order": order}


@pytest.mark.parametrize("limit", [None, 0], ids=["default", "lifted"])
def test_huge_exact_values_exit_three_whatever_the_host_limit(
        tmp_path, capsys, limit):
    job = _write_job(tmp_path, _huge_exact_job(6))
    saved = sys.get_int_max_str_digits()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        code, report = run_cli(capsys, "invariants", "--mode", "rational",
                               "--input", job)
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 3
    assert report["error"] == ("the report holds an exact value of more "
                               "than %d digits" % cli.MAX_DIGITS)


@pytest.mark.parametrize("text", [
    b'{"kind": "ode", "A0": "x\xff"}',
    b'{"kind": "ode", "order": ' + b"9" * 4400 + b"}",
], ids=["not-utf-8", "4400-digit-integer"])
def test_unreadable_json_exits_three(tmp_path, capsys, text):
    # an integer longer than the host's limit on int conversion (4300
    # digits by default) does not parse; a lifted limit reads it
    job = tmp_path / "job.json"
    job.write_bytes(text)
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        code, report = run_cli(capsys, "check", "--input", str(job))
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 3
    assert report["error"].startswith("invalid JSON in %s: " % job)


# ---------------- the exit-code contract under fuzzing ----------------
#
# Seeded jobs drawn from the expression grammar run every analysing
# command in auto and float mode.  No exception may escape `main`, exit 1
# must carry a negative verdict or a recover refusal, and exit 3, and only
# exit 3, an error.

_FUZZ_FUNCS = ("exp", "log", "sin", "cos", "sqrt")


def _fuzz_expr(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(["x", "y", str(rng.randint(0, 9)), "0.5",
                           "%d/%d" % (rng.randint(1, 9), rng.randint(1, 9))])
    a = _fuzz_expr(rng, depth - 1)
    if roll < 0.65:
        return "(%s %s %s)" % (a, rng.choice("+-*/"),
                               _fuzz_expr(rng, depth - 1))
    if roll < 0.8:
        return "(%s)^%d" % (a, rng.randint(-2, 3))
    if roll < 0.9:
        return "-(%s)" % a
    return "%s(%s)" % (rng.choice(_FUZZ_FUNCS), a)


def _fuzz_point(rng):
    return [rng.choice([rng.randint(-2, 2), 0.25, -1.5,
                        "%d/%d" % (rng.randint(-9, 9), rng.randint(1, 9))])
            for _ in range(2)]


def _fuzz_job(rng):
    kind = rng.choice(("ode", "metric", "lambda"))
    if kind == "ode":
        data = {k: _fuzz_expr(rng, 2) for k in ("A0", "A1", "A2", "A3")
                if rng.random() < 0.8}
    elif kind == "metric":
        data = {"E": "1 + %s" % _fuzz_expr(rng, 2), "F": _fuzz_expr(rng, 1),
                "G": "2 + %s" % _fuzz_expr(rng, 2)}
    else:
        data = {"p_coeffs": [_fuzz_expr(rng, 1)
                             for _ in range(rng.randint(1, 4))]}
    data.update(kind=kind, order=rng.randint(5, 8),
                points=[_fuzz_point(rng) for _ in range(rng.randint(1, 2))],
                grid={"n": 3, "substeps": 1, "h": 0.05})
    if rng.random() < 0.3:
        data["change"] = _fuzz_expr(rng, 2)
    return data


# one monomial per coefficient, with 64-bit constants at a 64-bit point:
# det M alone has thousands of digits
_LARGE_CONSTANT_JOB = {
    "kind": "ode", "order": 5,
    "A0": "%d/%d*x^7*y^3" % (2 ** 64 - 59, 2 ** 63 + 29),
    "A1": "%d/%d*x^2*y^8" % (2 ** 63 - 25, 2 ** 64 - 95),
    "A2": "%d/%d*x^5*y^5" % (2 ** 62 + 135, 2 ** 61 - 1),
    "A3": "%d/%d*x^9*y" % (2 ** 64 - 189, 2 ** 62 - 57),
    "points": [["%d/%d" % (2 ** 64 - 83, 2 ** 63 + 11),
                "%d/%d" % (2 ** 63 - 165, 2 ** 64 - 179)]]}

_NEGATIVE = (cli.VERDICT_NOT, cli.VERDICT_DEGENERATE)


def _assert_exit_contract(command, code, report):
    assert code in (0, 1, 2, 3)
    assert ("error" in report) == (code == 3)
    if code == 1:
        if command == "recover":
            assert report["refused"] is True
        else:
            assert report["report"]["verdict"] in _NEGATIVE


def test_exit_codes_keep_their_meaning_under_fuzzing(tmp_path, capsys):
    rng = random.Random(20261020)
    jobs = [_fuzz_job(rng) for _ in range(40)] + [_LARGE_CONSTANT_JOB]
    codes = {}
    for data in jobs:
        job = _write_job(tmp_path, data)
        for command in EVERY_COMMAND:
            for mode in ("auto", "float"):
                try:
                    code, report = run_cli(capsys, command, "--mode", mode,
                                           "--input", job)
                except Exception as err:  # an escape is the finding
                    pytest.fail("%s --mode %s on %s raised %r"
                                % (command, mode, json.dumps(data), err))
                _assert_exit_contract(command, code, report)
                codes.setdefault((command, mode), []).append(code)
    # the grammar reaches every outcome, and the large exact values are
    # refused wherever a report would print them
    assert {c for run in codes.values() for c in run} == {0, 1, 2, 3}
    assert [codes[command, "auto"][-1] for command in EVERY_COMMAND] == \
        [3, 3, 3, 1]
