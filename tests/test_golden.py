"""Golden reports: `check`, `invariants`, `tractor` and `recover` stay
byte-identical.

Each file under `tests/golden/` is named `<input>.<command>.<mode>.exit<code>
.json`. It holds the stdout of `projmet.cli.main([command, "--input", job,
"--mode", mode])`, where `job` is `inputs/<input>.json` with the projective
change `"change": "x*y/3 - y^2/5"` added, and `code` is what `main` returned.
The `check`, `invariants` and `tractor` files were rendered that way before
exact jets moved to integer tables, the `recover` files before the transport
lost its `raise_on_defect` switch, and the `auto` files and those of
`mixed-exactness` before covariant derivatives moved to fused kernels.

23 float and auto reports were re-rendered once since, when level k of the
derivative stack of V became the ordered words x^(k-j) y^j in place of
averages of D_x and D_y of the level below. That changes float values in
round-off only (at most 2.0e-15 relative above 1e-8); no verdict, rank, S,
flag, key or exit code changed, and no `rational` report changed. They are
`exp-family-c0.check.float`; `exp-family-c1` `check` and `recover`, auto and
float; `liouville-metric` `check`, `invariants`, `recover` and `tractor`,
float; `mixed-exactness` and `one-parameter-ode` `check`, `invariants` and
`tractor`, auto and float; and `single-coefficient-a.check`, auto and float.

12 tractor reports were re-rendered after that, when one covariant
derivative `tractor._covd` took over from one function per rank. Its
rank-3 derivative of grad Z now subtracts its products slot by slot, not
index by index, so float sums round differently. They are
`liouville-metric.tractor` and `painleve1.tractor`, auto, float and
rational; and `mixed-exactness.tractor`, `one-parameter-ode.tractor` and
`single-coefficient-a.tractor`, auto and float. In the two rational
reports only the float `change.det_recomputed` moved. Above 1e-8 the
largest relative change is 1.6e-15; values at or below 1e-8, the
determinants of singular stacks, moved freely. No key, string, integer,
boolean or exit code changed.

22 reports were re-rendered after that, when one float elimination
(`linalg._eliminate_float`, pivoted Gauss-Jordan) took over float `det`
from an LU loop and `det_m`/`det_M` came from the rank decision on M,
0.0 below rank 6. The moved fields are `det_m`/`det_M`, `e1`/`e2`,
`det_theta`, `D`, `det_after_ops` and `det_recomputed`. They are
`liouville-metric` `check` and `invariants`, float, and `tractor`, auto,
float and rational; `mixed-exactness` and `one-parameter-ode` `check`,
`invariants` and `tractor`, auto and float; `painleve1.tractor`, auto,
float and rational; and `single-coefficient-a.tractor`, auto and float.
In the two rational reports only the float `change.det_recomputed`
moved. Above 1e-8 the largest relative change is 5.2e-15; values at or
below 1e-8 moved freely, such as `liouville-metric`'s float det M at its
rank-2 point, -1.1e-63 -> 0.0. No verdict, rank, S, kernel, witness,
flag, key or exit code changed.
No other file was edited since it was rendered.

Inputs with transcendental calls keep their exit-3 reports in rational
mode. In `auto` mode `mixed-exactness` evaluates its transcendental A0 in
floats and A1-A3 exactly, so its jets mix nonzero exact and float
coefficients.

Jet products run through a loop or a compiled kernel (`jets._convolve`);
the reports are also rendered with every product on one of the two paths.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from projmet import cli, jets

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CHANGE = "x*y/3 - y^2/5"

CASES = sorted(p.name for p in GOLDEN.glob("*.json"))


def test_every_input_command_and_mode_has_a_golden_report():
    inputs = sorted(p.stem for p in (ROOT / "inputs").glob("*.json"))
    expected = sorted(
        "%s.%s.%s" % (name, command, mode)
        for name in inputs
        for command in ("check", "invariants", "tractor", "recover")
        for mode in ("rational", "float", "auto")
    )
    assert sorted(c.rsplit(".", 2)[0] for c in CASES) == expected


def _assert_golden(case, tmp_path, capsys):
    name, command, mode, exit_tag, _ = case.split(".")
    data = json.loads((ROOT / "inputs" / (name + ".json")).read_text())
    job = tmp_path / "job.json"
    job.write_text(json.dumps(dict(data, change=CHANGE)), encoding="utf-8")
    code = cli.main([command, "--input", str(job), "--mode", mode])
    out = capsys.readouterr().out
    assert code == int(exit_tag[len("exit"):])
    assert out == (GOLDEN / case).read_text(encoding="utf-8")


@pytest.mark.parametrize("case", CASES)
def test_report_is_byte_identical(case, tmp_path, capsys):
    _assert_golden(case, tmp_path, capsys)


# KERNEL_AT 0 sends every product through the compiled kernel, and a
# threshold above any count sends every product through the loop.
PRODUCT_PATHS = {"kernel": 0, "loop": float("inf")}


@pytest.mark.parametrize("path", sorted(PRODUCT_PATHS))
@pytest.mark.parametrize("case", CASES)
def test_report_is_byte_identical_on_one_product_path(
        case, path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(jets, "KERNEL_AT", PRODUCT_PATHS[path])
    _assert_golden(case, tmp_path, capsys)


def test_import_compiles_no_product_kernel():
    # a fresh interpreter, so that no earlier test has multiplied jets; the
    # fused multiply-subtract kernels share the product kernels' cache, as
    # the forced `mul_sub` at the end shows
    probe = ("import projmet, projmet.cli\n"
             "from projmet import jets, tractor\n"
             "print(jets._product_kernel.cache_info().currsize,"
             " len(jets._loop_products),"
             " tractor._contraction_plan.cache_info().currsize)\n"
             "jets.KERNEL_AT = 0\n"
             "x = jets.Jet.variable('x', (1, 2), 3)\n"
             "jets.mul_sub(x, [(x, x)])\n"
             "print(jets._product_kernel.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))
                         ).stdout
    assert out.split() == ["0", "0", "0", "1"]
