"""Golden reports: `check`, `invariants`, `tractor` and `recover` stay
byte-identical.

Each file under `tests/golden/` is named `<input>.<command>.<mode>.exit<code>
.json`. It holds the stdout of `projmet.cli.main([command, "--input", job,
"--mode", mode])`, where `job` is `inputs/<input>.json` with the projective
change `"change": "x*y/3 - y^2/5"` added, and `code` is what `main` returned.
The `check`, `invariants` and `tractor` files were rendered that way before
exact jets moved to integer tables, the `recover` files before the transport
lost its `raise_on_defect` switch, and none was edited since. Inputs with
transcendental calls keep their exit-3 reports in rational mode.

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
        for mode in ("rational", "float")
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
    # a fresh interpreter, so that no earlier test has multiplied jets
    probe = ("import projmet, projmet.cli\n"
             "from projmet import jets, tractor\n"
             "print(jets._product_kernel.cache_info().currsize,"
             " tractor._contraction_plan.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))
                         ).stdout
    assert out.split() == ["0", "0"]
