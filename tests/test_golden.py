"""Golden reports: `check`, `invariants` and `tractor` stay byte-identical.

Each file under `tests/golden/` is named `<input>.<command>.<mode>.exit<code>
.json`. It holds the stdout of `projmet.cli.main([command, "--input", job,
"--mode", mode])`, where `job` is `inputs/<input>.json` with the projective
change `"change": "x*y/3 - y^2/5"` added, and `code` is what `main` returned.
The files were rendered that way before exact jets moved to integer tables,
and were not edited since. Inputs with transcendental calls keep their
exit-3 reports in rational mode.
"""

import json
import pathlib

import pytest

from projmet import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CHANGE = "x*y/3 - y^2/5"

CASES = sorted(p.name for p in GOLDEN.glob("*.json"))


def test_every_input_command_and_mode_has_a_golden_report():
    inputs = sorted(p.stem for p in (ROOT / "inputs").glob("*.json"))
    expected = sorted(
        "%s.%s.%s" % (name, command, mode)
        for name in inputs
        for command in ("check", "invariants", "tractor")
        for mode in ("rational", "float")
    )
    assert sorted(c.rsplit(".", 2)[0] for c in CASES) == expected


@pytest.mark.parametrize("case", CASES)
def test_report_is_byte_identical(case, tmp_path, capsys):
    name, command, mode, exit_tag, _ = case.split(".")
    data = json.loads((ROOT / "inputs" / (name + ".json")).read_text())
    job = tmp_path / "job.json"
    job.write_text(json.dumps(dict(data, change=CHANGE)), encoding="utf-8")
    code = cli.main([command, "--input", str(job), "--mode", mode])
    out = capsys.readouterr().out
    assert code == int(exit_tag[len("exit"):])
    assert out == (GOLDEN / case).read_text(encoding="utf-8")
