#!/usr/bin/env python3
"""Write frozen.json: the gated fields of every committed input's reports.

    python3 bench/freeze.py

Runs `projmet.cli.main` on each committed `inputs/*.json` job (with the
benchmark's projective change added for `tractor`), in exact and in float
mode, and records what `checks.frozen_fields` extracts.  The values in the
repository were frozen at the commit that introduced the benchmark; rerun
this only when a change to the answers is intended, and say so in the
change that does it.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
from contextlib import redirect_stdout

import run
from checks import frozen_fields
from jobs import (CHANGE, COMMITTED_ALL, COMMITTED_EXACT, COMMITTED_RECOVER,
                  DECIDE_COMMANDS)


def freeze():
    cli = run.import_projmet()
    committed = run.load_committed()
    work = run.ROOT / ".bench_build" / "freeze"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _freeze(cli, committed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _freeze(cli, committed, work):
    frozen = {}
    cases = [(name, "rational", DECIDE_COMMANDS) for name in COMMITTED_EXACT]
    cases += [(name, "float", DECIDE_COMMANDS) for name in COMMITTED_ALL]
    cases += [(name, "float", ("recover",)) for name in COMMITTED_RECOVER]
    for name, mode, commands in cases:
        key = "%s/%s" % (name, "recover" if commands == ("recover",)
                         else mode)
        path = work / (name + ".json")
        path.write_text(json.dumps(dict(committed[name], change=CHANGE)),
                        encoding="utf-8")
        entry = frozen.setdefault(key, {})
        for command in commands:
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main([command, "--input", str(path),
                                 "--mode", mode])
            payload = json.loads(out.getvalue())
            entry[command] = frozen_fields(command, payload, code,
                                           mode == "rational")
        print(key, entry["check" if "check" in entry else "recover"]
              .get("verdict"), file=sys.stderr)
    return frozen


if __name__ == "__main__":
    data = freeze()
    (run.BENCH / "frozen.json").write_text("{\n%s\n}\n" % ",\n".join(
        "%s: %s" % (json.dumps(k), json.dumps(data[k], sort_keys=True))
        for k in sorted(data)), encoding="utf-8")
