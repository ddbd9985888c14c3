"""The names the benchmark tracer wraps still exist.

`bench/tracing.py` replaces functions at the names their callers look up;
a renamed or deleted target only shows up in a traced benchmark run.  This
loads the tracer as a file, resolves every target as `install` does, and
installs and uninstalls both recorders around a small transport.  A
target that stays resolvable but is no longer called through the patched
name would only read 0 in a traced run, so small CLI jobs must reach every
span.
"""

import importlib
import importlib.util
import json
import pathlib

from projmet import cli, jets, recovery
from projmet.model import ProjectiveStructure
from projmet.recovery import GridSpec

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = owner.__dict__[part]
    return owner, name


def test_every_span_target_and_jet_counter_resolves():
    tracing = _load_tracing()
    for module_name, attr, _ in tracing.SPAN_TARGETS:
        owner, name = _owner(module_name, attr)
        assert callable(owner.__dict__.get(name)), (module_name, attr)
    for attr, _ in tracing.JET_COUNTERS:
        assert callable(jets.Jet.__dict__.get(attr)), attr


def test_recorders_install_and_uninstall():
    tracing = _load_tracing()
    targets = [_owner(m, a) for m, a, _ in tracing.SPAN_TARGETS]
    before = [owner.__dict__[name] for owner, name in targets]
    jet_before = {a: jets.Jet.__dict__[a] for a, _ in tracing.JET_COUNTERS}

    recorder = tracing.Recorder()
    counter = tracing.JetCounter()
    recorder.install()
    counter.install()
    try:
        grid = GridSpec(center=(0.0, 0.0), h=0.1, n=3, substeps=1)
        recovery.transport(ProjectiveStructure.flat(),
                           (1.0, 0.0, 1.0, 0.0, 0.0, 0.0), grid)
    finally:
        counter.uninstall()
        recorder.uninstall()

    summary = recorder.summary()
    assert summary["recovery.transport"]["calls"] == 1
    # 2 n (2 substeps (n - 1) + 1) - n^2 lattice nodes, each once
    assert summary["recovery.connection_values"]["calls"] == 21
    assert recorder.lattice.ratio == 1.0
    assert [owner.__dict__[name] for owner, name in targets] == before
    assert {a: jets.Jet.__dict__[a] for a in jet_before} == jet_before


# (job, commands): between them they reach every span target but one.
SMALL_JOBS = (
    ({"kind": "metric", "E": "exp(x*y)", "F": "0", "G": "1",
      "points": [[0, 0]], "order": 8, "change": "x*y/3 - y^2/5",
      "grid": {"center": [0, 0], "h": 0.05, "n": 3, "substeps": 1}},
     ("check", "invariants", "tractor", "recover")),
    ({"kind": "lambda", "p_coeffs": ["6*y^2+x", "0", "0", "0"],
      "points": [[0, 0]], "order": 8}, ("check",)),
    ({"kind": "ode", "A0": "x^2+y", "A1": "y^2", "A2": "x*y", "A3": "x+1",
      "points": [[1, 1]], "order": 8}, ("check",)),
    ({"kind": "ode", "A0": "6*y^2+x", "points": [[0, 0]], "order": 8},
     ("check",)),
)

# Only tests call `matrix_Mmax`; the tracer still wraps it by name until
# its span goes in the next change to bench/ (ROADMAP item 6, spans in the
# source).
UNCALLED = {"invariants.matrix_Mmax"}


def test_every_span_target_is_called_by_small_jobs(tmp_path, capsys):
    tracing = _load_tracing()
    recorder = tracing.Recorder()
    recorder.install()
    try:
        for i, (data, commands) in enumerate(SMALL_JOBS):
            job = tmp_path / ("job-%d.json" % i)
            job.write_text(json.dumps(data))
            for command in commands:
                assert cli.main([command, "--input", str(job)]) in (0, 1)
    finally:
        recorder.uninstall()
    capsys.readouterr()

    summary = recorder.summary()
    uncalled = {name for _, _, name in tracing.SPAN_TARGETS
                if name not in summary}
    assert uncalled == UNCALLED


def test_invariants_spans_one_analyze_point_per_point(tmp_path, capsys):
    tracing = _load_tracing()
    data = json.loads((ROOT / "inputs" / "painleve1.json").read_text())
    job = tmp_path / "job.json"
    job.write_text(json.dumps(data))
    recorder = tracing.Recorder()
    recorder.install()
    try:
        assert cli.main(["invariants", "--input", str(job)]) == 0
    finally:
        recorder.uninstall()
    capsys.readouterr()
    summary = recorder.summary()
    assert summary["invariants.analyze_point"]["calls"] == len(data["points"])
