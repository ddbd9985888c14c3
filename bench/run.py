#!/usr/bin/env python3
"""projmet benchmark driver.

    python3 bench/run.py --workload decide-exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Runs one workload (see jobs.py) in this process, serially, as a closed loop
of one caller: each invocation of a `projmet` command starts when the
previous one has returned.  The commands are called in-process through
`projmet.cli.COMMANDS` on jobs loaded with `projmet.cli.load_job`, and each
report is rendered to JSON as `projmet.cli.main` renders it; that rendering
is part of the timed invocation.  Every output is checked (checks.py)
outside the timed region.

--trace 0 measures the end-to-end metrics over passes of the workload's
jobs for --seconds (at least one whole pass).  Each invocation is timed at
the reference speed (reference.py) and taken at its median over the
passes; the timings reported are in seconds at that speed, so that the
phases of a shared host do not show in them.  --trace 1 makes one
untraced pass, one pass with a span around every layer (tracing.py) and one
pass counting Jet operations, and reports the per-layer metrics.

Output: a header, one line per metric with its unit, and as the last line a
JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code
is 1 when any check failed and 2 when the benchmark cannot run (for
example when the projmet sources are missing).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import jobs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 15
GAUGE_PERIOD_S = 0.05
COMMAND_NAMES = ("check", "invariants", "tractor", "recover")

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "job_s.p50": "s", "peak_rss_mb": "MB",
}

# Span names reported per layer as "<name>_s" (and "<name>_calls" where
# listed in CALLS).
LAYER_SPANS = (
    "cli.load_job", "model.ode_from_metric", "expressions.eval_jet",
    "invariants.analyze_point", "invariants.liouville",
    "invariants.connection", "invariants.levels", "invariants.cov_deriv",
    "invariants.sixth_order_E", "invariants.stratified_obstruction",
    "invariants.cartan_stabilize", "linalg.det", "linalg.rank_kernel",
    "tractor.tractor_data", "tractor.theta_bar", "tractor.det_by_contraction",
    "tractor.projective_change", "tractor.change_connection",
    "recovery.transport", "recovery.connection_values",
    "recovery.reconstruct_metric", "recovery.roundtrip_residual",
)
CALLS = ("expressions.eval_jet", "invariants.cov_deriv", "linalg.det",
         "linalg.rank_kernel", "recovery.connection_values")
MODULES = ("cli", "model", "expressions", "invariants", "linalg", "tractor",
           "recovery")


class BenchError(Exception):
    """The benchmark cannot run here."""


# ---------------- environment ----------------


def import_projmet():
    """Import projmet.cli afresh from this checkout's src/ and return it."""
    src = ROOT / "src"
    if not (src / "projmet" / "__init__.py").is_file():
        raise BenchError("no projmet sources under %s" % src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules
                 if m == "projmet" or m.startswith("projmet.")]:
        del sys.modules[name]
    cli = importlib.import_module("projmet.cli")
    if Path(cli.__file__).resolve().parent != (src / "projmet").resolve():
        raise BenchError("imported projmet from %s, not from %s"
                         % (cli.__file__, src))
    return cli


def header(args):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    revision = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "projmet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return [
        "# projmet benchmark: workload %s, seed %d, %g s, trace %d"
        % (args.workload, args.seed, args.seconds, args.trace),
        "# machine: nproc %s, cpu %s" % (nproc, cpu),
        "# python: %s %s" % (platform.python_implementation(),
                             platform.python_version()),
        "# revision: %s, src sha256 %s" % (revision,
                                           digest.hexdigest()[:16]),
    ]


def load_committed():
    committed = {}
    for name in jobs.COMMITTED_ALL:
        path = ROOT / "inputs" / (name + ".json")
        try:
            with open(path, encoding="utf-8") as fh:
                committed[name] = json.load(fh)
        except OSError as err:
            raise BenchError("cannot read committed input %s: %s"
                             % (path, err)) from err
    return committed


def load_frozen():
    with open(BENCH / "frozen.json", encoding="utf-8") as fh:
        return json.load(fh)


class JobFiles:
    """The workload's job files, written under .bench_build/ in the
    checkout and removed on close."""

    def __init__(self, specs):
        self.dir = ROOT / ".bench_build" / ("jobs-%d" % os.getpid())
        self.dir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i, spec in enumerate(specs):
            path = self.dir / ("%03d.json" % i)
            path.write_text(json.dumps(spec.data, indent=1), encoding="utf-8")
            self.paths.append(str(path))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------- one pass ----------------


def invoke(cli, job, command, mode):
    """One CLI command, rendered as `projmet.cli.main` renders it."""
    report, code = cli.COMMANDS[command](job, mode)
    report["version"] = cli.__version__
    report["input"] = job.data
    payload = cli.to_jsonable(report)
    json.dumps(payload, indent=2, sort_keys=True)
    return payload, code


class Run:
    """Outcome counts and samples over every pass of one run."""

    def __init__(self, cli, specs, loaded, checker):
        self.cli = cli
        self.specs = specs
        self.loaded = loaded
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.commands = [c for spec in specs for c in spec.commands]
        self.passes = []           # seconds per invocation, one list a pass
        self.scaled = []           # the same at the reference speed

    def one_pass(self, recorder=None, gauge=None, deadline=None):
        """Run every command of every spec once, or those that start before
        `deadline`.  With a recorder, each command runs inside a span named
        cli.<command>.  With a gauge, each invocation is also timed at the
        reference speed."""
        self.checker.new_pass()
        times = []
        scaled = []
        for spec, job in zip(self.specs, self.loaded):
            for command in spec.commands:
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                self.attempted += 1
                span = (recorder.span("cli." + command) if recorder
                        else contextlib.nullcontext())
                gc.collect()
                first = gauge.sample() if gauge else None
                start = time.perf_counter()
                try:
                    with span:
                        payload, code = invoke(self.cli, job, command,
                                               spec.mode)
                except Exception as err:  # any raise is a failed job
                    end = time.perf_counter()
                    found = ["raised %r" % (err,)]
                else:
                    end = time.perf_counter()
                    found = None
                if gauge:
                    gauge.sample()
                    elapsed, at_ref = gauge.scaled(first, start, end)
                    scaled.append(at_ref)
                else:
                    elapsed = end - start
                if found is None:
                    found = self.checker.problems(spec, command, payload,
                                                  code)
                times.append(elapsed)
                if found:
                    self.failed += 1
                    self.problems.append("%s %s (%s): %s" % (
                        spec.name, command, spec.mode, "; ".join(found)))
        self.passes.append(times)
        if gauge:
            self.scaled.append(scaled)

    def medians(self, passes):
        """Each invocation's median time over `passes`, the last of which
        may be partial."""
        return [statistics.median(p[i] for p in passes if len(p) > i)
                for i in range(len(passes[0]))]


def setup(paths, repeats, gauge=None):
    """Import projmet and load every job, `repeats` times; return the
    module, the jobs of the last repeat and the median time, at the
    reference speed when a gauge is given."""
    times = []
    for _ in range(repeats):
        first = gauge.sample() if gauge else None
        start = time.perf_counter()
        cli = import_projmet()
        loaded = [cli.load_job(p) for p in paths]
        end = time.perf_counter()
        if gauge:
            gauge.sample()
            times.append(gauge.scaled(first, start, end)[1])
        else:
            times.append(end - start)
    return cli, loaded, statistics.median(times)


def command_totals(commands, times):
    """Total time of each command over one pass's invocation `times`; None
    for a command the workload does not run."""
    return {c: sum(t for cc, t in zip(commands, times) if cc == c)
            if c in commands else None for c in COMMAND_NAMES}


def hd_quantile(values, p):
    """The Harrell-Davis estimate of the p-quantile of `values`: a mean of
    the order statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density
    over ((i-1)/n, i/n) (Harrell and Davis, Biometrika 69, 1982).  Over the
    few dozen invocations of a pass it moves about half as much from run to
    run as the sample median, which jumps between neighbouring
    invocations."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 200                # midpoint rule within each interval
    weights = []
    for i in range(n):
        h = 1.0 / (n * steps)
        weights.append(h * sum(
            math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
                     - log_beta)
            for t in (i / n + (k + 0.5) * h for k in range(steps))))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


# ---------------- the two kinds of run ----------------


def end_to_end(cli, run, seconds, setup_s, gauge, lines):
    """Passes over the workload's invocations, in order, for `seconds`: one
    whole pass, then as many more invocations as start before the time is
    up.

    Each invocation is timed at the reference speed (reference.py), which
    takes out the slow spells and slow phases that other tenants of a
    shared machine cause, and taken at its median over the passes; the
    metrics are taken over those medians."""
    start = time.perf_counter()
    deadline = start + seconds
    run.one_pass(gauge=gauge)
    while time.perf_counter() < deadline:
        run.one_pass(gauge=gauge, deadline=deadline)
    measured = time.perf_counter() - start
    typical = run.medians(run.scaled)
    wall = run.medians(run.passes)
    metrics = {
        "setup_s": setup_s,
        "pass_s": sum(typical),
        "job_s.p50": hd_quantile(typical, 0.5),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    bursts = [b - a for a, b in gauge.bursts]
    lines.append("# %.1f s measured: %d invocations, %d passes (the last "
                 "may be partial); each of the %d invocations of a pass "
                 "taken at its median; job_s.p50 and job_s.p90 are "
                 "Harrell-Davis estimates over those %d samples"
                 % (measured, sum(map(len, run.passes)), len(run.passes),
                    len(typical), len(typical)))
    lines.append("# %d reference bursts: median %.5f s, quartiles %s s; "
                 "reference speed %.5f s a burst"
                 % (len(bursts), statistics.median(bursts), ", ".join(
                     "%.5f" % q for q in statistics.quantiles(bursts, n=4)),
                    reference.NOMINAL_S))
    lines.append("pass_wall_s = %r s  (wall clock, not scaled)" % sum(wall))
    lines.append("job_s.p90 = %r s  (%d samples, %d beyond it)" % (
        hd_quantile(typical, 0.9),
        len(typical), len(typical) // 10))
    lines.append("jobs_per_s = %r 1/s" % (len(typical) / sum(typical)))
    for command, total in command_totals(run.commands, typical).items():
        lines.append("%s_s = %s s  (one pass; null: not run)"
                     % (command, "null" if total is None else repr(total)))
    return {k: {"value": v, "unit": END_TO_END[k]}
            for k, v in metrics.items()}


def per_layer(cli, run, paths, lines):
    run.one_pass()
    plain_s = sum(run.passes[-1])
    totals = command_totals(run.commands, run.passes[-1])

    recorder = tracing.Recorder()
    recorder.install()
    try:
        with recorder.span("setup"):
            run.loaded = [cli.load_job(p) for p in paths]
        run.one_pass(recorder=recorder)
    finally:
        recorder.uninstall()
    traced_s = sum(run.passes[-1])

    counter = tracing.JetCounter()
    counter.install()
    try:
        run.one_pass()
    finally:
        counter.uninstall()

    summ = recorder.summary()

    def row(name):
        return summ.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    metrics = {}
    for name in LAYER_SPANS:
        metrics[name + "_s"] = (row(name)["total_s"], "s")
    for name in CALLS:
        metrics[name + "_calls"] = (row(name)["calls"], "count")
    for key in ("jets.init_calls", "jets.mul_calls"):
        metrics[key] = (counter.counts.get(key, 0), "count")
    metrics["invariants.coeff_bits.max"] = (recorder.coeff_bits_max, "bits")
    metrics["recovery.lattice_distinct_ratio"] = (recorder.lattice.ratio,
                                                  "ratio")
    for command, total in totals.items():
        metrics["cli.%s_s" % command] = (total or 0.0, "s")
    for module in MODULES:
        metrics[module + ".self_s"] = (sum(
            (r["self_s"] for n, r in summ.items()
             if n.split(".")[0] == module), 0.0), "s")
    fracs = run.checker.tally.fracs()
    metrics["cli.inconclusive_frac"] = (fracs["inconclusive_frac"], "ratio")
    metrics["cli.contradiction_frac"] = (fracs["contradiction_frac"],
                                         "ratio")
    metrics["tractor.float_flag_fail_frac"] = (fracs["float_flag_fail_frac"],
                                               "ratio")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")

    lines.append("# traced pass %.3f s, untraced pass %.3f s; lattice %d "
                 "distinct points / %d connection_values calls"
                 % (traced_s, plain_s, recorder.lattice.distinct,
                    recorder.lattice.calls))
    lines.append("# span                                calls     total_s"
                 "      self_s  self share")
    for name, r in sorted(summ.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append("# %-34s %7d %11.6f %11.6f %10.3f" % (
            name, r["calls"], r["total_s"], r["self_s"],
            r["self_s"] / traced_s if traced_s else 0.0))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_workload(args):
    lines = header(args)
    committed, frozen = load_committed(), load_frozen()
    specs = jobs.build(args.workload, args.seed, committed, frozen)
    files = JobFiles(specs)
    try:
        if args.trace:
            cli, loaded, _ = setup(files.paths, 1)
            run = Run(cli, specs, loaded, checks.Checker(frozen))
            metrics = per_layer(cli, run, files.paths, lines)
        else:
            gauge = reference.Gauge(GAUGE_PERIOD_S)
            gauge.start()
            try:
                cli, loaded, setup_s = setup(files.paths, SETUP_REPEATS,
                                             gauge)
                run = Run(cli, specs, loaded, checks.Checker(frozen))
                metrics = end_to_end(cli, run, args.seconds, setup_s, gauge,
                                     lines)
            finally:
                gauge.stop()
    finally:
        files.close()
    fail_frac = run.failed / run.attempted
    lines.append("# %d jobs; %d invocations attempted, %d failed "
                 "(fail_frac %r)" % (len(specs), run.attempted, run.failed,
                                     fail_frac))
    fracs = run.checker.tally.fracs()
    lines.append("# float checks with a known exact verdict: %d; "
                 "inconclusive_frac %r, contradiction_frac %r; "
                 "float tractor flags false: %d of %d"
                 % (run.checker.tally.float_checks,
                    fracs["inconclusive_frac"], fracs["contradiction_frac"],
                    run.checker.tally.float_flags_false,
                    run.checker.tally.float_flags))
    for problem in run.problems:
        lines.append("# FAILED " + problem)
    for name, m in metrics.items():
        lines.append("%s = %r %s" % (name, m["value"], m["unit"]))
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return lines, result


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    results = {}
    ok = True
    for workload in jobs.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            try:
                results["%s/trace%d" % (workload, trace)] = json.loads(
                    last[0])
            except json.JSONDecodeError:
                results["%s/trace%d" % (workload, trace)] = None
            ok = ok and proc.returncode == 0
    print(json.dumps({"workloads": results}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=jobs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through the `finally` blocks (removing the job files) when the
    # run is terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload == "all":
        return run_all(args)
    try:
        lines, result = run_workload(args)
    except BenchError as err:
        print("projmet benchmark: %s" % err, file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
