#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. The gate counts a corrupted verdict and a corrupted exact determinant
   as one failed invocation each.
2. Every per-layer count repeats exactly between two traced runs of the
   same seed (on a few jobs of each workload, to keep this quick).
3. In a directory holding only BENCHMARK.json and bench/, the driver exits
   nonzero without printing a result.

Exits nonzero if any of these does not hold.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import checks
import jobs
import run

COUNTS = ("expressions.eval_jet_calls", "invariants.cov_deriv_calls",
          "linalg.det_calls", "linalg.rank_kernel_calls",
          "recovery.connection_values_calls", "jets.init_calls",
          "jets.mul_calls", "invariants.coeff_bits.max",
          "recovery.lattice_distinct_ratio")


def require(condition, message):
    if not condition:
        raise SystemExit("selftest FAILED: " + message)


def _run_for(specs, frozen):
    files = run.JobFiles(specs)
    cli, loaded, _ = run.setup(files.paths, 1)
    return files, run.Run(cli, specs, loaded, checks.Checker(frozen))


def corrupted_outputs_fail(committed, frozen):
    specs = [s for s in jobs.decide_exact(0, committed)
             if s.name == "painleve1"]
    files, bench = _run_for(specs, frozen)
    real_invoke = run.invoke

    def corrupting(cli, job, command, mode):
        payload, code = real_invoke(cli, job, command, mode)
        if command == "check":
            payload["report"]["verdict"] = "Metrisable"
        if command == "tractor":
            payload["points"][0]["det_theta"] = "1/3"
        return payload, code

    try:
        bench.one_pass()
        clean = bench.failed
        run.invoke = corrupting
        bench.one_pass()
    finally:
        run.invoke = real_invoke
        files.close()
    for problem in bench.problems:
        print("  expected failure:", problem)
    require(clean == 0, "uncorrupted painleve1 outputs failed the gate")
    require(bench.failed == 2, "corruptions counted as %d failures, not 2"
            % bench.failed)


def counts_repeat(committed, frozen):
    chosen = {
        "decide-exact": ("painleve1", "ode-0", "liouville-0"),
        "decide-float": ("cubic-lambda", "ode-0@", "exp-metric-0@"),
        "recover-grid": ("metric-0",),
    }
    for workload, names in chosen.items():
        specs = [s for s in jobs.build(workload, 7, committed, frozen)
                 if s.name.startswith(names)]
        seen = []
        for _ in range(2):
            files, bench = _run_for(specs, frozen)
            try:
                metrics = run.per_layer(bench.cli, bench, files.paths, [])
            finally:
                files.close()
            require(bench.failed == 0, "; ".join(bench.problems))
            seen.append({k: metrics[k]["value"] for k in COUNTS})
        require(seen[0] == seen[1], "%s counts differ: %r" % (workload, seen))
        print("  %s: %s" % (workload, seen[0]))


def bare_directory_fails():
    bare = run.ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "decide-exact",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("  exit %d: %s" % (proc.returncode, proc.stderr.strip()))
    require(proc.returncode != 0, "bare directory run exited 0")
    require('"correct"' not in proc.stdout,
            "bare directory run printed a result")


def main():
    committed, frozen = run.load_committed(), run.load_frozen()
    print("corrupted outputs fail")
    corrupted_outputs_fail(committed, frozen)
    print("counts repeat")
    counts_repeat(committed, frozen)
    print("bare directory fails")
    bare_directory_fails()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
