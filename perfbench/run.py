"""Benchmark of the collatz-sieve package: one workload, repeated for a while.

    python3 perfbench/run.py --workload sieve_dense --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout; it measures the package under `src/`.
Each repetition runs `perfbench/worker.py` in a fresh interpreter, one at a
time, so set-up time and peak RSS belong to that repetition alone.  New
repetitions start while the run would otherwise end further below --seconds
than above it, with at least three (two traced/untraced pairs with
--trace 1).  Every repetition's result fingerprint is compared with
`perfbench/fingerprints.json`; a mismatch counts as a failure and its
timings are left out.

The last line of standard output is one JSON object.  With --trace 0 its
metrics are the medians of the end-to-end metrics over the repetitions.  With
--trace 1 traced and untraced repetitions alternate and the metrics are the
per-layer ones: exact counts, which must agree between traced repetitions,
and median times.  `trace.overhead_s` is the median traced wall time minus
the median untraced one.  --smoke runs the seconds-long variant of each
workload, which the benchmark's own tests use.  A summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)
from worker import WORKLOADS  # noqa: E402

MIN_REPS = 3
# No repetition starts after RUN_DEADLINE_S, and none may take longer than
# REP_TIMEOUT_S, so a run always ends within 180 s.
RUN_DEADLINE_S = 120
REP_TIMEOUT_S = 50
WORKDIR_NAME = ".perfbench_work"


def fingerprint_errors(expected: dict, got: dict) -> list[str]:
    return [f"{key}: expected {value!r}, got {got.get(key)!r}"
            for key, value in expected.items() if got.get(key) != value]


def run_rep(root: str, workdir: str, workload: str, seed: int,
            trace: bool, smoke: bool) -> dict:
    """One repetition in a fresh interpreter; raises on any failure."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    repdir = tempfile.mkdtemp(dir=workdir)
    try:
        spawned_at = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, WORKER, workload, str(seed), str(int(trace)),
             str(int(smoke)), repdir, repr(spawned_at)],
            cwd=root, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    finally:
        shutil.rmtree(repdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "collatz_sieve", "__init__.py")):
        print("perfbench: run from the root of a collatz-sieve checkout "
              "(src/collatz_sieve not found)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "fingerprints.json")) as fh:
        expected = json.load(fh)[args.workload]["smoke" if args.smoke else "full"]
    # BENCHMARK.json names the metrics of each mode and their units.
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"]
                 for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}

    os.makedirs(os.path.join(root, WORKDIR_NAME), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(root, WORKDIR_NAME))
    started = time.perf_counter()
    good, traced, failures, attempted = [], [], [], 0
    try:
        # An untimed repetition first, so that a cold file cache, or bytecode
        # caches written in a fresh checkout, never land in a measured set-up.
        run_rep(root, workdir, "sieve_dense", 0, False, True)
        minimum = 2 * 2 if args.trace else MIN_REPS
        durations = []
        while True:
            elapsed = time.perf_counter() - started
            # Stop where the run comes closest to --seconds.
            typical = statistics.median(durations) if durations else 0.0
            if attempted >= minimum and elapsed + typical / 2 >= args.seconds:
                break
            if elapsed >= RUN_DEADLINE_S:
                break
            trace = bool(args.trace) and attempted % 2 == 0
            attempted += 1
            rep_started = time.perf_counter()
            try:
                rep = run_rep(root, workdir, args.workload, args.seed, trace, args.smoke)
            except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
                failures.append(str(exc))
                continue
            finally:
                durations.append(time.perf_counter() - rep_started)
            errors = fingerprint_errors(expected, rep["fingerprint"])
            if errors:
                failures.append("fingerprint mismatch: " + "; ".join(errors))
            else:
                (traced if trace else good).append(rep)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORKDIR_NAME))
        except OSError:
            pass

    for failure in failures:
        print(f"perfbench: {args.workload}: {failure}", file=sys.stderr)
    if not good or (args.trace and not traced):
        print(f"perfbench: {args.workload}: no repetition succeeded", file=sys.stderr)
        return 1

    correct = not failures
    if args.trace:
        traced_wall = statistics.median(rep["wall_s"] for rep in traced)
        metrics = {"trace.wall_s": traced_wall,
                   "trace.overhead_s":
                       traced_wall - statistics.median(rep["wall_s"] for rep in good)}
        for name, unit in units.items():
            if name in metrics:
                continue
            values = [rep["layers"][name] for rep in traced]
            if unit == "s":
                metrics[name] = statistics.median(values)
            else:
                if len(set(values)) != 1:
                    print(f"perfbench: {name} differs between traced repetitions: {values}",
                          file=sys.stderr)
                    correct = False
                metrics[name] = values[0]
        for hook in traced[0]["missing_hooks"]:
            print(f"perfbench: trace hook {hook} not found; its metrics read 0",
                  file=sys.stderr)
    else:
        metrics = {name: len(good) / attempted if name == "ok_rate"
                   else statistics.median(rep[name] for rep in good) for name in units}

    print(f"perfbench: {args.workload} seed {args.seed}: {attempted} repetitions, "
          f"{len(failures)} failed (error_rate {len(failures) / attempted:.4g})",
          file=sys.stderr)
    print("  wall_s of each repetition: "
          + " ".join(f"{rep['wall_s']:.4f}" for rep in traced + good), file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:32} {metrics[name]:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
