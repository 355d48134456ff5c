"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SMOKE WORKDIR SPAWNED_AT

`perfbench/run.py` starts this script once per repetition, from the root of
a checkout, with that checkout's `src` on PYTHONPATH.  SPAWNED_AT is the
parent's `time.perf_counter()` just before the spawn; on Linux that clock is
CLOCK_MONOTONIC and shared between processes, so set-up time covers the
interpreter start, the import and the preparation of the inputs.

The script prints one JSON line: the result fingerprint, the timings of the
measured part and, when TRACE is 1, the per-layer metrics.  The untraced path
calls only the stable API: `run_search`, `SearchConfig`, the `after_batch`
hook, the registry's digest, size and entry count, and `cli.main`.  The fingerprint is read from the
public `report` and `coverage` output, never from the checkpoint or CSV
layout, so a change of those formats does not touch this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import sys
import time

WORKLOADS = ("sieve_dense", "sieve_sparse", "cli_resume")

# Full and smoke sizes.  The smoke sizes run in about a second and exist for
# the benchmark's own tests.
SIEVE_MAX_MODULUS = {
    "sieve_dense": {"full": 1024, "smoke": 64},
    "sieve_sparse": {"full": 8192, "smoke": 512},
}
RESUME_FINAL = {"full": 512, "smoke": 64}
# The interruption frontier is even and drawn from [low, low + 2 * (count - 1)].
RESUME_FRONTIER = {"full": (352, 49), "smoke": (32, 13)}
RESUME_K_VERIFY = "20"


def resume_frontier(seed: int, size: str) -> int:
    """Modulus at which the first `search` stops; seed 0 gives 384 at full size."""
    low, count = RESUME_FRONTIER[size]
    return low + 2 * ((seed + 16) % count)


def sieve_config(search, workload: str, size: str):
    max_modulus = SIEVE_MAX_MODULUS[workload][size]
    if workload == "sieve_dense":
        return search.SearchConfig(max_modulus=max_modulus)
    return search.SearchConfig(max_modulus=max_modulus, filter_3smooth=True,
                               skip_covered=True)


def run_sieve(search, config):
    last = {}
    summary = search.run_search(
        config, after_batch=lambda batch: last.update(registry=batch.registry))
    return summary, last["registry"]


def sieve_fingerprint(search, summary, registry) -> dict:
    drops = sum(rec.kind is search.CertKind.DROP for rec in summary.records)
    return {
        "records": len(summary.records),
        "records_drop": drops,
        "records_join": len(summary.records) - drops,
        "density": str(summary.final_density),
        "examined": summary.examined,
        "skipped": summary.skipped,
        "registry_classes": len(registry),
        "registry_entries": registry.entry_count(),
        "registry_digest": registry.digest(),
    }


def cli_quiet(cli, argv: list[str]) -> str:
    """Run one CLI command in-process; its standard output is returned."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"collatz-sieve {' '.join(argv)} exited with {code}")
    return out.getvalue()


def cli_fingerprint(cli, checkpoint: str, report_csv: str) -> dict:
    text = cli_quiet(cli, ["coverage", "--checkpoint", checkpoint])
    records = re.search(r"^certified classes: (\d+)$", text, re.M)
    density = re.search(r"^density (\S+) = ", text, re.M)
    if records is None or density is None:
        raise RuntimeError(f"unexpected coverage output:\n{text}")
    return {
        "records": int(records.group(1)),
        "density": density.group(1),
        "report_csv_sha256": hashlib.sha256(report_csv.encode()).hexdigest(),
    }


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv: list[str]) -> int:
    workload, seed, trace, smoke, workdir, spawned_at = argv
    seed, spawned_at = int(seed), float(spawned_at)
    size = "smoke" if smoke == "1" else "full"
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")

    import collatz_sieve
    from collatz_sieve import cli, search

    # Measure the checkout's own source, not some installed copy.
    expected = os.path.realpath(os.path.join("src", "collatz_sieve"))
    if os.path.dirname(os.path.realpath(collatz_sieve.__file__)) != expected:
        raise SystemExit(f"imported {collatz_sieve.__file__}, expected {expected}")

    tracer = None
    if trace == "1":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    if workload == "cli_resume":
        frontier = resume_frontier(seed, size)
        out = os.path.join(workdir, "records.csv")
        checkpoint = os.path.join(workdir, "checkpoint.json")
        common = ["--out", out, "--checkpoint", checkpoint,
                  "--k-verify", RESUME_K_VERIFY]
        first = ["search", "--max-modulus", str(frontier)] + common
        second = ["search", "--max-modulus", str(RESUME_FINAL[size]), "--resume"] + common
        report = ["report", "--checkpoint", checkpoint, "--format", "csv"]
    else:
        config = sieve_config(search, workload, size)

    setup_s = time.perf_counter() - spawned_at
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    if workload == "cli_resume":
        cli_quiet(cli, first)
        resume_started = time.perf_counter()
        cli_quiet(cli, second)
        report_csv = cli_quiet(cli, report)
    else:
        summary, registry = run_sieve(search, config)
    wall_s = time.perf_counter() - t0
    cpu_s = cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        if workload == "cli_resume":
            tracer.note_resume_started(resume_started)
            tracer.note_csv_bytes(os.path.getsize(out))
        result["layers"] = tracer.metrics()
        result["missing_hooks"] = tracer.missing
    if workload == "cli_resume":
        result["frontier"] = frontier
        result["fingerprint"] = cli_fingerprint(cli, checkpoint, report_csv)
    else:
        result["fingerprint"] = sieve_fingerprint(search, summary, registry)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
