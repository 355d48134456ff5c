"""Tests of the benchmark itself, on the smoke sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run
import worker

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(run.__file__).resolve()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
FINGERPRINTS = json.loads((Path(run.HERE) / "fingerprints.json").read_text())


def bench(workload: str, trace: int = 0, seed: int = 0, cwd: Path = ROOT,
          script: Path = RUN) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def rep(workload: str, trace: bool, seed: int = 0) -> dict:
    workdir = ROOT / run.WORKDIR_NAME
    workdir.mkdir(exist_ok=True)
    try:
        return run.run_rep(str(ROOT), str(workdir), workload, seed, trace, True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_workload_lists_agree():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(worker.WORKLOADS) == list(FINGERPRINTS)


def test_smoke_density_is_the_readme_value():
    density = FINGERPRINTS["sieve_dense"]["smoke"]["density"]
    num, den = map(int, density.split("/"))
    assert f"{100 * num / den:.5f}" == "93.92361"


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    res = result(bench(workload))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= run.MIN_REPS
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == {
        name: metric["unit"] for name, metric in res["metrics"].items()}
    assert all(metric["value"] > 0 for metric in res["metrics"].values())
    assert res["metrics"]["ok_rate"]["value"] == 1.0


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = result(bench(workload, trace=1)), result(bench(workload, trace=1))
    assert first["correct"] and second["correct"]
    assert [m["name"] for m in BENCH["per_layer"]] == list(first["metrics"])
    for name, metric in first["metrics"].items():
        if metric["unit"] != "s":
            assert metric["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_tracing_leaves_the_fingerprint_alone(workload):
    plain, traced = rep(workload, trace=False), rep(workload, trace=True)
    assert "layers" in traced and "layers" not in plain
    assert plain["fingerprint"] == traced["fingerprint"] == FINGERPRINTS[workload]["smoke"]


def test_resume_fingerprint_does_not_depend_on_the_frontier():
    first, second = rep("cli_resume", trace=False, seed=0), rep("cli_resume", trace=False, seed=5)
    assert first["frontier"] != second["frontier"]
    assert first["fingerprint"] == second["fingerprint"]


def test_resume_frontier_range():
    frontiers = {worker.resume_frontier(seed, "full") for seed in range(200)}
    assert worker.resume_frontier(0, "full") == 384
    assert min(frontiers) == 352 and max(frontiers) == 448
    assert all(f % 2 == 0 for f in frontiers)


def test_fingerprint_mismatch_fails_the_run(monkeypatch):
    real_rep = run.run_rep
    calls = []

    def tampered(*args):
        out = real_rep(*args)
        calls.append(out)
        if len(calls) == 3:
            out["fingerprint"]["density"] = "1/2"
        return out

    monkeypatch.setattr(run, "run_rep", tampered)
    monkeypatch.chdir(ROOT)
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = run.main(["--workload", "sieve_dense", "--seconds", "0", "--smoke"])
    assert code == 0
    res = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert not res["correct"] and res["failed"] == 1
    assert res["metrics"]["ok_rate"]["value"] == (res["attempted"] - 1) / res["attempted"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sieve_dense", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
