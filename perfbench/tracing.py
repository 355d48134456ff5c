"""Per-layer counters and timers, attached to the program from outside.

`Tracer.install()` replaces public functions and methods of the
`collatz_sieve` modules with wrappers that count calls and time them, so the
program itself carries no instrumentation.  Each wrapper keeps the caller's
time apart from its wrapped callees', which gives `run_search` a self time.
Hooks whose target no longer exists are skipped and listed in `missing`, and
the metrics they feed read 0.

Layers and the functions wrapped for them:

  affine    search.pattern_trajectory (trajectory build), search.strictly_below
  search    run_search, rebuild_state, TrajectoryRegistry.lookup / register
  coverage  CoverageLedger.covers (outermost call only) / add_class
  oracle    drops_below_self_or_reaches_one (single-member check, also the
            ones made inside verification), verify_success_record
  cli       save_checkpoint, load_checkpoint
"""

from __future__ import annotations

import os
import time
from collections import Counter

from collatz_sieve import cli, coverage, oracle, search


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self.self_seconds: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._callee_seconds = [0.0]
        self._depth: Counter[str] = Counter()
        self._run_search_entries: list[float] = []
        self._registry = None
        self._ledger = None
        self._resume_started: float | None = None

    # ------------------------------------------------------------ wrappers

    def _timed(self, name, fn, after=None, outermost=False, before=None):
        """Count and time calls of fn; `after(args, kwargs, result)` adds counts."""
        calls, seconds, self_seconds = self.calls, self.seconds, self.self_seconds
        callee, depth = self._callee_seconds, self._depth

        def wrapper(*args, **kwargs):
            if outermost and depth[name]:
                return fn(*args, **kwargs)
            if before is not None:
                before()
            depth[name] += 1
            callee.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth[name] -= 1
                inner = callee.pop()
                callee[-1] += elapsed
                calls[name] += 1
                seconds[name] += elapsed
                self_seconds[name] += elapsed - inner
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hook(self, owners, attr, make):
        """Replace attr on every owner that has it by make(original)."""
        present = [o for o in owners if hasattr(o, attr)]
        if not present:
            self.missing.append(f"{owners[0].__name__}.{attr}")
            return
        wrapped = make(getattr(present[0], attr))
        for owner in present:
            setattr(owner, attr, wrapped)

    def install(self) -> None:
        hook, timed = self._hook, self._timed
        hook([search], "pattern_trajectory",
             lambda f: timed("trajectory", f, self._after_trajectory))
        hook([search], "strictly_below", lambda f: self._counted("strictly_below", f))
        hook([search.TrajectoryRegistry], "lookup",
             lambda f: timed("lookup", f, self._after_lookup))
        hook([search.TrajectoryRegistry], "register",
             lambda f: timed("register", f, self._after_register))
        hook([search, cli], "run_search",
             lambda f: timed("run_search", f, self._after_run_search,
                             before=self._before_run_search))
        hook([search, cli], "rebuild_state", lambda f: timed("rebuild_state", f))
        hook([coverage.CoverageLedger], "covers",
             lambda f: timed("covers", f, self._after_covers, outermost=True))
        hook([coverage.CoverageLedger], "add_class",
             lambda f: timed("add_class", f, self._after_add_class))
        hook([oracle], "drops_below_self_or_reaches_one",
             lambda f: timed("member_check", f))
        hook([oracle], "verify_success_record", lambda f: timed("verify", f))
        hook([cli], "save_checkpoint",
             lambda f: timed("save_checkpoint", f, self._after_save_checkpoint))
        hook([cli], "load_checkpoint", lambda f: timed("load_checkpoint", f))

    def _after_trajectory(self, args, kwargs, traj) -> None:
        self.counts["elements_built"] += len(traj.elements)

    def _after_lookup(self, args, kwargs, candidates) -> None:
        self.counts["join_candidates"] += len(candidates)

    def _after_register(self, args, kwargs, result) -> None:
        self._registry = args[0]

    def _before_run_search(self) -> None:
        self._run_search_entries.append(time.perf_counter())

    def _after_run_search(self, args, kwargs, summary) -> None:
        # A resumed search reports totals that include the interrupted run.
        resume = kwargs.get("resume")
        examined = summary.examined - (resume.examined if resume else 0)
        skipped = summary.skipped - (resume.skipped if resume else 0)
        new = summary.records[len(resume.records) if resume else 0:]
        drops = sum(rec.kind is search.CertKind.DROP for rec in new)
        self.counts["examined"] += examined
        self.counts["skipped"] += skipped
        self.counts["drop"] += drops
        self.counts["join"] += len(new) - drops

    def _after_covers(self, args, kwargs, covered) -> None:
        self.counts["covered"] += bool(covered)

    def _after_add_class(self, args, kwargs, gain) -> None:
        self._ledger = args[0]

    def _after_save_checkpoint(self, args, kwargs, result) -> None:
        path = args[0] if args else kwargs["path"]
        self.counts["checkpoint_bytes"] += os.path.getsize(path)

    # ------------------------------------------------------------- results

    def note_resume_started(self, started: float) -> None:
        """Time at which the resumed `search` command was entered."""
        self._resume_started = started

    def note_csv_bytes(self, size: int) -> None:
        self.counts["csv_bytes"] = size

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, named as in BENCHMARK.json's per_layer list."""
        calls, seconds, counts = self.calls, self.seconds, self.counts
        join_candidates = counts["join_candidates"]
        restore_s = 0.0
        if self._resume_started is not None:
            entries = [t for t in self._run_search_entries if t >= self._resume_started]
            restore_s = entries[0] - self._resume_started if entries else 0.0
        return {
            "affine.trajectory_calls": calls["trajectory"],
            "affine.trajectory_s": seconds["trajectory"],
            "affine.elements_built": counts["elements_built"],
            "affine.strictly_below_calls": calls["strictly_below"],
            "search.classes_examined": counts["examined"],
            "search.classes_checked": counts["examined"] - counts["skipped"],
            "search.classes_skipped": counts["skipped"],
            "search.records_drop": counts["drop"],
            "search.records_join": counts["join"],
            "search.registry_lookup_calls": calls["lookup"],
            "search.registry_lookup_s": seconds["lookup"],
            "search.join_candidates": join_candidates,
            "search.join_yield": counts["join"] / join_candidates if join_candidates else 0.0,
            "search.registry_register_calls": calls["register"],
            "search.registry_register_s": seconds["register"],
            "search.registry_entries":
                self._registry.entry_count() if self._registry is not None else 0,
            "search.certify_self_s": self.self_seconds["run_search"],
            "search.rebuild_state_s": seconds["rebuild_state"],
            "coverage.covers_calls": calls["covers"],
            "coverage.covers_s": seconds["covers"],
            "coverage.covered_ratio":
                counts["covered"] / calls["covers"] if calls["covers"] else 0.0,
            "coverage.add_class_calls": calls["add_class"],
            "coverage.add_class_s": seconds["add_class"],
            "coverage.stored_classes": len(self._ledger) if self._ledger is not None else 0,
            "oracle.member_check_calls": calls["member_check"],
            "oracle.member_check_s": seconds["member_check"],
            "oracle.verify_calls": calls["verify"],
            "oracle.verify_s": seconds["verify"],
            "cli.save_checkpoint_calls": calls["save_checkpoint"],
            "cli.save_checkpoint_s": seconds["save_checkpoint"],
            "cli.checkpoint_bytes_written": counts["checkpoint_bytes"],
            "cli.load_checkpoint_s": seconds["load_checkpoint"],
            "cli.restore_s": restore_s,
            "cli.csv_bytes": counts["csv_bytes"],
        }
