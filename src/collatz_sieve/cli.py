"""Command-line front end: search, reporting, stopping times, verification.

Exit codes: 0 success, 1 verification failure (including "no certificate"),
2 I/O or configuration error, 3 step-cap or memory-guard breach.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import oracle
from .affine import TrajectoryCapError
from .coverage import (
    CoverageLedger,
    ResidueClass,
    delta_report,
    format_percent,
)
from .search import (
    CertificateError,
    CertKind,
    PatternClass,
    ReplayError,
    ResumeState,
    SearchConfig,
    SuccessRecord,
    analyze_moduli,
    check_class,
    rebuild_state,
    run_search,
    seed_record,
    validate_pattern_class,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_IO = 2
EXIT_CAP = 3

CHECKPOINT_VERSION = 1
CSV_HEADER = ["b", "c", "stop_index", "join_b", "join_c", "join_index"]


class CheckpointError(Exception):
    """Missing, malformed, or internally inconsistent checkpoint file."""


# ---------------------------------------------------------------- checkpoint

def _config_echo(config: SearchConfig) -> dict:
    # Spelled out, not derived from the dataclass, so the checkpoint format
    # changes only when this function does.
    return {
        "max_modulus": config.max_modulus,
        "filter_3smooth": config.filter_3smooth,
        "skip_covered": config.skip_covered,
        "join_targets_3smooth": config.join_targets_3smooth,
        "step_cap": config.step_cap,
        "numeric_step_cap": config.numeric_step_cap,
        "k_verify": config.k_verify,
    }


def _record_to_row(rec: SuccessRecord) -> list:
    if rec.kind is CertKind.DROP:
        return [rec.pattern.modulus, rec.pattern.remainder, rec.stop_index,
                None, None, None]
    assert rec.joined_class is not None
    return [rec.pattern.modulus, rec.pattern.remainder, rec.stop_index,
            rec.joined_class.modulus, rec.joined_class.remainder, rec.join_index]


def _record_from_row(row: Sequence) -> SuccessRecord:
    b, c, stop, jb, jc, ji = row
    if jb is None:
        return SuccessRecord(PatternClass(b, c), CertKind.DROP, stop)
    return SuccessRecord(PatternClass(b, c), CertKind.JOIN, stop,
                         PatternClass(jb, jc), ji)


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _parse_fraction(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den or 1))


@dataclass
class Checkpoint:
    config: dict
    frontier_modulus: int
    examined: int
    skipped: int
    records: list[SuccessRecord]
    ledger_classes: list[ResidueClass]
    density: Fraction
    checkpoints: list[tuple[int, Fraction]]
    registry_digest: str


def save_checkpoint(path: str, cp: Checkpoint) -> None:
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "config": cp.config,
        "frontier_modulus": cp.frontier_modulus,
        "examined": cp.examined,
        "skipped": cp.skipped,
        "success_records": [_record_to_row(r) for r in cp.records],
        "ledger_classes": [[m, r] for m, r in sorted(cp.ledger_classes)],
        "density": _fraction_str(cp.density),
        "checkpoints": [[m, _fraction_str(d)] for m, d in cp.checkpoints],
        "registry_digest": cp.registry_digest,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    # write-then-rename: an interrupted run never leaves a torn checkpoint
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint {path} does not exist")
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}")
    try:
        if doc["format_version"] != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {doc['format_version']}"
            )
        cp = Checkpoint(
            config=doc["config"],
            frontier_modulus=doc["frontier_modulus"],
            examined=doc["examined"],
            skipped=doc["skipped"],
            records=[_record_from_row(r) for r in doc["success_records"]],
            ledger_classes=[ResidueClass(m, r) for m, r in doc["ledger_classes"]],
            density=_parse_fraction(doc["density"]),
            checkpoints=[(m, _parse_fraction(d)) for m, d in doc["checkpoints"]],
            registry_digest=doc["registry_digest"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} is malformed: {exc}")
    _check_trail(path, cp)
    return cp


def _check_trail(path: str, cp: Checkpoint) -> None:
    """A density trail has strictly increasing moduli and non-decreasing
    densities in [0, 1], and ends at the frontier with the stored density."""
    trail = cp.checkpoints
    moduli = [m for m, _ in trail]
    densities = [d for _, d in trail]
    ok = (
        all(a < b for a, b in zip(moduli, moduli[1:]))
        and all(0 <= a <= b <= 1 for a, b in zip([Fraction(0)] + densities, densities))
        and (not trail or trail[-1] == (cp.frontier_modulus, cp.density))
    )
    if not ok:
        raise CheckpointError(f"checkpoint {path} has an impossible density trail")


# -------------------------------------------------------------------- search

def _build_config(args) -> SearchConfig:
    return SearchConfig(
        max_modulus=args.max_modulus,
        filter_3smooth=(args.filter_3smooth == "on"),
        skip_covered=args.skip_covered,
        join_targets_3smooth=args.join_targets_3smooth,
        step_cap=args.step_cap,
        k_verify=args.k_verify,
    )


def _restore(config: SearchConfig, path: str) -> ResumeState:
    """Replay the search a checkpoint describes and check that they agree."""
    cp = load_checkpoint(path)
    stored = dict(cp.config)
    current = _config_echo(config)
    for key in current:
        if key == "max_modulus":
            continue
        if stored.get(key) != current[key]:
            raise CheckpointError(
                f"checkpoint was produced with {key}={stored.get(key)!r}, "
                f"current run has {current[key]!r}"
            )
    try:
        state = rebuild_state(config, cp.frontier_modulus, cp.records)
    except ReplayError as exc:
        raise CheckpointError(str(exc)) from None
    comparisons = [
        ("registry digest", state.registry.digest(), cp.registry_digest),
        ("density", state.ledger.density(), cp.density),
        ("coverage classes", set(state.ledger.stored_classes()), set(cp.ledger_classes)),
        ("frontier", state.frontier_modulus, cp.frontier_modulus),
        ("density trail", state.checkpoints, cp.checkpoints),
        ("record patterns", [r.pattern for r in state.records],
         [r.pattern for r in cp.records]),
        ("examined count", state.examined, cp.examined),
        ("skipped count", state.skipped, cp.skipped),
    ]
    for what, replayed, saved in comparisons:
        if replayed != saved:
            raise CheckpointError(f"the replay's {what} does not match the checkpoint")
    return state


def cmd_search(args) -> int:
    config = _build_config(args)
    resume_state = None
    if args.resume:
        if not args.checkpoint:
            print("--resume needs --checkpoint", file=sys.stderr)
            return EXIT_IO
        resume_state = _restore(config, args.checkpoint)

    out_fh = None
    writer = None
    if args.out:
        out_fh = open(args.out, "w", newline="")
        writer = csv.writer(out_fh)
        writer.writerow(CSV_HEADER)
        if resume_state is not None:
            for rec in resume_state.records:
                writer.writerow(["" if v is None else v for v in _record_to_row(rec)])

    def sink(rec: SuccessRecord) -> None:
        if writer is not None:
            writer.writerow(["" if v is None else v for v in _record_to_row(rec)])

    def after_batch(batch) -> None:
        if out_fh is not None:
            out_fh.flush()
        if args.checkpoint:
            save_checkpoint(args.checkpoint, Checkpoint(
                config=_config_echo(config),
                frontier_modulus=batch.modulus,
                examined=batch.examined,
                skipped=batch.skipped,
                records=batch.records,
                ledger_classes=list(batch.ledger.stored_classes()),
                density=batch.ledger.density(),
                checkpoints=batch.checkpoints,
                registry_digest=batch.registry.digest(),
            ))

    try:
        summary = run_search(config, sink=sink, after_batch=after_batch,
                             resume=resume_state)
    finally:
        if out_fh is not None:
            out_fh.close()

    pct = format_percent(summary.final_density)
    print(f"examined {summary.examined} classes "
          f"(skip-covered {'on' if config.skip_covered else 'off'}, "
          f"skipped {summary.skipped})")
    print(f"certified {summary.success_count} classes")
    print(f"final density {summary.final_density} = {pct}")
    print(f"lcm of stored moduli: {summary.lcm_stored_moduli}")
    print(f"lcm of certified pattern moduli: {summary.lcm_pattern_moduli}")
    print(f"elapsed {summary.elapsed_seconds:.1f}s")
    return EXIT_OK


# -------------------------------------------------------------------- report

def _emit_table(rows: list[list[str]], header: list[str], fmt: str) -> None:
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
        return
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())


def cmd_report(args) -> int:
    cp = load_checkpoint(args.checkpoint)
    rep = delta_report(cp.checkpoints)

    rows = [[f"2^{t}", format_percent(g)] for t, g in rep.power_rows]
    _emit_table(rows, ["factor", "pct complete change"], args.format)
    print()
    rows = [[f"between 2^{t} and 2^{t+1}", format_percent(g)]
            for t, g in rep.between_rows]
    _emit_table(rows, ["factor range", "pct complete change"], args.format)
    print()
    rows = []
    for rec in cp.records:
        row = _record_to_row(rec)
        rows.append([("-" if args.format == "text" else "") if v is None else str(v)
                     for v in row])
    _emit_table(rows, CSV_HEADER, args.format)
    if args.laws:
        print()
        _emit_laws(cp.records, args.format)
    return EXIT_OK


def _emit_laws(records, fmt: str) -> None:
    report = analyze_moduli(records)
    smooth = [m for m in report.successful_moduli if m not in report.non_3smooth_moduli]
    print(f"successful moduli: {len(report.successful_moduli)} "
          f"({len(smooth)} of the form 2^t*3^s)")
    if report.non_3smooth_moduli:
        print(f"  not of that form: {', '.join(map(str, report.non_3smooth_moduli))}")
    rows = [[f"{c.record.pattern.modulus}k-{c.record.pattern.remainder}",
             f"{c.record.joined_class.modulus}k-{c.record.joined_class.remainder}",
             str(c.difference), "yes" if c.is_two_three_product else "NO"]
            for c in report.join_offset_checks]
    if rows:
        print()
        _emit_table(rows, ["join (b=2d)", "target", "c-e", "c-e = 2^t*3^s"], fmt)
    rows = [[f"2^{r.t}..2^{r.t+1}",
             "-" if r.largest_success is None else str(r.largest_success),
             str(r.midpoint), "yes" if r.within_midpoint else "NO"]
            for r in report.midpoint_rows]
    if rows:
        print()
        _emit_table(rows, ["gap", "largest success", "midpoint", "within"], fmt)


# ----------------------------------------------------------------- stoptimes

def cmd_stoptimes(args) -> int:
    wanted = sorted(set(args.n or []))
    if any(n < 3 for n in wanted):
        print("--n values must be >= 3 (2 has no previous sequence)", file=sys.stderr)
        return EXIT_IO
    if args.range is not None and args.range < 4:
        print("--range must be >= 4", file=sys.stderr)
        return EXIT_IO
    if args.step_cap < 1:
        print("--step-cap must be >= 1", file=sys.stderr)
        return EXIT_IO
    top = max(max(wanted, default=0), (args.range - 1) if args.range else 0)
    if top < 3:
        print("nothing to do: give --n and/or --range", file=sys.stderr)
        return EXIT_IO

    header = ["n", "stop element", "join value", "joined start",
              "divisions by 2", "min modulus hint"]
    rows = []
    best: oracle.StopRecord | None = None
    try:
        for rec in oracle.iter_modified_stops(top, step_cap=args.step_cap,
                                              max_visited=args.max_visited):
            if args.range is not None and rec.n < args.range:
                if best is None or rec.stop_index > best.stop_index:
                    best = rec
            if rec.n in wanted:
                rows.append([str(rec.n), str(rec.stop_index), str(rec.join_value),
                             str(rec.joined_start), str(rec.divisions_by_2),
                             f"2^{rec.divisions_by_2}"])
    except oracle.StepCapExceededError as exc:
        print(f"step cap breached: {exc}", file=sys.stderr)
        return EXIT_CAP
    except oracle.VisitedLimitError as exc:
        print(f"memory guard tripped: {exc}", file=sys.stderr)
        return EXIT_CAP

    if rows:
        _emit_table(rows, header, args.format)
    if best is not None:
        print(f"longest for n < {args.range}: n={best.n} joins at element "
              f"{best.stop_index} (value {best.join_value}, sequence of "
              f"{best.joined_start}, {best.divisions_by_2} divisions by 2)")
    return EXIT_OK


# -------------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    cls = PatternClass(args.b, args.c)
    try:
        validate_pattern_class(cls)
    except ValueError as exc:
        print(f"invalid class: {exc}", file=sys.stderr)
        return EXIT_IO

    rec = None
    if args.checkpoint:
        cp = load_checkpoint(args.checkpoint)
        for r in cp.records:
            if r.pattern == cls:
                rec = r
                break
    if rec is None:
        if cls == PatternClass(2, 0):
            rec = seed_record()
        else:
            config = SearchConfig(max_modulus=cls.modulus)
            registry = rebuild_state(config, cls.modulus - 2, []).registry
            rec = check_class(cls, registry)
    if rec is None:
        print(f"no certificate exists for {cls.modulus}k-{cls.remainder} "
              f"at modulus {cls.modulus}")
        return EXIT_VERIFY

    report = oracle.verify_success_record(rec, args.k)
    if rec.kind is CertKind.DROP:
        kind = f"drops below its anchor at element {rec.stop_index}"
    else:
        assert rec.joined_class is not None
        kind = (f"element {rec.stop_index} is element {rec.join_index} of "
                f"{rec.joined_class.modulus}k-{rec.joined_class.remainder}")
    if report.ok:
        print(f"verified: {cls.modulus}k-{cls.remainder} {kind}, "
              f"checked k=1..{args.k}")
        return EXIT_OK
    print(f"VIOLATION: {report.detail}", file=sys.stderr)
    return EXIT_VERIFY


# ------------------------------------------------------------------ coverage

def cmd_coverage(args) -> int:
    cp = load_checkpoint(args.checkpoint)
    ledger = CoverageLedger.from_classes(cp.ledger_classes)
    if ledger.density() != cp.density:
        raise CheckpointError("stored classes do not reproduce the stored density")
    pattern_lcm = math.lcm(*(r.pattern.modulus for r in cp.records)) if cp.records else 1
    print(f"frontier modulus: {cp.frontier_modulus}")
    print(f"certified classes: {len(cp.records)}")
    print(f"disjoint residue classes: {len(cp.ledger_classes)}")
    print(f"density {cp.density} = {format_percent(cp.density)}")
    print(f"lcm of stored moduli: {ledger.lcm_of_moduli()}")
    print(f"lcm of certified pattern moduli: {pattern_lcm}")
    if args.classes:
        for m, r in sorted(cp.ledger_classes):
            print(f"  {r} mod {m}")
    return EXIT_OK


# --------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collatz-sieve",
        description="Sieve congruence classes b*k-c whose Collatz sequences "
                    "provably merge into smaller numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run the sieve up to a modulus")
    p.add_argument("--max-modulus", type=int, required=True)
    p.add_argument("--filter-3smooth", choices=["on", "off"], default="off",
                   help="enumerate only moduli of the form 2^t*3^s")
    p.add_argument("--skip-covered", action="store_true",
                   help="skip classes already covered by the ledger "
                        "(faster; thins the join registry)")
    p.add_argument("--join-targets-3smooth", action="store_true",
                   help="only join into trajectories with 2^t*3^s moduli")
    p.add_argument("--step-cap", type=int, default=None,
                   help="symbolic trajectory cap (default: proved bound + slack)")
    p.add_argument("--k-verify", type=int, default=0,
                   help="brute-force verify each record for k=1..N (0 = off)")
    p.add_argument("--checkpoint", metavar="PATH")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--out", metavar="PATH", help="results CSV")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("report", help="progress tables from a checkpoint")
    p.add_argument("--checkpoint", metavar="PATH", required=True)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.add_argument("--laws", action="store_true",
                   help="also analyze which moduli certify and how joins pair up")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("stoptimes", help="modified stopping times of concrete n")
    p.add_argument("--n", type=int, action="append",
                   help="report this n (repeatable)")
    p.add_argument("--range", type=int,
                   help="also report the argmax over 2..RANGE-1")
    p.add_argument("--step-cap", type=int, default=oracle.DEFAULT_STEP_CAP)
    p.add_argument("--max-visited", type=int, default=oracle.DEFAULT_VISITED_LIMIT,
                   help="memory guard on the visited-value set")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_stoptimes)

    p = sub.add_parser("verify", help="brute-force check one class's certificate")
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--checkpoint", metavar="PATH")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("coverage", help="ledger contents from a checkpoint")
    p.add_argument("--checkpoint", metavar="PATH", required=True)
    p.add_argument("--classes", action="store_true",
                   help="list the stored disjoint residue classes")
    p.set_defaults(func=cmd_coverage)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CertificateError as exc:
        print(f"certificate verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (TrajectoryCapError, oracle.StepCapExceededError,
            oracle.VisitedLimitError) as exc:
        print(f"cap breached: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
