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
import re
import sys
from fractions import Fraction
from itertools import islice
from typing import NamedTuple, Sequence

from . import oracle
from .affine import TrajectoryCapError
from .coverage import delta_report, format_percent
from .search import (
    CertificateError,
    CertKind,
    PatternClass,
    ReplayError,
    ResumeState,
    SearchConfig,
    SuccessRecord,
    _moduli,
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

CHECKPOINT_VERSION = 2
CSV_HEADER = ["b", "c", "stop_index", "join_b", "join_c", "join_index"]


class CheckpointError(Exception):
    """Missing, malformed, or internally inconsistent checkpoint journal."""


# ---------------------------------------------------------------- checkpoint
#
# A checkpoint is an append-only journal of JSON lines: a header with the
# format version and the configuration echo, then one line per processed
# modulus with the records it added, its density, the examined and skipped
# counts so far and the registry digest.  A last line without its newline was
# cut short by a kill: readers ignore it and a resumed search truncates it.

def _config_echo(config: SearchConfig) -> dict:
    # Spelled out, not derived from the dataclass, so the journal format
    # changes only when this function does.  No max_modulus: a journal's
    # frontier is its last line.
    return {
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


def _ints(*values: object) -> bool:
    return all(type(v) is int for v in values)  # JSON true/false are not integers here


def _record_from_row(row: object) -> SuccessRecord:
    if not (isinstance(row, list) and len(row) == 6 and _ints(*row[:3])
            and (row[3:] == [None] * 3 or _ints(*row[3:]))):
        raise ValueError(f"malformed record row {row!r}")
    b, c, stop, jb, jc, ji = row
    if jb is None:
        return SuccessRecord(PatternClass(b, c), CertKind.DROP, stop)
    return SuccessRecord(PatternClass(b, c), CertKind.JOIN, stop, PatternClass(jb, jc), ji)


def _parse_fraction(text: object) -> Fraction:
    match = re.fullmatch(r"(-?[0-9]+)/([0-9]+)", text) if isinstance(text, str) else None
    if match is None or int(match[2]) < 1:
        raise ValueError(f"expected a fraction p/q with q >= 1, got {text!r}")
    return Fraction(int(match[1]), int(match[2]))


class JournalEntry(NamedTuple):
    """One journal line: what a search added at one modulus."""

    modulus: int
    records: list[SuccessRecord]
    density: Fraction
    examined: int
    skipped: int
    registry_digest: str


class Journal(NamedTuple):
    """A parsed journal; a torn last line lies beyond `length` bytes."""

    config: SearchConfig  # max_modulus is the last line's modulus
    entries: list[JournalEntry]
    length: int


def _encode(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _decode_entry(line: bytes) -> JournalEntry:
    doc = json.loads(line)
    if not (isinstance(doc, dict) and doc.keys() == set(JournalEntry._fields)
            and _ints(doc["modulus"], doc["examined"], doc["skipped"])
            and isinstance(doc["records"], list) and isinstance(doc["registry_digest"], str)):
        raise ValueError("not a journal line")
    return JournalEntry(**doc | {"records": [_record_from_row(r) for r in doc["records"]],
                                 "density": _parse_fraction(doc["density"])})


def save_checkpoint(path: str, entry: JournalEntry) -> None:
    """Append one modulus to the journal at path."""
    density = f"{entry.density.numerator}/{entry.density.denominator}"
    with open(path, "ab") as fh:
        fh.write(_encode(entry._asdict() | {
            "records": [_record_to_row(r) for r in entry.records], "density": density}))


def load_checkpoint(path: str) -> Journal:
    """Parse a journal; nothing in it is replayed or cross-checked here."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint {path} does not exist")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}")
    *lines, torn = data.split(b"\n")
    try:
        header = json.loads(lines[0]) if lines else None
    except ValueError:
        header = None
    if not isinstance(header, dict) or header.get("format_version") != CHECKPOINT_VERSION:
        # a version-1 checkpoint was one indented JSON document
        found = re.search(rb'"format_version": *(-?[0-9]+)', data)
        raise CheckpointError(f"checkpoint {path} is not a version-{CHECKPOINT_VERSION} journal"
                              + (f" (it has format_version {int(found[1])})" if found else ""))
    entries = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            entries.append(_decode_entry(line))
        except ValueError as exc:
            raise CheckpointError(f"line {number} of checkpoint {path} is malformed: {exc}")
    # each header value must have the type of its field; step_cap may be null
    echo, kinds = header.get("config"), _config_echo(SearchConfig(max_modulus=2, step_cap=1))
    if not (isinstance(echo, dict) and echo.keys() == kinds.keys() and all(
            type(value) is type(kinds[key]) or (key == "step_cap" and value is None)
            for key, value in echo.items())):
        raise CheckpointError(f"checkpoint {path} has a malformed configuration header")
    try:
        config = SearchConfig(max_modulus=entries[-1].modulus if entries else 2, **echo)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path} cannot be replayed: {exc}") from None
    return Journal(config, entries, len(data) - len(torn))


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


def _restore(path: str, config: SearchConfig | None = None
             ) -> tuple[Journal, ResumeState | None]:
    """Load a journal and replay it with its own configuration; every command
    that reads a run comes here.  The replay must reproduce the journal's
    density trail, records, counts and registry digest, and callers take the
    run from the replay.  A journal with no modulus yet gives no state, and
    `config`, when given, must match the header."""
    journal = load_checkpoint(path)
    stored = _config_echo(journal.config)
    for key, value in _config_echo(config).items() if config else ():
        if stored[key] != value:
            raise CheckpointError(f"checkpoint was produced with {key}={stored[key]!r}, "
                                  f"current run has {value!r}")
    if not journal.entries:
        return journal, None
    last = journal.entries[-1]
    # The replay goes no further than the journal's length vouches for; if
    # that falls short of the last line, the trail comparison says so.
    frontier = max(islice(_moduli(last.modulus, journal.config.filter_3smooth),
                          len(journal.entries) - 1), default=2)
    records = [record for entry in journal.entries for record in entry.records]
    try:
        state = rebuild_state(journal.config, frontier, records)
    except ReplayError as exc:
        raise CheckpointError(str(exc)) from None
    comparisons = [
        ("density trail", state.checkpoints, [(e.modulus, e.density) for e in journal.entries]),
        ("record patterns", [r.pattern for r in state.records], [r.pattern for r in records]),
        ("examined count", state.examined, last.examined),
        ("skipped count", state.skipped, last.skipped),
        ("registry digest", state.registry.digest(), last.registry_digest),
    ]
    for what, replayed, saved in comparisons:
        if replayed != saved:
            raise CheckpointError(f"the replay's {what} does not match the checkpoint")
    return journal, state


def cmd_search(args) -> int:
    config = _build_config(args)
    resume_state = None
    if args.resume:
        if not args.checkpoint:
            print("--resume needs --checkpoint", file=sys.stderr)
            return EXIT_IO
        journal, resume_state = _restore(args.checkpoint, config)
        os.truncate(args.checkpoint, journal.length)  # drop a torn last line
    elif args.checkpoint:
        with open(args.checkpoint, "wb") as fh:  # a new journal: the header alone
            fh.write(_encode({"config": _config_echo(config),
                              "format_version": CHECKPOINT_VERSION}))

    out_fh = open(args.out, "w", newline="") if args.out else None
    writer = csv.writer(out_fh) if out_fh is not None else None

    def write_rows(records: list[SuccessRecord]) -> None:
        if writer is not None:
            writer.writerows(["" if v is None else v for v in _record_to_row(rec)]
                             for rec in records)

    if writer is not None:
        writer.writerow(CSV_HEADER)
    write_rows(resume_state.records if resume_state is not None else [])

    def after_batch(batch) -> None:
        write_rows(batch.new_records)
        if out_fh is not None:
            out_fh.flush()
        if args.checkpoint:
            save_checkpoint(args.checkpoint, JournalEntry(
                batch.modulus, batch.new_records, batch.checkpoints[-1][1],
                batch.examined, batch.skipped, batch.registry.digest(),
            ))

    try:
        summary = run_search(config, after_batch=after_batch, resume=resume_state)
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
    _, state = _restore(args.checkpoint)
    trail, records = (state.checkpoints, state.records) if state else ([], [])
    rep = delta_report(trail)

    rows = [[f"2^{t}", format_percent(g)] for t, g in rep.power_rows]
    _emit_table(rows, ["factor", "pct complete change"], args.format)
    print()
    rows = [[f"between 2^{t} and 2^{t+1}", format_percent(g)]
            for t, g in rep.between_rows]
    _emit_table(rows, ["factor range", "pct complete change"], args.format)
    print()
    rows = []
    for rec in records:
        row = _record_to_row(rec)
        rows.append([("-" if args.format == "text" else "") if v is None else str(v)
                     for v in row])
    _emit_table(rows, CSV_HEADER, args.format)
    if args.laws:
        print()
        _emit_laws(records, args.format)
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
        # the brute force below is the check, so no replay
        rec = next((r for entry in load_checkpoint(args.checkpoint).entries
                    for r in entry.records if r.pattern == cls), None)
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
    _, state = _restore(args.checkpoint)
    if state is None:
        raise CheckpointError(f"checkpoint {args.checkpoint} records no modulus yet")
    ledger, classes = state.ledger, state.ledger.stored_classes()
    print(f"frontier modulus: {state.frontier_modulus}")
    print(f"certified classes: {len(state.records)}")
    print(f"disjoint residue classes: {len(classes)}")
    print(f"density {ledger.density()} = {format_percent(ledger.density())}")
    print(f"lcm of stored moduli: {ledger.lcm_of_moduli()}")
    print(f"lcm of certified pattern moduli: "
          f"{math.lcm(*{rec.pattern.modulus for rec in state.records})}")
    if args.classes:
        for m, r in classes:
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
