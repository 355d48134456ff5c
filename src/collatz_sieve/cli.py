"""Command-line front end: search, reporting, stopping times, verification.

Exit codes: 0 success, 1 verification failure (including "no certificate"),
2 I/O or configuration error, 3 step-cap or memory-guard breach.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import re
import sys
from typing import IO, Iterable, NamedTuple, Sequence

from . import oracle
from .affine import TrajectoryCapError
from .coverage import delta_report, format_percent
from .search import (
    CertificateError,
    CertKind,
    PatternClass,
    SearchConfig,
    SearchState,
    SuccessRecord,
    analyze_moduli,
    check_class,
    rebuild_state,
    run_search,
    unfiltered_registry,
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
# Every line is written by `_encode`, compact with sorted keys, and a reader
# takes a line, the header included, only if it is, byte for byte, the line
# the search writes there: only the header's settings and the last line's
# modulus are decoded to read a journal.

# A header's settings: the SearchConfig fields but max_modulus, the last line's.
_SETTINGS = [f for f in dataclasses.fields(SearchConfig) if f.name != "max_modulus"]


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


class Journal(NamedTuple):
    """A read journal; a torn last line lies beyond `length` bytes."""

    config: SearchConfig  # max_modulus is the last line's modulus
    lines: list[bytes]  # the complete lines after the header, without newlines
    length: int


def _encode(value: object) -> bytes:
    return (json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _header(config: SearchConfig) -> bytes:
    """The journal's first line.  Spelled out, not derived from the dataclass,
    so the journal format changes only when this function does.  The caps are
    not settings: the trajectory cap is always the proved bound plus slack,
    and a first member is settled numerically within the oracle's default
    step cap."""
    return _encode({"config": {"filter_3smooth": config.filter_3smooth,
                               "skip_covered": config.skip_covered,
                               "join_targets_3smooth": config.join_targets_3smooth,
                               "k_verify": config.k_verify,
                               "step_cap": None,
                               "numeric_step_cap": oracle.DEFAULT_STEP_CAP},
                    "format_version": CHECKPOINT_VERSION})


def save_checkpoint(path: str, line: bytes) -> None:
    """Append one line to the journal at path."""
    with open(path, "ab") as fh:
        fh.write(line)


def load_checkpoint(path: str) -> Journal:
    """Read a journal: its header's settings, each read by its field's type,
    and of the lines after it only the last one's modulus, which bounds a
    replay.  The header must be the bytes `_header` writes for them."""
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
    try:
        last = json.loads(lines[-1]) if len(lines) > 1 else {"modulus": 2}
    except ValueError:
        last = None
    if not (isinstance(last, dict) and _ints(last.get("modulus"))):
        raise CheckpointError(f"line {len(lines)} of checkpoint {path} is malformed")
    malformed = CheckpointError(f"checkpoint {path} has a malformed configuration header")
    try:
        settings = {f.name: type(f.default)(header["config"][f.name]) for f in _SETTINGS}
    except (KeyError, TypeError, ValueError, ArithmeticError):
        raise malformed from None
    try:
        config = SearchConfig(max_modulus=last["modulus"], **settings)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path} cannot be replayed: {exc}") from None
    # a setting of another type, an unknown key, a cap that is not fixed,
    # spaces or another key order: bytes the search does not write
    if lines[0] + b"\n" != _header(config):
        raise malformed
    return Journal(config, lines[1:], len(data) - len(torn))


# -------------------------------------------------------------------- search

def _build_config(args) -> SearchConfig:
    return SearchConfig(
        max_modulus=args.max_modulus,
        filter_3smooth=(args.filter_3smooth == "on"),
        skip_covered=args.skip_covered,
        join_targets_3smooth=args.join_targets_3smooth,
        k_verify=args.k_verify,
    )


def _journal_line(state: SearchState) -> bytes:
    """The journal line of the state's frontier modulus."""
    density = state.final_density
    return _encode({"modulus": state.frontier_modulus,
                    "records": [_record_to_row(r) for r in state.new_records],
                    "density": f"{density.numerator}/{density.denominator}",
                    "examined": state.examined, "skipped": state.skipped,
                    "registry_digest": state.registry.digest()})


def _difference(line: bytes, derived: bytes, where: str) -> str:
    """What a journal line that is not the derived line gets wrong.  Fields
    compare by their encoding, so that JSON true is not 1."""
    ours = json.loads(derived)
    try:
        theirs = json.loads(line)
    except ValueError:
        theirs = None
    if not isinstance(theirs, dict):
        return f"{where} is malformed"
    derived_rows, rows = {tuple(r[:2]): r for r in ours["records"]}, theirs.get("records")
    for row in rows if isinstance(rows, list) else ():
        if (isinstance(row, list) and len(row) > 1 and _ints(*row[:2])
                and row[0] == ours["modulus"]):
            found = derived_rows.get(tuple(row[:2]))
            if found is None or _encode(found) != _encode(row):
                return (f"the stored certificate of {row[0]}k-{row[1]} does not hold; the "
                        f"search derives {_record_from_row(found) if found else 'no certificate'}")
    what = next((what for what, keys in [
        ("density trail", ["modulus", "density"]),
        ("record patterns", ["records"]),
        ("examined count", ["examined"]),
        ("skipped count", ["skipped"]),
        ("registry digest", ["registry_digest"]),
    ] if any(_encode(theirs.get(key)) != _encode(ours[key]) for key in keys)), None)
    # equal fields in other bytes: spaces, another key order, an extra key
    return f"the replay's {what} does not match the checkpoint" if what else f"{where} is malformed"


def _restore(path: str, config: SearchConfig | None = None
             ) -> tuple[Journal, SearchState | None]:
    """Load a journal and replay it with its own configuration; every command
    that reads a run comes here, and takes the run from the replay.

    The replay is the search itself, run to the journal's last modulus: it
    derives every record.  Each journal line must be, byte for byte, the
    line the search writes where the replay stands, and no line may be left
    over; only a line that differs is decoded, to name what it gets wrong.
    The first line that differs stops the replay, so a far-off last modulus
    costs nothing.  A journal with no modulus yet gives no state, and
    `config`, when given, must match the header."""
    journal = load_checkpoint(path)
    for f in _SETTINGS if config else ():
        stored, value = getattr(journal.config, f.name), getattr(config, f.name)
        if stored != value:
            raise CheckpointError(f"checkpoint was produced with {f.name}={stored!r}, "
                                  f"current run has {value!r}")
    if not journal.lines:
        return journal, None
    lines = enumerate(journal.lines, start=2)

    def check(state: SearchState) -> None:
        # Never past the last line: the replay stops at its modulus.
        number, line = next(lines)
        derived = _journal_line(state)
        if line + b"\n" != derived:
            raise CheckpointError(_difference(line, derived,
                                              f"line {number} of checkpoint {path}"))

    state = rebuild_state(journal.config, check)
    if next(lines, None) is not None:
        raise CheckpointError("the replay's density trail does not match the checkpoint")
    return journal, state


def cmd_search(args) -> int:
    config = _build_config(args)
    resume_state = None
    if args.resume and not args.checkpoint:
        print("--resume needs --checkpoint", file=sys.stderr)
        return EXIT_IO

    def after_batch(state: SearchState) -> None:
        if args.checkpoint:
            save_checkpoint(args.checkpoint, _journal_line(state))

    # The CSV is a view of the finished run's records.  Both files are opened
    # for writing and found to be two before either is replayed, cut or
    # emptied; a start-up that fails removes each file it created.
    if args.resume and not os.path.exists(args.checkpoint):
        raise CheckpointError(f"checkpoint {args.checkpoint} does not exist")
    created = {path for path in (args.out, args.checkpoint) if path and not os.path.exists(path)}
    with open(args.out, "a", newline="") if args.out else contextlib.nullcontext() as out:
        try:
            if args.checkpoint:
                with open(args.checkpoint, "r+b" if args.resume else "ab") as fh:
                    if out and os.path.samestat(os.fstat(out.fileno()), os.fstat(fh.fileno())):
                        raise ValueError("--out and --checkpoint name the same file")
                    if args.resume:
                        journal, resume_state = _restore(args.checkpoint, config)
                        fh.truncate(journal.length)  # drop a torn last line
                    else:  # a new journal: the header alone
                        fh.truncate(0)
                        fh.write(_header(config))
        except BaseException:
            for path in filter(os.path.exists, created):
                os.remove(path)
            raise
        if out is not None:
            out.truncate(0)
        state = run_search(config, after_batch=after_batch, resume=resume_state)
        if out is not None:
            _emit_table(map(_record_cells, state.records), CSV_HEADER, "csv", out)

    print(f"examined {state.examined} classes "
          f"(skip-covered {'on' if config.skip_covered else 'off'}, "
          f"skipped {state.skipped})")
    print(f"certified {state.success_count} classes")
    print(f"final density {state.final_density} = {format_percent(state.final_density)}")
    print(f"lcm of stored moduli: {state.lcm_stored_moduli}")
    print(f"lcm of certified pattern moduli: {state.lcm_pattern_moduli}")
    print(f"elapsed {state.elapsed_seconds:.1f}s")
    return EXIT_OK


# -------------------------------------------------------------------- report

def _record_cells(rec: SuccessRecord, missing: str = "") -> list[str]:
    """A record as a row of the records table: the results CSV, and
    `report`'s last table."""
    return [missing if v is None else str(v) for v in _record_to_row(rec)]


def _emit_table(rows: Iterable[list[str]], header: list[str], fmt: str,
                file: IO[str] | None = None) -> None:
    """Write a table to file (standard output by default); csv streams the
    rows as they come."""
    if fmt == "csv":
        writer = csv.writer(file or sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
        return
    rows = list(rows)
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
    missing = "-" if args.format == "text" else ""
    _emit_table([_record_cells(rec, missing) for rec in records], CSV_HEADER, args.format)
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
    top = max(max(wanted, default=0), (args.range - 1) if args.range else 0)
    if top < 3:
        print("nothing to do: give --n and/or --range", file=sys.stderr)
        return EXIT_IO

    header = ["n", "stop element", "join value", "joined start",
              "divisions by 2", "min modulus hint"]
    rows = []
    def tabulated(stops):  # one scan, one walk per n, feeds the rows and the longest
        for rec in stops:
            if rec.n in wanted:
                rows.append([str(rec.n), str(rec.stop_index), str(rec.join_value),
                             str(rec.joined_start), str(rec.divisions_by_2),
                             f"2^{rec.divisions_by_2}"])
            yield rec
    try:
        stops = tabulated(oracle.iter_modified_stops(top, max_visited=args.max_visited))
        best = oracle.longest_stop(rec for rec in stops if args.range and rec.n < args.range)
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

    if args.checkpoint:
        # the brute force below is the check, so no replay; every line is decoded
        rec, source = None, f"in checkpoint {args.checkpoint}"
        for number, line in enumerate(load_checkpoint(args.checkpoint).lines, start=2):
            try:
                records = [_record_from_row(row) for row in json.loads(line)["records"]]
            except (ValueError, TypeError, KeyError) as exc:
                raise CheckpointError(f"line {number} of checkpoint {args.checkpoint} "
                                      f"is malformed: {exc}") from None
            rec = rec or next((r for r in records if r.pattern == cls), None)
    else:
        rec = check_class(cls, unfiltered_registry(cls.modulus - 2))
        source = f"at modulus {cls.modulus}"
    if rec is None:
        print(f"no certificate exists for {cls.modulus}k-{cls.remainder} {source}")
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
    print(f"frontier modulus: {state.frontier_modulus}")
    print(f"certified classes: {state.success_count}")
    print(f"disjoint residue classes: {len(state.ledger)}")
    print(f"density {state.final_density} = {format_percent(state.final_density)}")
    print(f"lcm of stored moduli: {state.lcm_stored_moduli}")
    print(f"lcm of certified pattern moduli: {state.lcm_pattern_moduli}")
    if args.classes:
        for m, r in state.ledger.stored_classes():
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
    p.add_argument("--k-verify", type=int, default=0,
                   help="brute-force verify each record for k=1..N (0 = off)")
    p.add_argument("--checkpoint", metavar="PATH")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--out", metavar="PATH",
                   help="results CSV, written once the search finishes (empty if it "
                        "stops early; --resume writes it whole)")
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
    p.add_argument("--max-visited", type=int, default=oracle.DEFAULT_VISITED_LIMIT,
                   help="memory guard on the visited-value set")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_stoptimes)

    p = sub.add_parser("verify", help="brute-force check one class's certificate")
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--checkpoint", metavar="PATH",
                   help="take the certificate from this journal only, never derive it")
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
