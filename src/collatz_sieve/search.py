"""Enumeration and certification of congruence classes b*k - c.

A class is certified when its symbolic trajectory provably merges into
smaller numbers in one of two ways:

  drop: some trajectory element is pointwise below the anchor, so every
        member's sequence reaches a smaller number directly;
  join: some trajectory element coincides, as an affine form, with an
        element of an earlier class whose anchor is pointwise smaller.

Every enumerated class is registered in the trajectory registry whether
or not it certifies: joins only need a pointwise-smaller earlier anchor,
which induction over smaller integers covers, so even failed classes are
legitimate join targets.  Within one modulus all classes are checked
against the registry as frozen at the start of that modulus, which makes
results independent of the order of the classes within the modulus.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import oracle
from .affine import AffineForm, build_trajectory, evaluate, strictly_below
from .coverage import CoverageLedger, from_pattern


class PatternClass(NamedTuple):
    """The pattern b*k - c: modulus b (even), remainder c with 0 <= c < b.

    Members are b - c, 2b - c, 3b - c, ...; for searched classes (b >= 4)
    the remainder is odd, so every member is odd.
    """

    modulus: int
    remainder: int

    def anchor_form(self) -> AffineForm:
        return AffineForm(self.modulus, -self.remainder)


SEED_CLASS = PatternClass(2, 0)  # the even numbers; 2k halves to k immediately


def validate_pattern_class(cls: PatternClass) -> None:
    b, c = cls
    if b < 2 or b % 2:
        raise ValueError(f"modulus must be even and >= 2, got {b}")
    if not 0 <= c < b:
        raise ValueError(f"remainder must be in 0..modulus-1, got {c}")
    if b >= 4 and c % 2 == 0:
        raise ValueError(f"searched classes need an odd remainder, got {cls}")


class CertKind(enum.Enum):
    DROP = "drop"
    JOIN = "join"


@dataclass(frozen=True)
class SuccessRecord:
    """A certified class plus its certificate.

    Drop: element stop_index of the trajectory is pointwise below the
    anchor (joined_class and join_index stay empty).  Join: element
    stop_index equals element join_index of joined_class's trajectory.
    """

    pattern: PatternClass
    kind: CertKind
    stop_index: int
    joined_class: PatternClass | None = None
    join_index: int | None = None

    def __post_init__(self) -> None:
        if self.stop_index < 1:
            raise ValueError(f"stop_index must be >= 1, got {self.stop_index}")
        has_join = self.joined_class is not None and self.join_index is not None
        if self.kind is CertKind.DROP:
            if self.joined_class is not None or self.join_index is not None:
                raise ValueError("drop records carry no join fields")
        elif not has_join:
            raise ValueError("join records need joined_class and join_index")


@dataclass(frozen=True)
class TrajectoryPattern:
    """Maximal symbolic trajectory of a class; element 1 is the anchor form."""

    anchor_class: PatternClass
    elements: tuple[AffineForm, ...]


def pattern_trajectory(cls: PatternClass, step_cap: int | None = None) -> TrajectoryPattern:
    return TrajectoryPattern(cls, build_trajectory(cls.anchor_form(), step_cap))


class DuplicateRegistrationError(ValueError):
    """The same class was registered twice."""


class TrajectoryRegistry:
    """Index of every element of every trajectory built so far.

    Lookup of an affine form returns the (class, element index) pairs in
    registration order, so earlier-enumerated classes come first.
    """

    def __init__(self) -> None:
        self._by_form: dict[AffineForm, list[tuple[PatternClass, int]]] = {}
        self._classes: set[PatternClass] = set()
        self._digest = hashlib.sha256()

    def __len__(self) -> int:
        return len(self._classes)

    def __contains__(self, cls: PatternClass) -> bool:
        return cls in self._classes

    def entry_count(self) -> int:
        return sum(len(v) for v in self._by_form.values())

    def lookup(self, form: AffineForm) -> tuple[tuple[PatternClass, int], ...]:
        return tuple(self._by_form.get(form, ()))

    def register(self, traj: TrajectoryPattern) -> None:
        cls = traj.anchor_class
        if cls in self._classes:
            raise DuplicateRegistrationError(f"{cls} is already registered")
        self._classes.add(cls)
        for index, form in enumerate(traj.elements, start=1):
            self._by_form.setdefault(form, []).append((cls, index))
        self._digest.update(f"{cls.modulus},{cls.remainder};".encode())

    def digest(self) -> str:
        # Trajectories are a deterministic function of the class, so hashing
        # the registration sequence pins down the whole content.
        return self._digest.copy().hexdigest()


def is_3smooth_even(m: int) -> bool:
    """True iff m = 2**t * 3**s with t >= 1, s >= 0."""
    if m < 2 or m % 2:
        return False
    while m % 2 == 0:
        m //= 2
    while m % 3 == 0:
        m //= 3
    return m == 1


def _batches(
    max_modulus: int, filter_3smooth: bool, start_after: int = 2
) -> Iterator[tuple[int, list[PatternClass]]]:
    """Candidate classes grouped by modulus, in canonical order: moduli
    ascending from 4 (only those above start_after), remainders descending
    within a modulus (smallest member values first)."""
    for modulus in range(4, max_modulus + 1, 2):
        if modulus <= start_after or (filter_3smooth and not is_3smooth_even(modulus)):
            continue
        yield modulus, [PatternClass(modulus, r) for r in range(modulus - 1, 0, -2)]


def enumerate_classes(max_modulus: int, filter_3smooth: bool = False) -> Iterator[PatternClass]:
    """Candidate classes up to max_modulus, one by one in canonical order."""
    if max_modulus < 4:
        raise ValueError(f"max_modulus must be >= 4, got {max_modulus}")
    for _, batch in _batches(max_modulus, filter_3smooth):
        yield from batch


def _certify(
    traj: TrajectoryPattern,
    registry: TrajectoryRegistry,
    join_targets_3smooth: bool,
    numeric_step_cap: int,
) -> SuccessRecord | None:
    cls = traj.anchor_class
    anchor = traj.elements[0]
    first_member = evaluate(anchor, 1)
    first_member_ok: bool | None = None  # lazy numeric check of the k=1 member

    def member_one_verified() -> bool:
        nonlocal first_member_ok
        if first_member_ok is None:
            first_member_ok = oracle.drops_below_self_or_reaches_one(
                first_member, numeric_step_cap
            )
        return first_member_ok

    # Drop scan over the whole trajectory first; joins are consulted only
    # when no element ever gets below the anchor.  A drop certificate is
    # self-contained, so it is preferred even over an earlier join.
    for index, element in enumerate(traj.elements, start=1):
        if strictly_below(element, anchor, 2):
            if member_one_verified():
                return SuccessRecord(cls, CertKind.DROP, index)
            break  # the k=1 member cannot be settled, so no drop anywhere

    for index, element in enumerate(traj.elements, start=1):
        for prior_cls, prior_index in registry.lookup(element):
            if join_targets_3smooth and not is_3smooth_even(prior_cls.modulus):
                continue
            prior_anchor = prior_cls.anchor_form()
            if not strictly_below(prior_anchor, anchor, 2):
                continue
            prior_first = evaluate(prior_anchor, 1)
            if prior_first > first_member:
                continue
            if prior_first == first_member and not member_one_verified():
                continue
            return SuccessRecord(cls, CertKind.JOIN, index, prior_cls, prior_index)
    return None


def check_class(
    cls: PatternClass,
    registry: TrajectoryRegistry,
    join_targets_3smooth: bool = False,
    step_cap: int | None = None,
    numeric_step_cap: int = oracle.DEFAULT_STEP_CAP,
) -> SuccessRecord | None:
    """Certify one class against the trajectories registered so far.

    The whole trajectory is scanned for a drop first; only if no element
    gets below the anchor are joins considered, in element order.  Returns
    None if the class does not certify at this modulus.  The registry must
    hold the trajectories of all classes from earlier moduli plus the
    even-number seed.
    """
    validate_pattern_class(cls)
    traj = pattern_trajectory(cls, step_cap)
    return _certify(traj, registry, join_targets_3smooth, numeric_step_cap)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for a search run; everything that affects results lives here."""

    max_modulus: int
    filter_3smooth: bool = False
    skip_covered: bool = False
    join_targets_3smooth: bool = False
    step_cap: int | None = None
    numeric_step_cap: int = oracle.DEFAULT_STEP_CAP
    k_verify: int = 0

    def __post_init__(self) -> None:
        if self.max_modulus < 2 or self.max_modulus % 2:
            raise ValueError(f"max_modulus must be even and >= 2, got {self.max_modulus}")
        if self.step_cap is not None and self.step_cap < 1:
            raise ValueError(f"step_cap must be >= 1, got {self.step_cap}")
        if self.k_verify < 0:
            raise ValueError(f"k_verify must be >= 0, got {self.k_verify}")


class CertificateError(RuntimeError):
    """A freshly produced record failed its own brute-force verification."""

    def __init__(self, record: SuccessRecord, report: oracle.VerificationReport):
        super().__init__(f"certificate {record} failed verification: {report.detail}")
        self.record = record
        self.report = report


@dataclass
class BatchResult:
    """State handed to the after_batch hook once a modulus is finished."""

    modulus: int
    new_records: list[SuccessRecord]
    records: list[SuccessRecord]
    checkpoints: list[tuple[int, Fraction]]
    ledger: CoverageLedger
    registry: TrajectoryRegistry
    examined: int
    skipped: int


@dataclass
class ResumeState:
    """Search state at a modulus boundary, as a search resumes from it.

    The density trail holds one point per processed modulus, so its last
    point names the frontier.
    """

    records: list[SuccessRecord]
    checkpoints: list[tuple[int, Fraction]]
    registry: TrajectoryRegistry
    ledger: CoverageLedger
    examined: int
    skipped: int

    @property
    def frontier_modulus(self) -> int:
        return self.checkpoints[-1][0]


@dataclass
class SearchSummary:
    config: SearchConfig
    records: list[SuccessRecord]
    checkpoints: list[tuple[int, Fraction]]
    final_density: Fraction
    examined: int
    skipped: int
    lcm_stored_moduli: int
    lcm_pattern_moduli: int
    elapsed_seconds: float

    @property
    def success_count(self) -> int:
        return len(self.records)


def seed_record() -> SuccessRecord:
    # 2k halves to k, which is pointwise below the anchor: a drop at element 2.
    return SuccessRecord(SEED_CLASS, CertKind.DROP, 2)


def seed_trajectory() -> TrajectoryPattern:
    return TrajectoryPattern(SEED_CLASS, build_trajectory(SEED_CLASS.anchor_form()))


def _seeded_state(ledger: CoverageLedger | None = None) -> ResumeState:
    """The state before the first modulus: the even-number seed alone."""
    registry = TrajectoryRegistry()
    registry.register(seed_trajectory())
    if ledger is None:
        ledger = CoverageLedger()
    ledger.add_class(from_pattern(SEED_CLASS))
    return ResumeState([seed_record()], [(2, ledger.density())], registry, ledger, 0, 0)


def _sweep(
    config: SearchConfig,
    state: ResumeState,
    last_modulus: int,
    record_for: Callable[[TrajectoryPattern], SuccessRecord | None],
) -> Iterator[tuple[int, list[SuccessRecord]]]:
    """Advance `state` modulus by modulus from its frontier to last_modulus,
    yielding each modulus with the records it added.

    `record_for` gives the record of one checked class, or None.  It is
    called for every checked class of a modulus before any of them is
    registered, so it sees the registry frozen at the modulus boundary.
    """
    for modulus, batch in _batches(last_modulus, config.filter_3smooth,
                                   state.frontier_modulus):
        if config.skip_covered:
            to_check = [c for c in batch if not state.ledger.covers(from_pattern(c))]
        else:
            to_check = batch
        state.examined += len(batch)
        state.skipped += len(batch) - len(to_check)
        trajectories = [pattern_trajectory(cls, config.step_cap) for cls in to_check]
        found = [record_for(traj) for traj in trajectories]
        for traj in trajectories:
            state.registry.register(traj)
        new_records = [record for record in found if record is not None]
        for record in new_records:
            state.ledger.add_class(from_pattern(record.pattern))
        state.records.extend(new_records)
        state.checkpoints.append((modulus, state.ledger.density()))
        yield modulus, new_records


def run_search(
    config: SearchConfig,
    ledger: CoverageLedger | None = None,
    sink: Callable[[SuccessRecord], None] | None = None,
    after_batch: Callable[[BatchResult], None] | None = None,
    resume: ResumeState | None = None,
) -> SearchSummary:
    """Drive the full sieve up to config.max_modulus.

    Every enumerated class is checked against the registry frozen at its
    modulus boundary, then registered; successes update the coverage
    ledger and are passed to `sink` in canonical (modulus ascending,
    remainder descending) order.  One density checkpoint is recorded per
    processed modulus.  `after_batch` runs once per modulus, after the
    checkpoint, and is where callers persist state.  A search resumed from
    `resume` extends its registry and ledger but leaves its record list,
    trail and counts as they were.
    """
    started = time.perf_counter()

    def certify(traj: TrajectoryPattern) -> SuccessRecord | None:
        record = _certify(
            traj, state.registry, config.join_targets_3smooth, config.numeric_step_cap
        )
        if record is not None and config.k_verify:
            report = oracle.verify_success_record(
                record, config.k_verify, config.numeric_step_cap
            )
            if not report.ok:
                raise CertificateError(record, report)
        return record

    def publish(modulus: int, new_records: list[SuccessRecord]) -> None:
        if sink is not None:
            for record in new_records:
                sink(record)
        if after_batch is not None:
            after_batch(
                BatchResult(modulus, new_records, state.records, state.checkpoints,
                            state.ledger, state.registry, state.examined, state.skipped)
            )

    if resume is None:
        state = _seeded_state(ledger)
        publish(2, list(state.records))
    else:
        state = dataclasses.replace(
            resume, records=list(resume.records), checkpoints=list(resume.checkpoints)
        )
    for modulus, new_records in _sweep(config, state, config.max_modulus, certify):
        publish(modulus, new_records)

    return SearchSummary(
        config=config,
        records=state.records,
        checkpoints=state.checkpoints,
        final_density=state.ledger.density(),
        examined=state.examined,
        skipped=state.skipped,
        lcm_stored_moduli=state.ledger.lcm_of_moduli(),
        lcm_pattern_moduli=state.ledger.lcm_of_added_moduli(),
        elapsed_seconds=time.perf_counter() - started,
    )


def rebuild_state(
    config: SearchConfig,
    frontier_modulus: int,
    records: Sequence[SuccessRecord],
) -> ResumeState:
    """Replay a search up to frontier_modulus from its records alone.

    The replay runs the search's own sweep, but takes each checked class's
    record from `records` (looked up by pattern) instead of certifying it,
    and never verifies.  Trajectories are a pure function of the class, so
    the registry, ledger, density trail and counts come out exactly as the
    search left them, skip-covered decisions included.  The returned
    records are the stored ones the replay reached, in canonical order;
    stored records it never reached are left out.
    """
    state = _seeded_state()
    stored = {record.pattern: record for record in records}
    for _ in _sweep(config, state, frontier_modulus,
                    lambda traj: stored.get(traj.anchor_class)):
        pass
    return state


@dataclass(frozen=True)
class JoinOffsetCheck:
    """For a join with b = 2d: is c - e a product of twos and threes?"""

    record: SuccessRecord
    difference: int
    is_two_three_product: bool


@dataclass(frozen=True)
class MidpointRow:
    """Largest successful modulus strictly between 2^t and 2^(t+1)."""

    t: int
    midpoint: int
    largest_success: int | None
    within_midpoint: bool


@dataclass(frozen=True)
class ModuliReport:
    successful_moduli: tuple[int, ...]
    non_3smooth_moduli: tuple[int, ...]
    join_offset_checks: tuple[JoinOffsetCheck, ...]
    midpoint_rows: tuple[MidpointRow, ...]


def analyze_moduli(records: Iterable[SuccessRecord]) -> ModuliReport:
    """Empirical laws over a finished run's records.

    Reports which moduli certified at all (and whether each is of the form
    2^t * 3^s), checks c - e for joins that exactly double the modulus,
    and locates the largest success between consecutive powers of two.
    """
    records = list(records)
    moduli = sorted({rec.pattern.modulus for rec in records})
    non_smooth = tuple(m for m in moduli if not is_3smooth_even(m))

    checks = []
    for rec in records:
        if rec.kind is not CertKind.JOIN:
            continue
        assert rec.joined_class is not None
        if rec.pattern.modulus != 2 * rec.joined_class.modulus:
            continue
        diff = rec.pattern.remainder - rec.joined_class.remainder
        checks.append(JoinOffsetCheck(rec, diff, is_3smooth_even(diff)))

    rows = []
    if moduli:
        top = max(moduli)
        for t in range(1, top.bit_length()):
            gap = [m for m in moduli if 2**t < m < 2 ** (t + 1)]
            largest = max(gap) if gap else None
            midpoint = 3 * 2 ** (t - 1)
            rows.append(
                MidpointRow(t, midpoint, largest,
                            largest is None or largest <= midpoint)
            )

    return ModuliReport(tuple(moduli), non_smooth, tuple(checks), tuple(rows))
