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

The registry stores no trajectory, only one bit per registered class and
a Bloom filter over the last elements of their trajectories; a lookup
walks the symbolic step backwards (see TrajectoryRegistry).  So a class
needs only its trajectory's length, last element and first drop index.
`walk_modulus` computes them for a whole modulus b = 2^t*m on ints, with
one walk per residue mod 2^t: a*k + d with a even has the parity of d for
every k, and while a stays even that parity is the same for all classes
of one residue.  Forms are built only for a join scan or to check a stored
record in a replay.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import oracle
from .affine import AffineForm, TrajectoryCapError, build_trajectory, default_step_cap
from .affine import evaluate, strictly_below, v2
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


@dataclass(frozen=True, slots=True)  # a run holds tens of thousands
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


class ModulusWalk(NamedTuple):
    """Trajectory length, last element (a, d) and first drop index (0 if
    none) of each class b*k - c of one modulus, in the remainders' order."""

    modulus: int
    remainders: Sequence[int]
    lengths: list[int]
    terminals: list[tuple[int, int]]
    drops: list[int]


def walk_modulus(modulus: int, remainders: Sequence[int],
                 step_cap: int | None = None) -> ModulusWalk:
    """pattern_trajectory(PatternClass(modulus, c)) for each c, on ints.

    With b = 2^t*m, m odd, element i of (b, -c) is (b*3^o/2^j, (S - 3^o*c)/2^j)
    for o, j, S set by the steps before it.  While j < t the coefficient is
    even and the offset's parity depends on c mod 2^t only, so one walk per
    residue r = c mod 2^t serves all its classes; the last element is
    (m*3^o, (S - 3^o*c) >> t).  Element i is strictly_below(it, anchor, 2)
    iff a < b and 2*(b - a) > d + c, that is c*D < N with D = 2^j - 3^o > 0
    and N = 2*(b - a)*2^j - S (element 1, the only one with a = b, does not
    drop), so a class drops first where the prefix maximum of ceil(N/D)
    first exceeds c.  Raises build_trajectory's TrajectoryCapError at the
    first class, in the given order, whose trajectory exceeds step_cap.
    """
    t = v2(modulus)
    if step_cap is None:
        step_cap = default_step_cap(modulus)
    groups: dict[int, tuple] = {}  # r: length, a, 3^o and S at the end, drop thresholds
    lengths, terminals, drops = [], [], []
    for c in remainders:
        r = c & ((1 << t) - 1)
        if r not in groups:
            a, d, power, j, total, length = modulus, -r, 1, 0, 0, 1
            bounds, indices = [], []
            while not a & 1:
                if d & 1:
                    a, d, power, total = 3 * a, 3 * d + 1, 3 * power, 3 * total + (1 << j)
                else:
                    a, d, j = a >> 1, d >> 1, j + 1
                length += 1
                excess = (1 << j) - power  # D, positive iff a < modulus
                bound = -((total - ((modulus - a) << (j + 1))) // excess) if excess > 0 else 0
                if bound > (bounds[-1] if bounds else 0):  # a new prefix maximum of ceil(N/D)
                    bounds.append(bound)
                    indices.append(length)
            if length > step_cap:  # c is the first class, in order, of this group
                raise TrajectoryCapError(AffineForm(modulus, -c), step_cap)
            groups[r] = length, a, power, total, bounds, indices + [0]
        length, coeff, power, total, bounds, indices = groups[r]
        lengths.append(length)
        terminals.append((coeff, (total - power * c) >> t))
        drops.append(indices[bisect_right(bounds, c)])
    return ModulusWalk(modulus, remainders, lengths, terminals, drops)


class DuplicateRegistrationError(ValueError):
    """The same class was registered twice."""


class _BloomFilter:
    """Membership with false positives but no false negatives (Bloom, CACM
    1970), grown as a scalable Bloom filter (Almeida et al., IPL 2007): a full
    sub-filter is followed by one of twice its capacity.  Three probes by
    double hashing at 16 bits per item give about 0.5% false positives; an
    unsalted hash (a tuple of ints) makes the answers repeat across runs.
    """

    _BITS_PER_ITEM = 16
    _FIRST_CAPACITY = 1 << 16

    def __init__(self) -> None:
        self._filters: list[tuple[bytearray, int]] = []  # (bits, bit mask)
        self._room = 0  # items the newest sub-filter still takes

    def update(self, items: Sequence[object]) -> None:
        while items:
            if not self._room:
                capacity = self._FIRST_CAPACITY << len(self._filters)
                size = capacity * self._BITS_PER_ITEM
                self._filters.append((bytearray(size // 8), size - 1))
                self._room = capacity
            bits, mask = self._filters[-1]
            chunk, items = items[:self._room], items[self._room:]
            self._room -= len(chunk)
            for item in chunk:  # the probes of __contains__, unrolled
                h = hash(item)
                step = (h >> 32) | 1
                p, q, r = h & mask, (h + step) & mask, (h + 2 * step) & mask
                bits[p >> 3] |= 1 << (p & 7)
                bits[q >> 3] |= 1 << (q & 7)
                bits[r >> 3] |= 1 << (r & 7)

    def __contains__(self, item: object) -> bool:
        h = hash(item)
        step = (h >> 32) | 1
        for bits, mask in self._filters:
            p, q, r = h & mask, (h + step) & mask, (h + 2 * step) & mask
            if (bits[p >> 3] >> (p & 7) & 1 and bits[q >> 3] >> (q & 7) & 1
                    and bits[r >> 3] >> (r & 7) & 1):
                return True
        return False


class TrajectoryRegistry:
    """The registered classes, and which of their trajectories meet a form.

    No form is stored: per modulus, one bit per odd remainder c at c >> 1
    (the seed 2k is bit 0 of modulus 2); size, entry count and digest are
    running totals.  `lookup(f)` is exact by backward inversion.  The forms
    that step to (a, d) are (2a, 2d), and (a/3, (d-1)/3) when that is an odd
    form with an even coefficient, so the classes whose trajectory holds f
    at element i are the registered anchors (b, -c) at depth i - 1 of the
    tree of predecessors.  Going back d/a never rises, and anchors need
    -1 < d/a <= 0, so a node with d <= -a is pruned.  Two divisions by 3
    need a doubling between them, so with o = v3(a) no node behind (a, d)
    has a coefficient below a*2^(o-1)/3^o (a if o = 0); a node whose bound
    exceeds the largest registered modulus is pruned too.  Hits come in
    canonical order, modulus ascending and remainder descending, which is
    the order in which the search registers classes.

    A trajectory ends at its first odd coefficient and the step is a
    function, so trajectories that share an element share their last one:
    a Bloom filter over the registered last elements tells, with no false
    negative, when no element of a trajectory is registered (`may_meet`).
    So `register` reads only lengths and last elements, a modulus at a time
    as walk_modulus gives them, and `may_meet` only a last element.
    """

    def __init__(self) -> None:
        self._checked: dict[int, bytearray] = {}
        self._classes = 0
        self._entries = 0
        self._top = 0  # largest modulus passed to register: a prune bound
        self._terminals = _BloomFilter()
        self._digest = hashlib.sha256()

    def __len__(self) -> int:
        return self._classes

    def entry_count(self) -> int:
        return self._entries

    def _holds(self, b: int, c: int) -> bool:
        bits = self._checked.get(b)
        # An even remainder is no class, except for the seed 2k.
        if bits is None or c & 1 != (b > 2):
            return False
        return bool(bits[c >> 4] >> (c >> 1 & 7) & 1)

    def lookup(self, form: AffineForm) -> tuple[tuple[PatternClass, int], ...]:
        a, d = form
        if a < 1:
            return ()
        q, o = a, 0
        while q % 3 == 0:
            q, o = q // 3, o + 1
        found = []
        stack = [(a, d, o, q << (o - 1) if o else a, 1)]
        while stack:
            a, d, o, least, index = stack.pop()
            if d <= -a or least > self._top:
                continue
            if d <= 0 and self._holds(a, -d):
                found.append((PatternClass(a, -d), index))
            stack.append((2 * a, 2 * d, o, 2 * least, index + 1))
            if o and a % 2 == 0 and d % 3 == 1 and (d - 1) // 3 % 2:
                stack.append((a // 3, (d - 1) // 3, o - 1,
                              least // 2 if o > 1 else least, index + 1))
        found.sort(key=lambda hit: (hit[0].modulus, -hit[0].remainder))
        return tuple(found)

    def may_meet(self, terminal: tuple[int, int]) -> bool:
        """False only if no element of a trajectory ending at terminal is
        registered."""
        return terminal in self._terminals

    def register(self, walk: ModulusWalk) -> None:
        """Register the classes of one modulus, all or none of them."""
        b, remainders = walk.modulus, walk.remainders
        held = self._checked.get(b)
        bits = bytearray((b + 15) // 16) if held is None else bytearray(held)
        for c in remainders:
            if c & 1 != (b > 2) or not 0 <= c < b or b % 2:
                raise ValueError(f"only the seed and odd remainders register, got "
                                 f"{PatternClass(b, c)}")
            if bits[c >> 4] >> (c >> 1 & 7) & 1:
                raise DuplicateRegistrationError(f"{PatternClass(b, c)} is already registered")
            bits[c >> 4] |= 1 << (c >> 1 & 7)
        self._checked[b] = bits
        self._classes += len(remainders)
        self._entries += sum(walk.lengths)
        self._top = max(self._top, b)
        self._terminals.update(walk.terminals)
        # update(x); update(y) hashes as update(x + y): one call per modulus.
        self._digest.update("".join([f"{b},{c};" for c in remainders]).encode())

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


def _moduli(max_modulus: int, filter_3smooth: bool, start_after: int = 2) -> Iterator[int]:
    """Candidate moduli in canonical order: ascending from 4, only those
    above start_after."""
    for modulus in range(4, max_modulus + 1, 2):
        if modulus > start_after and (not filter_3smooth or is_3smooth_even(modulus)):
            yield modulus


def enumerate_classes(max_modulus: int, filter_3smooth: bool = False) -> Iterator[PatternClass]:
    """Candidate classes up to max_modulus, one by one in canonical order."""
    if max_modulus < 4:
        raise ValueError(f"max_modulus must be >= 4, got {max_modulus}")
    for modulus in _moduli(max_modulus, filter_3smooth):
        # Remainders descending: smallest member values first.
        yield from (PatternClass(modulus, r) for r in range(modulus - 1, 0, -2))


def _certify(
    b: int,
    c: int,
    drop_index: int,
    terminal: tuple[int, int],
    registry: TrajectoryRegistry,
    join_targets_3smooth: bool,
    step_cap: int | None,
    numeric_step_cap: int,
) -> SuccessRecord | None:
    first_member = b - c  # the anchor at k=1
    first_member_ok: bool | None = None  # lazy numeric check of the k=1 member
    # A drop certificate is self-contained, so it is preferred even over an
    # earlier join; if the k=1 member cannot be settled there is no drop.
    if drop_index:
        first_member_ok = oracle.drops_below_self_or_reaches_one(first_member,
                                                                 numeric_step_cap)
        if first_member_ok:
            return SuccessRecord(PatternClass(b, c), CertKind.DROP, drop_index)
    if not registry.may_meet(terminal):
        return None

    def member_one_verified() -> bool:
        nonlocal first_member_ok
        if first_member_ok is None:
            first_member_ok = oracle.drops_below_self_or_reaches_one(
                first_member, numeric_step_cap
            )
        return first_member_ok

    cls = PatternClass(b, c)
    anchor = cls.anchor_form()
    for index, element in enumerate(pattern_trajectory(cls, step_cap).elements, start=1):
        for prior_cls, prior_index in registry.lookup(element):
            if _join_target_ok(prior_cls, anchor, first_member, join_targets_3smooth,
                               member_one_verified):
                return SuccessRecord(cls, CertKind.JOIN, index, prior_cls, prior_index)
    return None


def _join_target_ok(
    prior_cls: PatternClass,
    anchor: AffineForm,
    first_member: int,
    join_targets_3smooth: bool,
    member_one_verified: Callable[[], bool],
) -> bool:
    """Whether a registered class may serve as join target for the class
    with this anchor: its anchor is pointwise below from k=2, and at k=1 it
    is smaller, or equal with the k=1 member settled numerically."""
    if join_targets_3smooth and not is_3smooth_even(prior_cls.modulus):
        return False
    prior_anchor = prior_cls.anchor_form()
    if not strictly_below(prior_anchor, anchor, 2):
        return False
    prior_first = evaluate(prior_anchor, 1)
    return prior_first < first_member or (
        prior_first == first_member and member_one_verified()
    )


def _certificate_holds(
    record: SuccessRecord,
    registry: TrajectoryRegistry,
    config: "SearchConfig",
) -> bool:
    """Check a stored record against its class's trajectory and the registry
    frozen at its modulus, under the conditions `_certify` applies."""
    traj = pattern_trajectory(record.pattern, config.step_cap)
    if record.stop_index > len(traj.elements):
        return False
    anchor = traj.elements[0]
    element = traj.elements[record.stop_index - 1]
    first_member = evaluate(anchor, 1)
    member_one_verified = functools.partial(oracle.drops_below_self_or_reaches_one,
                                            first_member, config.numeric_step_cap)
    if record.kind is CertKind.DROP:
        return strictly_below(element, anchor, 2) and member_one_verified()
    assert record.joined_class is not None
    if (record.joined_class, record.join_index) not in registry.lookup(element):
        return False
    return _join_target_ok(record.joined_class, anchor, first_member,
                           config.join_targets_3smooth, member_one_verified)


def check_class(
    cls: PatternClass,
    registry: TrajectoryRegistry,
    join_targets_3smooth: bool = False,
    step_cap: int | None = None,
    numeric_step_cap: int = oracle.DEFAULT_STEP_CAP,
) -> SuccessRecord | None:
    """Certify one class against the trajectories registered so far.

    A drop, which the walk finds, comes first; joins are tried, in element
    order, only without one.  Returns None if the class does not certify at
    this modulus.  The registry must hold the trajectories of all classes
    from earlier moduli plus the even-number seed.
    """
    validate_pattern_class(cls)
    walk = walk_modulus(cls.modulus, [cls.remainder], step_cap)
    return _certify(*cls, walk.drops[0], walk.terminals[0], registry, join_targets_3smooth,
                    step_cap, numeric_step_cap)


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
        if self.numeric_step_cap < 1:
            raise ValueError(f"numeric_step_cap must be >= 1, got {self.numeric_step_cap}")
        if self.k_verify < 0:
            raise ValueError(f"k_verify must be >= 0, got {self.k_verify}")


class CertificateError(RuntimeError):
    """A freshly produced record failed its own brute-force verification."""

    def __init__(self, record: SuccessRecord, report: oracle.VerificationReport):
        super().__init__(f"certificate {record} failed verification: {report.detail}")
        self.record = record
        self.report = report


class ReplayError(ValueError):
    """A stored record's certificate does not hold in the replay."""


@dataclass
class BatchResult:
    """State handed to the after_batch hook once a modulus is finished."""

    modulus: int
    new_records: list[SuccessRecord]
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


def _seeded_state(ledger: CoverageLedger | None = None) -> ResumeState:
    """The state before the first modulus: the even-number seed alone."""
    registry = TrajectoryRegistry()
    registry.register(walk_modulus(SEED_CLASS.modulus, [SEED_CLASS.remainder]))
    if ledger is None:
        ledger = CoverageLedger()
    ledger.add_class(from_pattern(SEED_CLASS))
    return ResumeState([seed_record()], [(2, ledger.density())], registry, ledger, 0, 0)


def _sweep(
    config: SearchConfig,
    state: ResumeState,
    last_modulus: int,
    record_for: Callable[[int, int, int, tuple[int, int]], SuccessRecord | None],
) -> Iterator[tuple[int, list[SuccessRecord]]]:
    """Advance `state` modulus by modulus from its frontier to last_modulus,
    yielding each modulus with the records it added.

    `record_for(b, c, drop_index, terminal)` gives the record of class
    b*k - c, or None.  It sees every class of a modulus before the modulus is
    registered, so it sees the registry frozen at the modulus boundary.
    """
    for modulus in _moduli(last_modulus, config.filter_3smooth, state.frontier_modulus):
        open_residues = state.ledger.open_residues(modulus)
        if config.skip_covered:
            # Ascending open residues x are descending remainders b - x; they
            # are odd, because the seed covers the even numbers.
            remainders: Sequence[int] = [modulus - x for x in open_residues]
        else:
            remainders = range(modulus - 1, 0, -2)
        state.examined += modulus // 2
        state.skipped += modulus // 2 - len(remainders)
        walk = walk_modulus(modulus, remainders, config.step_cap)
        found = [record_for(modulus, c, drop, terminal)
                 for c, drop, terminal in zip(remainders, walk.drops, walk.terminals)]
        state.registry.register(walk)
        new_records = [record for record in found if record is not None]
        # A class closed at the modulus boundary would gain nothing, and the
        # classes of one modulus are disjoint, so adding one leaves the others
        # open or closed as they were: only records of open classes are added.
        is_open = set(open_residues)
        for record in new_records:
            covered = from_pattern(record.pattern)
            if covered.residue in is_open:
                state.ledger.add_class(covered)
        state.records.extend(new_records)
        state.checkpoints.append((modulus, state.ledger.density()))
        yield modulus, new_records


def run_search(
    config: SearchConfig,
    ledger: CoverageLedger | None = None,
    after_batch: Callable[[BatchResult], None] | None = None,
    resume: ResumeState | None = None,
) -> SearchSummary:
    """Drive the full sieve up to config.max_modulus.

    Every enumerated class is checked against the registry frozen at its
    modulus boundary, then registered; successes update the coverage
    ledger.  One density checkpoint is recorded per processed modulus.
    `after_batch` runs once per modulus, after the checkpoint, with the
    records the modulus added in canonical (remainder descending) order;
    it is where callers write results and persist state.  A fresh search
    first reports modulus 2 with the seed's record.  A search resumed from
    `resume` extends its registry and ledger but leaves its record list,
    trail and counts as they were.
    """
    started = time.perf_counter()

    def publish(modulus: int, new_records: list[SuccessRecord]) -> None:
        if after_batch is not None:
            after_batch(
                BatchResult(modulus, new_records, state.checkpoints, state.ledger,
                            state.registry, state.examined, state.skipped)
            )

    if resume is None:
        state = _seeded_state(ledger)
        publish(2, list(state.records))
    else:
        state = dataclasses.replace(
            resume, records=list(resume.records), checkpoints=list(resume.checkpoints)
        )
    certify = functools.partial(_certify, registry=state.registry,
                                join_targets_3smooth=config.join_targets_3smooth,
                                step_cap=config.step_cap, numeric_step_cap=config.numeric_step_cap)
    for modulus, new_records in _sweep(config, state, config.max_modulus, certify):
        for record in new_records if config.k_verify else ():
            report = oracle.verify_success_record(record, config.k_verify,
                                                  config.numeric_step_cap)
            if not report.ok:
                raise CertificateError(record, report)
        publish(modulus, new_records)

    return SearchSummary(
        records=state.records,
        checkpoints=state.checkpoints,
        final_density=state.ledger.density(),
        examined=state.examined,
        skipped=state.skipped,
        lcm_stored_moduli=state.ledger.lcm_of_moduli(),
        lcm_pattern_moduli=math.lcm(*{rec.pattern.modulus for rec in state.records}),
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
    and never runs the `k_verify` brute force.  Each record it takes must
    still hold against its class's trajectory and the registry frozen at
    its modulus, or ReplayError is raised.  Trajectories are a pure function
    of the class, so the registry, ledger, density trail and counts come out
    exactly as the search left them, skip-covered decisions included.  The
    returned records are the stored ones the replay reached, in canonical
    order; stored records it never reached are left out.
    """
    state = _seeded_state()
    stored = {record.pattern: record for record in records}

    def replayed(b: int, c: int, drop: int, terminal: tuple[int, int]) -> SuccessRecord | None:
        record = stored.get((b, c))  # a PatternClass equals its tuple
        if record is not None and not _certificate_holds(record, state.registry, config):
            b, c = record.pattern
            raise ReplayError(f"the stored certificate of {b}k-{c} does not hold")
        return record

    for _ in _sweep(config, state, frontier_modulus, replayed):
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
