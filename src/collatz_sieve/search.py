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
the last elements of their trajectories, one progression per residue group
that holds a registered class, the whole group's even where only part of it
is registered; a lookup walks the symbolic step backwards (see
TrajectoryRegistry).  So a class needs only its trajectory's length,
last element and first drop index.  `walk_modulus` computes them for a
whole modulus b = 2^t*m on ints, with one walk per residue mod 2^t: a*k + d
with a even has the parity of d for every k, and while a stays even that
parity is the same for all classes of one residue.  Forms are built only
for a join scan.

`_certify` alone decides the certificates, a modulus per pass, and `_sweep`
calls it on every modulus.  The replay behind a resume or a report
(`rebuild_state`) is that same sweep, so it derives every record itself;
its caller compares the stored run against it.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import oracle
from .affine import AffineForm, TrajectoryCapError, build_trajectory, default_step_cap
from .affine import strictly_below, v2
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


def pattern_trajectory(cls: PatternClass) -> TrajectoryPattern:
    return TrajectoryPattern(cls, build_trajectory(cls.anchor_form()))


@dataclass
class ModulusWalk:
    """The first drop index (0 if none) of each class b*k - c of one modulus
    b = 2^t*m, in the remainders' order, and per group r = c mod 2^t the
    trajectory length, A = m*P, P and the top end D = (S - P*r) >> t: the
    last element of r + 2^t*u is (A, D - P*u)."""

    modulus: int
    remainders: Sequence[int]
    drops: list[int]
    groups: dict[int, tuple[int, int, int, int]]  # r: length, A, P, D


def walk_modulus(modulus: int, remainders: Sequence[int]) -> ModulusWalk:
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
    first class, in the given order, whose trajectory exceeds default_step_cap.
    """
    t = v2(modulus)
    step_cap = default_step_cap(modulus)
    groups: dict[int, tuple[int, int, int, int]] = {}
    thresholds: dict[int, tuple[list[int], list[int]]] = {}  # r: drop bounds, indices
    drops = []
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
            groups[r] = length, a, power, (total - power * r) >> t
            thresholds[r] = bounds, indices + [0]
        bounds, indices = thresholds[r]
        drops.append(indices[bisect_right(bounds, c)])
    return ModulusWalk(modulus, remainders, drops, groups)


class DuplicateRegistrationError(ValueError):
    """The same class was registered twice."""


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
    function, so trajectories that share an element share their last one.
    The modulus b = 2^t*m has per group r the ends (A, D - P*u) of
    r + 2^t*u, u < m: a run of positions D//P - u in lane (A, P, D mod P).
    Members are positive and S < 2^t*P/4, so the ends lie in (-A, P/4), a
    run's top D//P is -1 or 0, and a lane is one bit per top.  A group
    enters its whole run when any of its classes is registered: exact for
    moduli registered whole, and no false negative for a group registered in
    part, whose classes `lookup` still tells apart.
    """

    def __init__(self) -> None:
        self._checked: dict[int, bytearray] = {}
        self._classes = 0
        self._entries = 0
        self._top = 0  # largest modulus passed to register: a prune bound
        self._lanes: dict[int, dict[int, dict[int, int]]] = {}  # A: P: D mod P: bit top+1
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

    def _hits(self, coeff: int, power: int, top: int) -> Iterator[range]:
        """Runs of the u < coeff // power whose (coeff, top - power*u) a lane holds."""
        size = coeff // power
        for lane_power, lane in self._lanes.get(coeff, {}).items():
            m = coeff // lane_power
            # u = u0 + step*i stays in one lane, at position q - stride*i.
            step, stride = max(lane_power // power, 1), max(power // lane_power, 1)
            # Fewer keys than starts: lane_power = power*step, so each key has one u0.
            starts = range(step) if step <= len(lane) else [
                (top - key) // power % step for key in lane if (top - key) % power == 0]
            for u0 in starts:
                offset = top - power * u0
                tops = lane.get(offset % lane_power, 0)
                if tops:  # the runs (top - m, top] held cover lo..hi
                    q, lo, hi = offset // lane_power, 1 - m - (tops & 1), (tops >> 1) - 1
                    first = max(-((hi - q) // stride), 0)
                    last = min((q - lo) // stride, (size - 1 - u0) // step)
                    yield range(u0 + step * first, u0 + step * last + 1, step)

    def may_meet(self, terminal: tuple[int, int]) -> bool:
        """True iff terminal ends the trajectory of a class in a residue group
        that holds a registered class: exact for moduli registered whole, and
        a group registered in part answers as its whole run.  So it is False
        only if no element of a trajectory ending at terminal is registered."""
        coeff, offset = terminal
        return any(self._hits(coeff, coeff, offset))

    def meeting(self, walk: ModulusWalk) -> set[int]:
        """Holds, of walk's remainders, exactly those that may_meet (by group)."""
        t = v2(walk.modulus)
        found = set()
        for r, (_, coeff, power, top) in walk.groups.items():
            for run in self._hits(coeff, power, top):
                found.update(r + (u << t) for u in run)
        return found

    def register(self, walk: ModulusWalk) -> None:
        """Register the classes of one modulus, all or none of them."""
        b, remainders, t = walk.modulus, walk.remainders, v2(walk.modulus)
        held = self._checked.get(b)
        every = range(b - 1, 0, -2) if b > 2 else range(1)  # the seed is all of modulus 2
        if held is None and not b % 2 and remainders == every:  # a whole list: the loop, same end
            bits = bytearray(((1 << (b >> 1)) - 1).to_bytes((b + 15) // 16, "little"))
            entries = (b >> t) * sum(length for length, *_ in walk.groups.values())
        else:
            bits = bytearray((b + 15) // 16) if held is None else bytearray(held)
            entries = 0
            for c in remainders:
                if c & 1 != (b > 2) or not 0 <= c < b or b % 2:
                    raise ValueError(f"only the seed and odd remainders register, got "
                                     f"{PatternClass(b, c)}")
                if bits[c >> 4] >> (c >> 1 & 7) & 1:
                    raise DuplicateRegistrationError(f"{PatternClass(b, c)} is already registered")
                bits[c >> 4] |= 1 << (c >> 1 & 7)
                entries += walk.groups[c & (1 << t) - 1][0]
        for _, coeff, power, top in walk.groups.values():
            lane = self._lanes.setdefault(coeff, {}).setdefault(power, {})
            lane[top % power] = lane.get(top % power, 0) | 1 << (top // power + 1)
        self._checked[b] = bits
        self._classes += len(remainders)
        self._entries += entries
        self._top = max(self._top, b)
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
    above start_after; with filter_3smooth the 2^t*3^s, generated."""
    exponents = range(max_modulus.bit_length())
    candidates = (sorted((2 << t) * 3**s for t in exponents for s in exponents) if filter_3smooth
                  else range(4, max_modulus + 1, 2))
    for modulus in candidates:
        if max(start_after, 3) < modulus <= max_modulus:
            yield modulus


def _certify(
    walk: ModulusWalk,
    registry: TrajectoryRegistry,
    join_targets_3smooth: bool,
) -> list[SuccessRecord]:
    """The records the search writes for walk's classes, in order, against
    the registry frozen at the modulus.  A drop, which needs the k=1 member
    settled numerically (within the oracle's default step cap), comes first.
    Then, if the registry may meet the last element, joins in element order
    into the first registered class (of a 3-smooth modulus, with
    join_targets_3smooth) whose anchor is pointwise below from k=2 and, at
    k=1, smaller, or equal with the k=1 member settled.
    """
    b, meeting, records = walk.modulus, registry.meeting(walk), []
    for c, drop_index in zip(walk.remainders, walk.drops):
        # The numeric check of the k=1 member b - c: for a drop now, for a join lazily.
        first_member_ok = oracle.drops_below_self_or_reaches_one(b - c) if drop_index else None
        if first_member_ok:
            records.append(SuccessRecord(PatternClass(b, c), CertKind.DROP, drop_index))
        elif c in meeting and (join := _first_join(PatternClass(b, c), first_member_ok,
                                                   registry, join_targets_3smooth)):
            records.append(join)
    return records


def _first_join(cls: PatternClass, first_member_ok: bool | None, registry: TrajectoryRegistry,
                join_targets_3smooth: bool) -> SuccessRecord | None:
    first_member = cls.modulus - cls.remainder  # the anchor at k=1
    anchor = cls.anchor_form()
    for index, element in enumerate(pattern_trajectory(cls).elements, start=1):
        for prior_cls, prior_index in registry.lookup(element):
            if (join_targets_3smooth and not is_3smooth_even(prior_cls.modulus)
                    or not strictly_below(prior_cls.anchor_form(), anchor, 2)):
                continue
            prior_first = prior_cls.modulus - prior_cls.remainder
            if prior_first == first_member and first_member_ok is None:
                first_member_ok = oracle.drops_below_self_or_reaches_one(first_member)
            if prior_first < first_member or (prior_first == first_member and first_member_ok):
                return SuccessRecord(cls, CertKind.JOIN, index, prior_cls, prior_index)
    return None


def check_class(
    cls: PatternClass,
    registry: TrajectoryRegistry,
    join_targets_3smooth: bool = False,
) -> SuccessRecord | None:
    """Certify one class against the trajectories registered so far, by the
    search's rule (`_certify`); None if it does not certify at this modulus.
    The registry must hold the trajectories of all classes from earlier
    moduli plus the even-number seed.
    """
    validate_pattern_class(cls)
    walk = walk_modulus(cls.modulus, [cls.remainder])
    return next(iter(_certify(walk, registry, join_targets_3smooth)), None)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for a search run; everything that affects results lives here."""

    max_modulus: int
    filter_3smooth: bool = False
    skip_covered: bool = False
    join_targets_3smooth: bool = False
    k_verify: int = 0

    def __post_init__(self) -> None:
        if self.max_modulus < 2 or self.max_modulus % 2:
            raise ValueError(f"max_modulus must be even and >= 2, got {self.max_modulus}")
        if self.k_verify < 0:
            raise ValueError(f"k_verify must be >= 0, got {self.k_verify}")


class CertificateError(RuntimeError):
    """A freshly produced record failed its own brute-force verification."""

    def __init__(self, record: SuccessRecord, report: oracle.VerificationReport):
        super().__init__(f"certificate {record} failed verification: {report.detail}")
        self.record = record
        self.report = report


@dataclass
class SearchState:
    """A search at a modulus boundary.

    `run_search` and `rebuild_state` return it, and `after_batch` (in a
    replay, `check`) sees it after each modulus.  The density trail holds
    one point per processed modulus, so its last point names the frontier;
    new_records are the records the frontier modulus added, in canonical
    (remainder descending) order.
    """

    records: list[SuccessRecord]
    checkpoints: list[tuple[int, Fraction]]
    registry: TrajectoryRegistry
    ledger: CoverageLedger
    examined: int
    skipped: int
    new_records: list[SuccessRecord]
    elapsed_seconds: float = 0.0

    @property
    def frontier_modulus(self) -> int:
        return self.checkpoints[-1][0]

    @property
    def final_density(self) -> Fraction:
        return self.ledger.density()

    @property
    def success_count(self) -> int:
        return len(self.records)

    @property
    def lcm_stored_moduli(self) -> int:
        return self.ledger.lcm_of_moduli()

    @property
    def lcm_pattern_moduli(self) -> int:
        return math.lcm(*{record.pattern.modulus for record in self.records})


def seed_record() -> SuccessRecord:
    # 2k halves to k, which is pointwise below the anchor: a drop at element 2.
    return SuccessRecord(SEED_CLASS, CertKind.DROP, 2)


def _seeded_state() -> SearchState:
    """The state before the first modulus: the even-number seed alone."""
    registry = TrajectoryRegistry()
    registry.register(walk_modulus(SEED_CLASS.modulus, [SEED_CLASS.remainder]))
    ledger = CoverageLedger()
    ledger.add_class(from_pattern(SEED_CLASS))
    return SearchState([seed_record()], [(2, ledger.density())], registry, ledger, 0, 0,
                       [seed_record()])


def _sweep(config: SearchConfig, state: SearchState,
           after_batch: Callable[[SearchState], None]) -> SearchState:
    """Advance `state` modulus by modulus from its frontier to
    config.max_modulus, calling after_batch(state) after each modulus.

    Every checked class is certified by `_certify` before its modulus is
    registered, so against the registry frozen at the modulus boundary.
    With config.k_verify, the modulus's new records are brute-forced before
    after_batch sees them.
    """
    for modulus in _moduli(config.max_modulus, config.filter_3smooth, state.frontier_modulus):
        open_residues = state.ledger.open_residues(modulus)
        if config.skip_covered:
            # Ascending open residues x are descending remainders b - x; they
            # are odd, because the seed covers the even numbers.
            remainders: Sequence[int] = [modulus - x for x in open_residues]
        else:
            remainders = range(modulus - 1, 0, -2)
        state.examined += modulus // 2
        state.skipped += modulus // 2 - len(remainders)
        walk = walk_modulus(modulus, remainders)
        new_records = _certify(walk, state.registry, config.join_targets_3smooth)
        state.registry.register(walk)
        # A class closed at the modulus boundary would gain nothing, and the
        # classes of one modulus are disjoint, so only records of open classes
        # (b*k - c is b - c mod b) are added: without skip_covered most are closed.
        is_open = set(open_residues)
        state.ledger.add_classes(from_pattern(record.pattern) for record in new_records
                                 if modulus - record.pattern.remainder in is_open)
        state.records.extend(new_records)
        state.new_records = new_records
        state.checkpoints.append((modulus, state.ledger.density()))
        for record in new_records if config.k_verify else ():
            report = oracle.verify_success_record(record, config.k_verify)
            if not report.ok:
                raise CertificateError(record, report)
        after_batch(state)
    return state


def run_search(
    config: SearchConfig,
    after_batch: Callable[[SearchState], None] = lambda state: None,
    resume: SearchState | None = None,
) -> SearchState:
    """Drive the full sieve up to config.max_modulus; returns the run's state.

    Every enumerated class is checked against the registry frozen at its
    modulus boundary, then registered; successes update the coverage
    ledger.  One density checkpoint is recorded per processed modulus.
    `after_batch` runs once per modulus, after the checkpoint, with the
    state, whose new_records are what the modulus added; it is where callers
    persist the run.  A fresh search first reports modulus 2 with the seed's
    record.  A search resumed from `resume` extends its registry and ledger
    but leaves its record list, trail and counts as they were.
    """
    started = time.perf_counter()
    if resume is None:
        state = _seeded_state()
        after_batch(state)
    else:
        state = dataclasses.replace(
            resume, records=list(resume.records), checkpoints=list(resume.checkpoints)
        )
    _sweep(config, state, after_batch)
    state.elapsed_seconds = time.perf_counter() - started
    return state


def rebuild_state(config: SearchConfig, check: Callable[[SearchState], None]) -> SearchState:
    """Replay a search up to config.max_modulus: the sweep of `run_search`,
    without the `k_verify` brute force.

    Every record, the density trail, the counts and the registry are derived
    as the search derives them; nothing is taken from the run replayed.
    `check(state)` sees the state where the search would call after_batch,
    and a caller that compares a stored run with the replay raises there to
    stop it at the first difference.
    """
    state = _seeded_state()
    check(state)
    return _sweep(dataclasses.replace(config, k_verify=0), state, check)


def unfiltered_registry(last_modulus: int) -> TrajectoryRegistry:
    """The registry of an unfiltered search without skip-covered through
    last_modulus.  That search registers every class, certified or not, so
    no certificate is derived here."""
    registry = _seeded_state().registry
    for modulus in _moduli(last_modulus, False):
        registry.register(walk_modulus(modulus, range(modulus - 1, 0, -2)))
    return registry


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
