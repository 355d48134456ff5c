"""Concrete integer trajectories: the Collatz map, stopping times, and
brute-force validation of symbolic certificates.

Everything here works on actual integers, never on affine patterns, so it
serves as the independent side of every certificate check.  Indexing is
1-based with the starting number as element 1 throughout, matching the
convention used by the pattern search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Mapping

from .affine import AffineForm, build_trajectory, evaluate

if TYPE_CHECKING:  # only for annotations; no runtime dependency on search
    from .search import SuccessRecord

# Not a setting: every function here reads it when called.
DEFAULT_STEP_CAP = 10**6
DEFAULT_VISITED_LIMIT = 20_000_000


class StepCapExceededError(RuntimeError):
    """A trajectory ran past the step cap without resolving."""


class VisitedLimitError(RuntimeError):
    """The visited-value set outgrew its configured memory bound."""


class NoPriorSequenceError(ValueError):
    """No previous trajectory exists to join (only happens for n = 2)."""


def collatz_step(n: int) -> int:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n // 2 if n % 2 == 0 else 3 * n + 1


@dataclass(frozen=True)
class Trajectory:
    """A concrete trajectory, element 1 = start, truncated at the first 1."""

    start: int
    values: tuple[int, ...]


def trajectory(start: int) -> Trajectory:
    step_cap = DEFAULT_STEP_CAP
    values = [start]
    v = start
    while v != 1:
        if len(values) >= step_cap:
            raise StepCapExceededError(
                f"trajectory of {start} exceeded {step_cap} steps without reaching 1"
            )
        v = collatz_step(v)
        values.append(v)
    return Trajectory(start, tuple(values))


def stopping_time(n: int) -> int | None:
    """Least element index i >= 2 with values[i] < n; None if the cap hits first."""
    if n < 2:
        raise ValueError(f"stopping time needs n >= 2, got {n}")
    step_cap = DEFAULT_STEP_CAP
    v = n
    i = 1
    while i < step_cap:
        v = v // 2 if v % 2 == 0 else 3 * v + 1
        i += 1
        if v < n:
            return i
    return None


def drops_below_self_or_reaches_one(n: int) -> bool:
    """Numeric check used on single class members: trajectory falls below n or hits 1."""
    if n == 1:
        return True
    return stopping_time(n) is not None


@dataclass(frozen=True)
class StopRecord:
    """Where a concrete trajectory first touches a value seen in any
    smaller number's trajectory."""

    n: int
    stop_index: int
    join_value: int
    joined_start: int
    divisions_by_2: int


def _join(n: int, visited: dict[int, int], max_visited: float) -> StopRecord | None:
    # Walk n's trajectory up to its first value in `visited`, adding each
    # value before it with witness n.  Everything after a known value is
    # known too, since the map is a function.  None: 1 came first, which
    # only n = 2 does, on an empty map.
    step_cap = DEFAULT_STEP_CAP
    v, i, halvings = n, 1, 0
    while v not in visited:
        if len(visited) >= max_visited:
            raise VisitedLimitError(
                f"visited-value set hit the {max_visited}-entry bound at n={n}; "
                "raise max_visited to continue"
            )
        visited[v] = n
        if v == 1:
            return None
        if i >= step_cap:
            raise StepCapExceededError(
                f"trajectory of {n} exceeded {step_cap} steps without joining"
            )
        if v % 2 == 0:
            v //= 2
            halvings += 1
        else:
            v = 3 * v + 1
        i += 1
    if visited[v] == n:  # a value this walk added came back: a cycle
        raise StepCapExceededError(f"trajectory of {n} cycles through {v} without joining")
    return StopRecord(n, i, v, visited[v], halvings)


def modified_stopping_time(n: int, visited: Mapping[int, int]) -> StopRecord:
    """Scan n's trajectory (from element 1: n itself may already be known)
    for the first value present in `visited`, which is left unchanged.

    `visited` maps every value occurring in the trajectories of 2..n-1 to
    the smallest starting number whose trajectory contains it; build it
    with visited_values_through().
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    rec = _join(n, dict(visited), math.inf)
    if rec is None:
        raise NoPriorSequenceError(f"trajectory of {n} reached 1 without joining")
    return rec


def iter_modified_stops(
    n_max: int, max_visited: int = DEFAULT_VISITED_LIMIT
) -> Iterable[StopRecord]:
    """Yield the StopRecord of every n = 3..n_max in ascending order.

    n = 2 has no previous trajectory to join; its values seed the visited
    set and no record is produced for it.
    """
    visited: dict[int, int] = {}
    for n in range(2, n_max + 1):
        rec = _join(n, visited, max_visited)
        if rec is not None:
            yield rec


def visited_values_through(
    n_max: int, max_visited: int = DEFAULT_VISITED_LIMIT
) -> dict[int, int]:
    """Map of every value in the trajectories of 2..n_max to its smallest witness."""
    visited: dict[int, int] = {}
    for n in range(2, n_max + 1):
        _join(n, visited, max_visited)
    return visited


def longest_modified_stop(
    range_max: int, max_visited: int = DEFAULT_VISITED_LIMIT
) -> tuple[int, StopRecord]:
    """Argmax of the modified stopping time over 2..range_max-1 (ties: smallest n)."""
    if range_max < 4:
        raise ValueError(f"range_max must be >= 4, got {range_max}")
    best = max(iter_modified_stops(range_max - 1, max_visited), key=attrgetter("stop_index"))
    return best.n, best


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of brute-force checking a certificate member by member."""

    k_max: int
    ok: bool
    first_violation_k: int | None = None
    detail: str = ""


def _advance(n: int, steps: int) -> int:
    v = n
    for _ in range(steps):
        v = v // 2 if v % 2 == 0 else 3 * v + 1
    return v


def verify_success_record(rec: "SuccessRecord", k_max: int) -> VerificationReport:
    """Check a certificate against concrete arithmetic for k = 1..k_max.

    For each member n = b*k - c the trajectory is walked stop_index - 1
    steps.  A drop certificate must land strictly below n (n = 1 passes
    outright).  A join certificate must land exactly on the joined
    pattern's element at the same k, with the joined anchor pointwise
    smaller; equality of anchors is allowed only at k = 1, where the
    member is re-checked numerically instead.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    b, c = rec.pattern.modulus, rec.pattern.remainder
    steps = rec.stop_index - 1

    joined_element: AffineForm | None = None
    joined_anchor: AffineForm | None = None
    if rec.joined_class is not None:
        joined_anchor = AffineForm(rec.joined_class.modulus, -rec.joined_class.remainder)
        joined_elements = build_trajectory(joined_anchor)
        if rec.join_index is None or not 1 <= rec.join_index <= len(joined_elements):
            return VerificationReport(
                k_max, False, 1,
                f"join index {rec.join_index} outside the joined trajectory "
                f"(length {len(joined_elements)})",
            )
        joined_element = joined_elements[rec.join_index - 1]

    for k in range(1, k_max + 1):
        n = b * k - c
        if n < 1:
            return VerificationReport(k_max, False, k, f"member {n} below 1 at k={k}")
        landed = _advance(n, steps)
        if joined_element is None:
            if landed < n or n == 1:
                continue
            return VerificationReport(
                k_max, False, k,
                f"drop failed at k={k}: walked {steps} steps from {n} to {landed}",
            )
        expected = evaluate(joined_element, k)
        if landed != expected:
            return VerificationReport(
                k_max, False, k,
                f"join mismatch at k={k}: landed on {landed}, joined pattern gives {expected}",
            )
        assert joined_anchor is not None
        anchor_value = evaluate(joined_anchor, k)
        if anchor_value < n:
            continue
        if k == 1 and anchor_value == n and drops_below_self_or_reaches_one(n):
            continue
        return VerificationReport(
            k_max, False, k,
            f"joined anchor not smaller at k={k}: {anchor_value} vs member {n}",
        )
    return VerificationReport(k_max, True)
