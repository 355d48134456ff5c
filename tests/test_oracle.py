import hashlib

import pytest

from collatz_sieve import (
    CertKind,
    PatternClass,
    StopRecord,
    SuccessRecord,
    collatz_step,
    iter_modified_stops,
    longest_modified_stop,
    modified_stopping_time,
    stopping_time,
    trajectory,
    verify_success_record,
    visited_values_through,
)
from collatz_sieve.oracle import NoPriorSequenceError, StepCapExceededError, VisitedLimitError


def test_collatz_step():
    assert collatz_step(27) == 82
    assert collatz_step(46) == 23
    assert collatz_step(1) == 4


def test_stopping_time_small():
    assert stopping_time(4) == 2
    # 3, 10, 5, 16, 8, 4, 2: the first element below 3 is 2, at element 7
    assert stopping_time(3) == 7


def test_stopping_time_of_27():
    # element 96 is 46, element 97 is 23 < 27, and nothing smaller earlier
    assert stopping_time(27) == 97
    values = trajectory(27).values
    assert values[95] == 46
    assert values[96] == 23
    assert min(values[:95]) >= 27


def test_modified_stop_27():
    visited = visited_values_through(26)
    rec = modified_stopping_time(27, visited)
    assert rec == StopRecord(27, 96, 46, 15, 58)


def test_modified_stop_27_step_tallies():
    values = trajectory(27).values
    first = values[:96]
    halvings = sum(1 for v in first[:-1] if v % 2 == 0)
    odd_steps = 95 - halvings
    assert (halvings, odd_steps) == (58, 37)
    tail = values[95:]
    tail_halvings = sum(1 for v in tail[:-1] if v % 2 == 0)
    assert (tail_halvings, len(tail) - 1 - tail_halvings) == (12, 4)
    total_halvings = sum(1 for v in values[:-1] if v % 2 == 0)
    assert (total_halvings, len(values) - 1 - total_halvings) == (70, 41)


def test_modified_stop_4_joins_immediately():
    # 4 is the 6th element of 3's trajectory (3,10,5,16,8,4,...), so with
    # scanning starting at the anchor itself the stop lands at element 1.
    visited = visited_values_through(3)
    assert 4 in visited and visited[4] == 3
    rec = modified_stopping_time(4, visited)
    assert rec == StopRecord(4, 1, 4, 3, 0)


def test_modified_stop_2_has_no_prior():
    with pytest.raises(NoPriorSequenceError):
        modified_stopping_time(2, {})


def test_modified_stop_bounded_by_stopping_time():
    visited = {}
    caps = {}
    for rec in iter_modified_stops(500):
        caps[rec.n] = rec.stop_index
    for n in range(3, 501):
        st_n = stopping_time(n)
        assert st_n is not None
        assert caps[n] <= st_n


def test_longest_under_10000():
    n, rec = longest_modified_stop(10_000)
    assert (n, rec.stop_index) == (703, 133)
    # independent check of the record itself
    assert trajectory(703).values[rec.stop_index - 1] == rec.join_value
    assert rec.join_value in trajectory(rec.joined_start).values
    assert rec.joined_start < 703


def test_iter_modified_stops_yields_witnesses_in_own_trajectories():
    for rec in iter_modified_stops(300):
        assert rec.joined_start < rec.n
        assert rec.join_value in trajectory(rec.joined_start).values
        assert trajectory(rec.n).values[rec.stop_index - 1] == rec.join_value


def test_the_scan_matches_the_query():
    # The scan records n's values in the walk that finds its join; the query
    # on the map of 2..n-1 must give the same record and leave the map as it was.
    records = {rec.n: rec for rec in iter_modified_stops(400)}
    assert sorted(records) == list(range(3, 401))
    for n in range(3, 401):
        visited = visited_values_through(n - 1)
        kept = dict(visited)
        assert modified_stopping_time(n, visited) == records[n], n
        assert visited == kept, n


def test_visited_values_are_the_first_witnesses():
    expected = {}
    for n in range(2, 301):
        for v in trajectory(n).values:
            expected.setdefault(v, n)
    assert visited_values_through(300) == expected


def test_the_scan_to_10_5_is_pinned():
    # SHA-256 of every record's repr, one a line, as the scan that walked each
    # trajectory twice (a query, then a walk recording it) gave them.
    text = "\n".join(map(repr, iter_modified_stops(10**5)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5cb24a539fe60aba4bcff8bae781f97c4f2df82a5434419f398145e6e34cb915")


def test_a_walk_that_meets_its_own_value_does_not_join():
    # Only a cycle brings a walk back to a value it added; a map that names 5
    # as the witness of 16, a later value of 5's trajectory, stands in for one.
    with pytest.raises(StepCapExceededError, match="trajectory of 5 cycles through 16"):
        modified_stopping_time(5, {16: 5})


def test_visited_limit_guard():
    with pytest.raises(VisitedLimitError):
        visited_values_through(1000, max_visited=50)


def test_the_scan_trips_the_guard_before_the_record():
    seen = []
    with pytest.raises(VisitedLimitError) as caught:
        for rec in iter_modified_stops(1000, max_visited=50):
            seen.append(rec.n)
    assert f"at n={seen[-1] + 1};" in str(caught.value)


def test_verify_drop_record():
    rec = SuccessRecord(PatternClass(4, 3), CertKind.DROP, 4)
    assert verify_success_record(rec, 1000).ok


def test_verify_join_record():
    rec = SuccessRecord(PatternClass(18, 5), CertKind.JOIN, 1, PatternClass(16, 5), 6)
    assert verify_success_record(rec, 1000).ok


def test_verify_corrupted_record():
    # 4k-1 never gets below itself by step 3 (3 -> 10 -> 5 at k=1)
    rec = SuccessRecord(PatternClass(4, 1), CertKind.DROP, 3)
    report = verify_success_record(rec, 1000)
    assert not report.ok
    assert report.first_violation_k == 1


def test_verify_rejects_out_of_range_join_index():
    rec = SuccessRecord(PatternClass(18, 5), CertKind.JOIN, 1, PatternClass(16, 5), 99)
    report = verify_success_record(rec, 10)
    assert not report.ok
