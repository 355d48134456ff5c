from fractions import Fraction

import pytest

from collatz_sieve import (
    AffineForm,
    CertKind,
    PatternClass,
    SearchConfig,
    SuccessRecord,
    TrajectoryRegistry,
    analyze_moduli,
    check_class,
    enumerate_classes,
    is_3smooth_even,
    iter_modified_stops,
    pattern_trajectory,
    rebuild_state,
    run_search,
    verify_success_record,
)
from collatz_sieve.search import DuplicateRegistrationError, seed_trajectory


def registry_through(max_modulus, filter_3smooth=False):
    # Everything strictly below the next batch: seed plus all classes with
    # modulus <= max_modulus, registered in canonical order.
    registry = TrajectoryRegistry()
    registry.register(seed_trajectory())
    if max_modulus >= 4:
        for cls in enumerate_classes(max_modulus, filter_3smooth):
            registry.register(pattern_trajectory(cls))
    return registry


def test_enumerate_classes_unfiltered():
    got = list(enumerate_classes(6))
    assert [tuple(c) for c in got] == [(4, 3), (4, 1), (6, 5), (6, 3), (6, 1)]


def test_enumerate_classes_smallest():
    assert [tuple(c) for c in enumerate_classes(4, True)] == [(4, 3), (4, 1)]


def test_enumerate_classes_filtered_moduli():
    moduli = sorted({c.modulus for c in enumerate_classes(32, True)})
    # 18 = 2 * 3^2 belongs here; without it the known join of 18k-5 into
    # 16k-5 could never be found in filtered runs
    assert moduli == [4, 6, 8, 12, 16, 18, 24, 32]


def test_is_3smooth_even():
    assert is_3smooth_even(2) and is_3smooth_even(18) and is_3smooth_even(1296)
    assert not is_3smooth_even(1) and not is_3smooth_even(3)
    assert not is_3smooth_even(20) and not is_3smooth_even(10)


def test_check_class_drop_mod4():
    rec = check_class(PatternClass(4, 3), registry_through(2))
    assert rec == SuccessRecord(PatternClass(4, 3), CertKind.DROP, 4)


def test_check_class_join_mod6():
    rec = check_class(PatternClass(6, 1), registry_through(4))
    assert rec == SuccessRecord(
        PatternClass(6, 1), CertKind.JOIN, 1, PatternClass(4, 1), 3
    )


def test_check_class_failure_mod6():
    assert check_class(PatternClass(6, 5), registry_through(4)) is None


def test_check_class_16k13_drops_at_7():
    rec = check_class(PatternClass(16, 13), registry_through(14))
    assert rec == SuccessRecord(PatternClass(16, 13), CertKind.DROP, 7)


def test_check_class_18k5_joins_16k5():
    rec = check_class(PatternClass(18, 5), registry_through(16))
    assert rec == SuccessRecord(
        PatternClass(18, 5), CertKind.JOIN, 1, PatternClass(16, 5), 6
    )


def test_registry_examples():
    registry = TrajectoryRegistry()
    registry.register(pattern_trajectory(PatternClass(4, 1)))
    assert registry.lookup(AffineForm(6, -1)) == ((PatternClass(4, 1), 3),)
    assert registry.lookup(AffineForm(5, 5)) == ()
    registry.register(pattern_trajectory(PatternClass(96, 25)))
    assert registry.lookup(AffineForm(486, -122)) == ((PatternClass(96, 25), 9),)


def test_registry_lookup_keeps_registration_order():
    registry = TrajectoryRegistry()
    registry.register(pattern_trajectory(PatternClass(4, 1)))
    registry.register(pattern_trajectory(PatternClass(6, 1)))
    assert registry.lookup(AffineForm(6, -1)) == (
        (PatternClass(4, 1), 3), (PatternClass(6, 1), 1),
    )


def test_join_target_restriction():
    # 30k-25 is element 3 of 20k-17's trajectory; with join targets limited
    # to 2^t*3^s moduli that route disappears and the class fails
    rec = check_class(PatternClass(30, 25), registry_through(28))
    assert rec == SuccessRecord(
        PatternClass(30, 25), CertKind.JOIN, 1, PatternClass(20, 17), 3
    )
    assert check_class(
        PatternClass(30, 25), registry_through(28), join_targets_3smooth=True
    ) is None


def test_registry_rejects_duplicates():
    registry = TrajectoryRegistry()
    registry.register(pattern_trajectory(PatternClass(4, 1)))
    with pytest.raises(DuplicateRegistrationError):
        registry.register(pattern_trajectory(PatternClass(4, 1)))


def test_run_search_to_6():
    summary = run_search(SearchConfig(max_modulus=6))
    assert [
        (r.pattern, r.kind, r.stop_index, r.joined_class, r.join_index)
        for r in summary.records
    ] == [
        (PatternClass(2, 0), CertKind.DROP, 2, None, None),
        (PatternClass(4, 3), CertKind.DROP, 4, None, None),
        (PatternClass(6, 1), CertKind.JOIN, 1, PatternClass(4, 1), 3),
    ]
    assert summary.checkpoints == [
        (2, Fraction(1, 2)), (4, Fraction(3, 4)), (6, Fraction(10, 12)),
    ]
    assert summary.final_density == Fraction(10, 12)


def test_run_search_seed_only():
    summary = run_search(SearchConfig(max_modulus=2))
    assert summary.final_density == Fraction(1, 2)
    assert len(summary.records) == 1


def test_run_search_density_checkpoints_monotone():
    summary = run_search(SearchConfig(max_modulus=96))
    densities = [d for _, d in summary.checkpoints]
    assert all(a <= b for a, b in zip(densities, densities[1:]))


def test_run_search_skip_covered_same_density():
    plain = run_search(SearchConfig(max_modulus=128))
    skipped = run_search(SearchConfig(max_modulus=128, skip_covered=True))
    assert plain.checkpoints == skipped.checkpoints
    assert skipped.skipped > 0
    # skipping never invents records, it only drops covered ones
    assert {r.pattern for r in skipped.records} <= {r.pattern for r in plain.records}


def test_run_search_k_verify_smoke():
    summary = run_search(SearchConfig(max_modulus=24, k_verify=50))
    assert summary.success_count > 0


def test_registry_completeness_after_run():
    registry = registry_through(48)
    for cls in enumerate_classes(48):
        for index, form in enumerate(pattern_trajectory(cls).elements, start=1):
            assert (cls, index) in registry.lookup(form)


def test_rebuild_state_replays_exactly():
    config = SearchConfig(max_modulus=96, skip_covered=True)
    trail = []
    summary = run_search(config, after_batch=lambda b: trail.append(
        (b.modulus, b.registry.digest(), b.ledger.density())
    ))
    state = rebuild_state(config, 96, summary.records)
    registry, ledger = state.registry, state.ledger
    assert registry.digest() == trail[-1][1]
    assert ledger.density() == summary.final_density


def test_records_verify_to_1000():
    summary = run_search(SearchConfig(max_modulus=64))
    for rec in summary.records:
        assert verify_success_record(rec, 1000).ok, rec


def test_analyze_moduli_empty():
    report = analyze_moduli([])
    assert report.successful_moduli == ()
    assert report.join_offset_checks == ()
    assert report.midpoint_rows == ()


def test_analyze_moduli_small_run():
    summary = run_search(SearchConfig(max_modulus=48, skip_covered=True))
    report = analyze_moduli(summary.records)
    assert report.non_3smooth_moduli == ()
    assert all(row.within_midpoint for row in report.midpoint_rows)
    assert all(c.is_two_three_product for c in report.join_offset_checks)


def test_certified_members_join_no_later_than_certificate():
    # every member of a certified class must touch a previous trajectory
    # by its certificate index at the latest
    summary = run_search(SearchConfig(max_modulus=200))
    caps = {}
    for rec in summary.records:
        b, c = rec.pattern
        k = 1
        while b * k - c <= 10_000:
            n = b * k - c
            if n >= 3:
                caps.setdefault(n, []).append(rec.stop_index)
            k += 1
    for stop in iter_modified_stops(10_000):
        for cap in caps.get(stop.n, ()):
            assert stop.stop_index <= cap, (stop.n, stop.stop_index, cap)
