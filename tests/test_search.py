import hashlib
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from collatz_sieve import (
    AffineForm,
    CertificateError,
    CertKind,
    PatternClass,
    SearchConfig,
    SuccessRecord,
    TrajectoryCapError,
    TrajectoryRegistry,
    VerificationReport,
    analyze_moduli,
    build_trajectory,
    check_class,
    format_percent,
    from_pattern,
    is_3smooth_even,
    iter_modified_stops,
    pattern_trajectory,
    rebuild_state,
    run_search,
    strictly_below,
    verify_success_record,
)
from collatz_sieve.cli import _record_to_row
from collatz_sieve import affine, oracle, search
from collatz_sieve.affine import v2
from collatz_sieve.search import DuplicateRegistrationError, _moduli, walk_modulus
from refining_ledger import RefiningLedger


def registry_through(max_modulus, filter_3smooth=False):
    # Everything strictly below the next batch: seed plus all classes with
    # modulus <= max_modulus, registered in canonical order.
    registry = TrajectoryRegistry()
    registry.register(walk_modulus(2, [0]))
    for modulus in _moduli(max_modulus, filter_3smooth):
        registry.register(walk_modulus(modulus, range(modulus - 1, 0, -2)))
    return registry


def register_class(registry, b, c):
    registry.register(walk_modulus(b, [c]))


def swept_classes(config):
    """The classes the search checks, in the order in which it walks them."""
    walked = []

    def walk(modulus, remainders):
        walked.extend((modulus, c) for c in remainders)
        return walk_modulus(modulus, remainders)

    with mock.patch.object(search, "walk_modulus", walk):
        run_search(config)
    return walked[1:]  # the seed's walk comes first


def test_the_sweep_checks_remainders_descending():
    got = swept_classes(SearchConfig(6))
    assert got == [(4, 3), (4, 1), (6, 5), (6, 3), (6, 1)]


def test_the_smallest_filtered_sweep():
    assert list(_moduli(4, True)) == [4]
    assert swept_classes(SearchConfig(4, filter_3smooth=True)) == [(4, 3), (4, 1)]


def test_filtered_moduli():
    # 18 = 2 * 3^2 belongs here; without it the known join of 18k-5 into
    # 16k-5 could never be found in filtered runs
    assert list(_moduli(32, True)) == [4, 6, 8, 12, 16, 18, 24, 32]
    assert sorted({b for b, c in swept_classes(SearchConfig(32, filter_3smooth=True))}) == (
        [4, 6, 8, 12, 16, 18, 24, 32])


def test_filtered_moduli_are_the_3smooth_even_ones():
    # _moduli generates the 2^t*3^s; the filter it replaced tested every even number.
    smooth = [m for m in range(4, 3001, 2) if is_3smooth_even(m)]
    for max_modulus in range(2, 3001, 2):
        half = max_modulus // 2
        for start_after in {0, 1, 2, 3, half, half + 1, max_modulus - 1, max_modulus}:
            assert list(_moduli(max_modulus, True, start_after)) == [
                m for m in smooth if start_after < m <= max_modulus], (max_modulus, start_after)


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


@st.composite
def modulus_batches(draw):
    """An even modulus b = 2^t*m and remainders 0 <= c < b in random order,
    odd and even, with several remainders per residue mod 2^t."""
    b = draw(st.one_of(
        st.integers(1, 2**11).map(lambda half: 2 * half),
        st.sampled_from([2**40 * 3**5, 2**64, 2 * 3**30, 2**17 * 5**9 * 7]),
    ))
    t = v2(b)
    remainders = set(draw(st.lists(st.integers(0, b - 1), max_size=3)))
    for r in draw(st.lists(st.integers(0, 2**t - 1), min_size=1, max_size=3)):
        multiples = st.integers(0, (b - 1 - r) >> t)
        remainders.update(r + (k << t) for k in draw(st.lists(multiples, min_size=1,
                                                             max_size=4)))
    return b, draw(st.permutations(sorted(remainders)))


def first_cap_error(walk):
    """The message of the first error walk() raises, or None."""
    try:
        walk()
    except TrajectoryCapError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(modulus_batches())
def test_walk_matches_the_trajectory(batch):
    # Even remainders too: the walk only needs an even modulus.
    b, remainders = batch
    walk = walk_modulus(b, remainders)
    assert (walk.modulus, list(walk.remainders)) == (b, remainders)
    t = v2(b)
    groups = [walk.groups[c % (1 << t)] for c in remainders]  # by residue mod 2^t
    longest = max(length for length, *_ in groups)
    for c, (length, coeff, power, top), drop in zip(remainders, groups, walk.drops,
                                                     strict=True):
        elements = build_trajectory(AffineForm(b, -c))
        assert (length, (coeff, top - power * (c >> t))) == (len(elements), elements[-1]), c
        drops = [i for i, e in enumerate(elements, start=1)
                 if strictly_below(e, elements[0], 2)]
        assert drop == (drops[0] if drops else 0), c
    for step_cap in range(1, longest + 2):
        # The cap is no argument: both walks read default_step_cap when called.
        with mock.patch.object(search, "default_step_cap", lambda coeff: step_cap), \
                mock.patch.object(affine, "default_step_cap", lambda coeff: step_cap):
            error = first_cap_error(lambda: walk_modulus(b, remainders))
            per_class = first_cap_error(
                lambda: [build_trajectory(AffineForm(b, -c)) for c in remainders])
        # The same message names the same class: the first one over the cap.
        assert error == per_class, step_cap
        assert (error is not None) == (step_cap < longest), step_cap


def test_registry_examples():
    registry = TrajectoryRegistry()
    register_class(registry, 4, 1)
    assert registry.lookup(AffineForm(6, -1)) == ((PatternClass(4, 1), 3),)
    assert registry.lookup(AffineForm(5, 5)) == ()
    register_class(registry, 96, 25)
    assert registry.lookup(AffineForm(486, -122)) == ((PatternClass(96, 25), 9),)


def test_registry_lookup_skips_even_remainders():
    # Walking back from 18k-1 passes 12k-1, 8k-1 and then 16k-2, which has
    # the shape of an anchor but an even remainder, so it is no class.
    assert registry_through(16).lookup(AffineForm(18, -1)) == (
        (PatternClass(8, 1), 5), (PatternClass(12, 1), 3),
    )


def test_registry_lookup_keeps_registration_order():
    registry = TrajectoryRegistry()
    register_class(registry, 4, 1)
    register_class(registry, 6, 1)
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
    register_class(registry, 4, 1)
    with pytest.raises(DuplicateRegistrationError):
        register_class(registry, 4, 1)
    # A batch registers all of its classes or none of them.
    with pytest.raises(DuplicateRegistrationError):
        registry.register(walk_modulus(6, [5, 3, 5]))
    assert (len(registry), registry.lookup(AffineForm(6, -5))) == (1, ())


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


def test_skip_covered_search_to_4096_is_pinned():
    # SHA-256 of the stored coverage classes, density trail and record rows
    # of a filtered skip-covered search to 4096, as the ledger produced them
    # while it still proved every skipped class covered one by one.  The
    # survivor refinement, fed the search's records, stores those classes.
    summary = run_search(SearchConfig(max_modulus=4096, filter_3smooth=True,
                                      skip_covered=True))
    refined = RefiningLedger.from_classes(from_pattern(r.pattern) for r in summary.records)
    doc = {"stored_classes": [list(c) for c in refined.stored_classes()],
           "trail": [[m, str(d)] for m, d in summary.checkpoints],
           "records": [_record_to_row(r) for r in summary.records]}
    assert (len(summary.records), summary.examined, summary.skipped) == (65, 21230, 17749)
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == (
        "7a5f2d2a47b5d39656f724c8eb0829d867bec0a914527f92bbd99f5b60c5f3bd")


@pytest.mark.parametrize("config, digests", [
    (SearchConfig(max_modulus=512), (
        "2b23102c6f97e018a7c68b864b5b540d390c3bbd9e09e964cdec28cfca3df8f2",
        "4913bd3a0356f394e0dc57bd68763c4b4bc0909faaa386bfadff4e94ee26bf73",
        "c343229d8bed7aafe1c0c4b7a409ca23dee9f14eb668112c006b964cca4ebfd7")),
    (SearchConfig(max_modulus=600, skip_covered=True), (
        "c944d172c7c9707e0da15b4d373d119711c55f3dc171074e540810292133c673",
        "d204a8762135e7822e6538fbd75490be5c22dc33a33b0b6cfe7e2d14923b226b",
        "373a0fac34f384518657170fbb80c129998f8120579f94f1eb0ac194610578c7")),
], ids=["unfiltered-512", "skip-covered-600"])
def test_unfiltered_search_rows_are_pinned(config, digests):
    # SHA-256 of the record rows and of the density trail, and the registry
    # digest, of the search before the walk was shared per 2-adic group: a
    # wrong stop index or join target changes the rows, not the counts.
    registries = []
    summary = run_search(config, after_batch=lambda b: registries.append(b.registry))
    rows = [_record_to_row(r) for r in summary.records]
    trail = [[m, str(d)] for m, d in summary.checkpoints]
    assert (hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
            hashlib.sha256(json.dumps(trail).encode()).hexdigest(),
            registries[-1].digest()) == digests


def test_filtered_skip_covered_search_to_2pow15_is_pinned():
    summary = run_search(SearchConfig(max_modulus=2**15, filter_3smooth=True,
                                      skip_covered=True))
    assert len(summary.records) == 255
    assert format_percent(summary.final_density) == "98.73278%"
    assert summary.lcm_stored_moduli == 71_663_616


def test_filtered_skip_covered_search_to_2pow17_is_pinned():
    # Records, counts and registry digest of the run to 2^17, and SHA-256 of
    # its density trail and record rows, as the survivor refinement gave them.
    summary = run_search(SearchConfig(max_modulus=2**17, filter_3smooth=True,
                                      skip_covered=True))
    doc = {"trail": [[m, str(d)] for m, d in summary.checkpoints],
           "records": [_record_to_row(r) for r in summary.records]}
    assert (len(summary.records), summary.examined, summary.skipped) == (821, 997_584, 865_633)
    assert summary.final_density == Fraction(283_868_405, 286_654_464)
    assert format_percent(summary.final_density) == "99.02808%"
    assert summary.lcm_stored_moduli == 2_579_890_176
    assert summary.registry.digest() == (
        "485d5fd005f63bf7de9596ea875d06eed96c58ec552812c7a77f6df543c73e78")
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == (
        "9fa2dbaf21a808e02012508acb1f8ea779c4160f8b7031c41c6908f7acee4a82")


def test_run_search_k_verify_smoke():
    summary = run_search(SearchConfig(max_modulus=24, k_verify=50))
    assert summary.success_count > 0


def test_k_verify_failure_stops_before_the_modulus_is_published():
    def verify(record, k_max):
        ok = record.pattern != PatternClass(12, 1)
        return VerificationReport(k_max, ok, None if ok else 1, "forged")

    published = []
    with mock.patch.object(oracle, "verify_success_record", verify):
        with pytest.raises(CertificateError) as raised:
            run_search(SearchConfig(max_modulus=24, k_verify=5),
                       after_batch=lambda batch: published.append(batch.frontier_modulus))
    assert raised.value.record.pattern == PatternClass(12, 1)
    assert published == [2, 4, 6, 8, 10]


def test_registry_completeness_after_run():
    registry = registry_through(48)
    for cls in (PatternClass(b, c) for b in _moduli(48, False) for c in range(b - 1, 0, -2)):
        for index, form in enumerate(pattern_trajectory(cls).elements, start=1):
            assert (cls, index) in registry.lookup(form)


def test_rebuild_state_replays_exactly():
    config = SearchConfig(max_modulus=96, skip_covered=True)
    trail = []
    summary = run_search(config, after_batch=lambda b: trail.append(
        (b.frontier_modulus, b.registry.digest(), b.ledger.density())
    ))
    replayed = []
    state = rebuild_state(config, lambda b: replayed.append(
        (b.frontier_modulus, b.registry.digest(), b.ledger.density())
    ))
    assert replayed == trail
    assert state.ledger.density() == summary.final_density


def test_replay_builds_forms_only_for_join_records():
    # Drops are settled from the walk; only a join needs its trajectory's
    # forms.  The gate before a join scan passes a class whose last element
    # ends a class of a residue group holding a registered class: exactly the
    # registered ends for moduli registered whole, the group's whole run for
    # one registered in part.  In these runs, skip-covered ones too, every
    # class it passes joins, so the search and its replay build the forms of
    # the join records and nothing else (the trace's affine.trajectory_calls).
    for config, count in ((SearchConfig(512), 2997),
                          (SearchConfig(1500, skip_covered=True), 19),
                          (SearchConfig(32768, filter_3smooth=True, skip_covered=True), 139)):
        with mock.patch.object(search, "pattern_trajectory",
                               wraps=search.pattern_trajectory) as built:
            records = run_search(config).records
            rebuild_state(config, lambda state: None)
        joins = [(record.pattern,) for record in records if record.kind is CertKind.JOIN]
        assert len(joins) == count, config
        assert [call.args for call in built.call_args_list] == joins + joins, config


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
