import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from collatz_sieve import (
    CoverageLedger,
    PatternClass,
    ResidueClass,
    brute_force_density,
    delta_report,
    format_percent,
    from_pattern,
    residue_class,
    rounded_percent,
)
from refining_ledger import RefiningLedger


def test_from_pattern():
    assert from_pattern(PatternClass(4, 3)) == ResidueClass(4, 1)
    assert from_pattern(PatternClass(2, 0)) == ResidueClass(2, 0)
    assert from_pattern(PatternClass(6, 1)) == ResidueClass(6, 5)


def test_add_class_progression():
    ledger = CoverageLedger()
    assert ledger.add_class(ResidueClass(2, 0)) == Fraction(1, 2)
    assert ledger.add_class(ResidueClass(4, 1)) == Fraction(1, 4)
    assert ledger.add_class(ResidueClass(6, 5)) == Fraction(1, 12)
    assert ledger.density() == Fraction(10, 12)
    # idempotence
    assert ledger.add_class(ResidueClass(4, 1)) == 0
    assert ledger.density() == Fraction(10, 12)


def test_add_class_splits_against_brute_force():
    ledger = CoverageLedger()
    for r in (ResidueClass(2, 0), ResidueClass(4, 1), ResidueClass(6, 5)):
        ledger.add_class(r)
    oracle = brute_force_density(
        [ResidueClass(2, 0), ResidueClass(4, 1), ResidueClass(6, 5)], 12
    )
    assert ledger.density() == oracle == Fraction(10, 12)


def test_covers():
    ledger = CoverageLedger.from_classes([ResidueClass(2, 0), ResidueClass(4, 1)])
    assert ledger.covers(ResidueClass(8, 5))      # 5 mod 8 sits inside 1 mod 4
    assert ledger.covers(ResidueClass(4, 1))
    assert not ledger.covers(ResidueClass(4, 3))
    assert not ledger.covers(ResidueClass(6, 5))  # half of it is new


def test_density_examples():
    # 5 mod 12 sits inside 1 mod 4, so the third disjoint class worth 1/12
    # is 11 mod 12, not 5 mod 12
    assert CoverageLedger.from_classes(
        [ResidueClass(2, 0), ResidueClass(4, 1), ResidueClass(12, 11)]
    ).density() == Fraction(5, 6)
    assert CoverageLedger.from_classes(
        [ResidueClass(2, 0), ResidueClass(4, 1), ResidueClass(12, 5)]
    ).density() == Fraction(3, 4)
    assert CoverageLedger().density() == 0
    assert CoverageLedger.from_classes([ResidueClass(1, 0)]).density() == 1


def test_lcm_of_moduli():
    ledger = CoverageLedger.from_classes(
        [ResidueClass(2, 0), ResidueClass(4, 1), ResidueClass(6, 5)]
    )
    assert ledger.lcm_of_moduli() == 12
    assert CoverageLedger.from_classes([ResidueClass(2, 0)]).lcm_of_moduli() == 2


def test_lcm_headline_factorization():
    # lcm(2^22, 2 * 3^12) must reproduce the 13-digit headline figure
    assert math.lcm(2**22, 2 * 3**12) == 2_229_025_112_064


def test_stored_lcm_can_lag_added_lcm():
    ledger = CoverageLedger.from_classes([ResidueClass(2, 1), ResidueClass(4, 1)])
    assert ledger.lcm_of_moduli() == 2       # 1 mod 4 was swallowed by 1 mod 2


def test_brute_force_density_examples():
    classes = [ResidueClass(2, 0), ResidueClass(4, 1), ResidueClass(6, 5)]
    assert brute_force_density(classes, 12) == Fraction(10, 12)
    assert brute_force_density([], 2) == 0
    assert brute_force_density([ResidueClass(2, 1), ResidueClass(2, 0)], 2) == 1


def test_brute_force_density_rejects_large_window():
    with pytest.raises(ValueError):
        brute_force_density([ResidueClass(2, 0)], 10**7 + 2)


def test_format_percent():
    assert format_percent(Fraction(10, 12)) == "83.33333%"
    assert format_percent(Fraction(1, 24)) == "4.16667%"
    assert format_percent(Fraction(0)) == "0.00000%"
    assert format_percent(Fraction(1)) == "100.00000%"
    assert rounded_percent(Fraction(1, 24)) == Fraction(416667, 10**5)


def test_delta_report_single_checkpoint():
    rep = delta_report([(2, Fraction(1, 2))])
    assert rep.power_rows == ((1, Fraction(1, 2)),)
    assert rep.between_rows == ()


def test_delta_report_requires_increasing_moduli():
    with pytest.raises(ValueError):
        delta_report([(4, Fraction(1, 2)), (4, Fraction(1, 2))])


def test_delta_report_rows():
    points = [
        (2, Fraction(1, 2)), (4, Fraction(3, 4)), (6, Fraction(5, 6)),
        (8, Fraction(5, 6)), (10, Fraction(5, 6)), (12, Fraction(5, 6)),
        (14, Fraction(5, 6)), (16, Fraction(7, 8)),
    ]
    rep = delta_report(points)
    assert rep.power_rows == (
        (1, Fraction(1, 2)), (2, Fraction(1, 4)), (3, Fraction(0)),
        (4, Fraction(1, 24)),
    )
    assert rep.between_rows == ((2, Fraction(1, 12)), (3, Fraction(0)))


# ----------------------------- properties -----------------------------

SMOOTH_MODULI = sorted(
    {2**a * 3**b * 5**c for a in range(5) for b in range(3) for c in range(2)}
)[1:]  # drop 1


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 12))
    classes = []
    for _ in range(n):
        m = draw(st.sampled_from(SMOOTH_MODULI))
        r = draw(st.integers(0, m - 1))
        classes.append(ResidueClass(m, r))
    return classes


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_ledger_matches_brute_force(classes):
    ledger = CoverageLedger()
    gains = [ledger.add_class(r) for r in classes]
    L = math.lcm(*(m for m, _ in classes))
    assert L <= 10**6
    assert ledger.density() == brute_force_density(classes, L)
    assert sum(gains) == ledger.density()
    assert ledger.recomputed_density() == ledger.density()
    survivor_density = sum((Fraction(1, m) for m, _ in ledger.survivors()), Fraction(0))
    assert 1 - survivor_density == ledger.density()


@settings(max_examples=60, deadline=None)
@given(scenarios(), st.randoms(use_true_random=False))
def test_ledger_density_is_order_independent(classes, rng):
    a = CoverageLedger.from_classes(classes)
    shuffled = classes[:]
    rng.shuffle(shuffled)
    b = CoverageLedger.from_classes(shuffled)
    assert a.density() == b.density()


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_ledger_classes_stay_disjoint(classes):
    ledger = CoverageLedger.from_classes(classes)
    for disjoint in (ledger.stored_classes(), ledger.survivors()):
        for i, (m1, r1) in enumerate(disjoint):
            for m2, r2 in disjoint[i + 1:]:
                g = math.gcd(m1, m2)
                assert r1 % g != r2 % g  # classes intersect iff congruent mod gcd


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_covers_agrees_with_zero_gain(classes):
    ledger = CoverageLedger.from_classes(classes[:-1]) if classes else CoverageLedger()
    probe = classes[-1] if classes else ResidueClass(2, 0)
    covered = ledger.covers(probe)
    gain = ledger.add_class(probe)
    assert covered == (gain == 0)


def test_survivors_examples():
    ledger = CoverageLedger()
    assert ledger.survivors() == (ResidueClass(1, 0),)
    ledger.add_class(ResidueClass(2, 0))
    assert ledger.survivors() == (ResidueClass(2, 1),)
    ledger.add_class(ResidueClass(4, 1))
    assert ledger.survivors() == (ResidueClass(4, 3),)
    ledger.add_class(ResidueClass(6, 5))  # 3 mod 4 splits by 3; 11 mod 12 goes
    assert ledger.survivors() == (ResidueClass(12, 3), ResidueClass(12, 7))
    assert ledger.open_residues(8) == [3, 7]
    assert ledger.open_residues(6) == [1, 3]
    assert ledger.add_class(ResidueClass(1, 0)) == Fraction(1, 6)
    assert ledger.survivors() == ()
    assert ledger.open_residues(8) == []

    # The survivor refinement's decomposition depends on history: 5 mod 18
    # meets 3 mod 4 in 23 mod 36 and 5 mod 12 in 5 mod 36.  Refining 5 mod 18
    # against the stored classes instead would store it whole.
    oracle = RefiningLedger.from_classes([ResidueClass(2, 0), ResidueClass(12, 9)])
    assert oracle.survivors() == (
        ResidueClass(4, 3), ResidueClass(12, 1), ResidueClass(12, 5))
    assert oracle.add_class(ResidueClass(18, 5)) == Fraction(1, 18)
    assert oracle.stored_classes() == (
        ResidueClass(2, 0), ResidueClass(12, 9), ResidueClass(36, 5), ResidueClass(36, 23))
    assert oracle.survivors() == (
        ResidueClass(12, 1), ResidueClass(12, 3), ResidueClass(12, 7),
        ResidueClass(36, 11), ResidueClass(36, 17), ResidueClass(36, 29),
        ResidueClass(36, 35))
    assert oracle.density() == Fraction(23, 36)


def test_diagram_classes_are_canonical():
    # The diagram branches on x mod 3 before the bits of x, and its classes
    # are its paths, whatever order the classes came in.
    classes = [ResidueClass(2, 0), ResidueClass(12, 9), ResidueClass(18, 5)]
    for order in (classes, classes[::-1]):
        ledger = CoverageLedger.from_classes(order)
        assert ledger.stored_classes() == (
            ResidueClass(6, 0), ResidueClass(6, 4), ResidueClass(9, 5),
            ResidueClass(12, 9), ResidueClass(18, 2), ResidueClass(18, 8))
        assert ledger.survivors() == (
            ResidueClass(6, 1), ResidueClass(12, 3), ResidueClass(18, 11),
            ResidueClass(18, 17))
        assert len(ledger) == len(ledger.stored_classes()) == 6
        assert ledger.density() == Fraction(23, 36)
        assert ledger.lcm_of_moduli() == 36


@settings(max_examples=150, deadline=None)
@given(scenarios(), st.sampled_from(SMOOTH_MODULI), st.data())
def test_open_residues_and_covers_match_residue_marking(classes, b, data):
    ledger = CoverageLedger.from_classes(classes)
    L = math.lcm(b, *(m for m, _ in classes))
    covered = bytearray(L)  # residue-marking oracle
    for m, r in classes:
        covered[r::m] = b"\x01" * len(range(r, L, m))
    expected = [x for x in range(b) if not all(covered[x::b])]
    assert ledger.open_residues(b) == expected
    r = data.draw(st.integers(0, b - 1))
    assert ledger.covers(ResidueClass(b, r)) == (r not in expected)


# Moduli over the primes 2 to 11 whose lcm stays below 10^5, so that both
# ledgers' survivors can be listed.
PRIME_MODULI = sorted(
    {2**a * 3**b * 5**c * 7**d * 11**e
     for a in range(4) for b in range(3) for c in range(2) for d in range(2) for e in range(2)
     if 5**c * 7**d * 11**e <= 77}
)[1:]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(PRIME_MODULI), st.integers(0, 10**6)),
                min_size=1, max_size=10),
       st.sampled_from(PRIME_MODULI + [2 * 509]), st.data())
def test_diagram_matches_the_refinement(classes, b, data):
    ledger, oracle = CoverageLedger(), RefiningLedger()
    for m, rho in classes:
        r = residue_class(m, rho)
        assert ledger.add_class(r) == oracle.add_class(r)
        assert ledger.density() == oracle.density()
        assert ledger.lcm_of_moduli() == oracle.lcm_of_moduli()
        assert ledger.open_residues(b) == oracle.open_residues(b)
        probe = ResidueClass(b, data.draw(st.integers(0, b - 1)))
        assert ledger.covers(probe) == oracle.covers(probe)
        assert sum((Fraction(1, m) for m, _ in ledger.survivors()), Fraction(0)) == (
            1 - oracle.density())
        assert len(ledger) == len(ledger.stored_classes())
