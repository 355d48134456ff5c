"""The coverage ledger's stored classes held to the former decomposition.

`Decomposition` refines each incoming class against the covered classes
stored so far: a fragment inside one of them adds nothing, a fragment that
misses them all is stored, and any other fragment is split by the smallest
prime that separates it from a class it meets.  The ledger instead stores
the pieces its survivors lose.  The two agree on searches, which a search
run with `CheckedLedger` in place of the ledger asserts after every class;
they differ on some other sequences (see test_survivors_examples).
"""

import math
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from collatz_sieve import (
    CoverageLedger,
    ResidueClass,
    SearchConfig,
    from_pattern,
    residue_class,
    run_search,
    search,
)
from collatz_sieve.coverage import _smallest_prime_factor


def _meets(a, b):
    g = math.gcd(a.modulus, b.modulus)
    return a.residue % g == b.residue % g


class Decomposition:
    def __init__(self):
        self.stored = set()

    def add(self, r):
        self._add(r, [c for c in self.stored if _meets(r, c)])

    def _add(self, r, met):
        m, rho = r
        split_prime = 0
        for m2, _ in met:
            if m % m2 == 0:
                return
            p = _smallest_prime_factor(m2 // math.gcd(m, m2))
            split_prime = min(split_prime or p, p)
        if not split_prime:
            self.stored.add(r)
            return
        for j in range(split_prime):
            child = ResidueClass(m * split_prime, rho + j * m)
            self._add(child, [c for c in met if _meets(child, c)])

    def classes(self):
        return tuple(sorted(self.stored))

    def density(self):
        return sum((Fraction(1, m) for m, _ in self.stored), Fraction(0))


class CheckedLedger(CoverageLedger):
    made = []

    def __init__(self):
        super().__init__()
        self.oracle = Decomposition()
        CheckedLedger.made.append(self)

    def add_class(self, r):
        gain = super().add_class(r)
        self.oracle.add(residue_class(*r))
        assert self.stored_classes() == self.oracle.classes(), r
        assert self.density() == self.oracle.density(), r
        return gain


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 100), st.booleans(), st.booleans(), st.booleans())
def test_search_ledger_stores_the_former_decomposition(half, filter_3smooth,
                                                       skip_covered,
                                                       join_targets_3smooth):
    config = SearchConfig(2 * half, filter_3smooth=filter_3smooth,
                          skip_covered=skip_covered,
                          join_targets_3smooth=join_targets_3smooth)
    CheckedLedger.made.clear()
    with mock.patch.object(search, "CoverageLedger", CheckedLedger):
        summary = run_search(config)
        search.rebuild_state(config, config.max_modulus)
    # The search hands the ledger only the records of classes still open at
    # their modulus; the decomposition of every record must come out the same.
    every_record = Decomposition()
    for record in summary.records:
        every_record.add(from_pattern(record.pattern))
    assert len(CheckedLedger.made) == 2  # the search's ledger and the replay's
    for ledger in CheckedLedger.made:
        assert ledger.stored_classes() == every_record.classes()
        assert ledger.density() == every_record.density() == summary.final_density
