"""The coverage ledger held to the survivor refinement inside real searches.

`CheckedLedger` runs the refinement (`RefiningLedger`, the ledger's former
implementation) beside the decision diagram and asserts after every batch
of classes (the search adds a modulus's records at once) and every modulus
that the two give the same gain, density, lcm and open residues.  A search
and its replay run with it in place of the ledger.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from collatz_sieve import (
    CoverageLedger,
    SearchConfig,
    from_pattern,
    run_search,
    search,
)
from refining_ledger import RefiningLedger


class CheckedLedger(CoverageLedger):
    made = []

    def __init__(self):
        super().__init__()
        self.oracle = RefiningLedger()
        CheckedLedger.made.append(self)

    def add_classes(self, classes):
        # add_class is add_classes([r]): one hook sees every class.
        batch = list(classes)
        gain = super().add_classes(batch)
        assert gain == sum(map(self.oracle.add_class, batch)), batch
        assert self.density() == self.oracle.density(), batch
        assert self.lcm_of_moduli() == self.oracle.lcm_of_moduli(), batch
        return gain

    def open_residues(self, modulus):
        found = super().open_residues(modulus)
        assert found == self.oracle.open_residues(modulus), modulus
        return found


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 100), st.booleans(), st.booleans(), st.booleans())
def test_search_ledger_matches_the_refinement(half, filter_3smooth, skip_covered,
                                              join_targets_3smooth):
    config = SearchConfig(2 * half, filter_3smooth=filter_3smooth,
                          skip_covered=skip_covered,
                          join_targets_3smooth=join_targets_3smooth)
    CheckedLedger.made.clear()
    with mock.patch.object(search, "CoverageLedger", CheckedLedger):
        summary = run_search(config)
        search.rebuild_state(config, lambda state: None)
    # The search hands the ledger only the records of classes still open at
    # their modulus; every record covers the same set.
    every_record = CoverageLedger.from_classes(
        from_pattern(record.pattern) for record in summary.records)
    assert len(CheckedLedger.made) == 2  # the search's ledger and the replay's
    for ledger in CheckedLedger.made:
        assert ledger.stored_classes() == every_record.stored_classes()
        assert ledger.density() == every_record.density() == summary.final_density
        assert ledger.lcm_of_moduli() == every_record.lcm_of_moduli()
