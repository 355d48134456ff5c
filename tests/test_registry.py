"""The trajectory registry held to a dictionary of every registered element.

`DictRegistry` stores each element of each registered trajectory with its
class and element index, so its lookups are right by construction.  The
search's `TrajectoryRegistry` stores no form at all, and the search hands it
walks (length and last element) instead of trajectories; a search run with
`CheckedRegistry` in its place feeds the dictionary the class's full
trajectory, answers every lookup both ways and fails on the first
difference.
"""

import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from collatz_sieve import AffineForm, PatternClass, SearchConfig, pattern_trajectory, run_search
from collatz_sieve import search
from collatz_sieve.search import TrajectoryRegistry


class DictRegistry:
    def __init__(self):
        self.by_form, self.classes, self.entries = {}, 0, 0
        self.sha = hashlib.sha256()

    def register(self, traj):
        for index, form in enumerate(traj.elements, start=1):
            self.by_form.setdefault(form, []).append((traj.anchor_class, index))
        self.classes, self.entries = self.classes + 1, self.entries + len(traj.elements)
        self.sha.update("{},{};".format(*traj.anchor_class).encode())

    def lookup(self, form):
        return tuple(self.by_form.get(form, ()))


class CheckedRegistry(TrajectoryRegistry):
    made = []

    def __init__(self):
        super().__init__()
        self.oracle = DictRegistry()
        CheckedRegistry.made.append(self)

    def register(self, walk):
        super().register(walk)
        traj = pattern_trajectory(walk.anchor_class)
        assert (walk.length, walk.terminal) == (len(traj.elements), traj.elements[-1]), walk
        self.oracle.register(traj)

    def lookup(self, form):
        got = super().lookup(form)
        assert got == self.oracle.lookup(form), form
        return got

    def may_meet(self, walk):
        meets = super().may_meet(walk)
        elements = pattern_trajectory(walk.anchor_class).elements
        assert meets or not any(self.oracle.lookup(f) for f in elements), walk
        return meets


forms = st.builds(AffineForm, st.integers(1, 600), st.integers(-700, 300))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 100), st.booleans(), st.booleans(), st.booleans(),
       st.lists(forms, max_size=60))
def test_registry_answers_like_the_dictionary(half, filter_3smooth, skip_covered,
                                              join_targets_3smooth, extra_forms):
    config = SearchConfig(2 * half, filter_3smooth=filter_3smooth,
                          skip_covered=skip_covered,
                          join_targets_3smooth=join_targets_3smooth)
    CheckedRegistry.made.clear()
    with mock.patch.object(search, "TrajectoryRegistry", CheckedRegistry):
        summary = run_search(config)
        search.rebuild_state(config, config.max_modulus, summary.records)
    registry, replayed = CheckedRegistry.made
    oracle = registry.oracle
    for form in [*oracle.by_form, *extra_forms]:
        registry.lookup(form)
    for reg in (registry, replayed):
        assert (len(reg), reg.entry_count(), reg.digest()) == (
            oracle.classes, oracle.entries, oracle.sha.hexdigest())


def test_registry_takes_only_the_seed_and_odd_remainders():
    registry = TrajectoryRegistry()
    for cls in (PatternClass(2, 1), PatternClass(4, 2), PatternClass(6, 0)):
        with pytest.raises(ValueError):
            registry.register(pattern_trajectory(cls))
    assert len(registry) == 0
