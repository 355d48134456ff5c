"""The trajectory registry held to a dictionary of every registered element.

`DictRegistry` stores each element of each registered trajectory with its
class and element index, so its lookups are right by construction.  The
search's `TrajectoryRegistry` stores no form at all, and the search hands it
one modulus at a time as `walk_modulus` gives it (lengths and last
elements) instead of trajectories; a search run with `CheckedRegistry` in
its place feeds the dictionary each class's full trajectory, answers every
lookup both ways and fails on the first difference.
"""

import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from collatz_sieve import AffineForm, PatternClass, SearchConfig, pattern_trajectory, run_search
from collatz_sieve import search
from collatz_sieve.search import TrajectoryRegistry, _moduli, walk_modulus


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
        trajectories = []
        for c, length, terminal in zip(walk.remainders, walk.lengths, walk.terminals,
                                       strict=True):
            traj = pattern_trajectory(PatternClass(walk.modulus, c))
            assert (length, terminal) == (len(traj.elements), traj.elements[-1]), traj
            # The registry is still as the search's Bloom probes saw it.
            assert self.may_meet(terminal) or not any(
                self.oracle.lookup(f) for f in traj.elements), traj
            trajectories.append(traj)
        super().register(walk)
        for traj in trajectories:
            self.oracle.register(traj)

    def lookup(self, form):
        got = super().lookup(form)
        assert got == self.oracle.lookup(form), form
        return got


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
        search.rebuild_state(config, config.max_modulus)
    registry, replayed = CheckedRegistry.made
    oracle = registry.oracle
    for form in [*oracle.by_form, *extra_forms]:
        registry.lookup(form)
    for reg in (registry, replayed):
        assert (len(reg), reg.entry_count(), reg.digest()) == (
            oracle.classes, oracle.entries, oracle.sha.hexdigest())


def test_registry_takes_only_the_seed_and_odd_remainders():
    registry = TrajectoryRegistry()
    for b, remainders in ((2, [1]), (4, [2]), (6, [0]), (6, [5, 3, 0, 1])):
        with pytest.raises(ValueError):
            registry.register(walk_modulus(b, remainders))
    assert len(registry) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 150), st.booleans(), st.lists(forms, max_size=60))
def test_one_batch_per_modulus_registers_like_one_class_batches(half, filter_3smooth,
                                                                extra_forms):
    batched, single = TrajectoryRegistry(), TrajectoryRegistry()
    terminals = list(extra_forms)
    # Small Bloom sub-filters, so that batches straddle their growth.
    with mock.patch.object(search._BloomFilter, "_FIRST_CAPACITY", 16):
        for modulus in [2, *_moduli(2 * half, filter_3smooth)]:
            walk = walk_modulus(modulus, [0] if modulus == 2 else range(modulus - 1, 0, -2))
            terminals += walk.terminals
            batched.register(walk)
            for c in walk.remainders:
                single.register(walk_modulus(modulus, [c]))
            assert (len(batched), batched.entry_count(), batched.digest()) == (
                len(single), single.entry_count(), single.digest())
    # The classes of the next moduli are not registered, so some probes miss.
    for modulus in range(2 * half + 2, 2 * half + 40, 2):
        terminals += walk_modulus(modulus, range(modulus - 1, 0, -2)).terminals
    assert [batched.may_meet(t) for t in terminals] == [single.may_meet(t) for t in terminals]
