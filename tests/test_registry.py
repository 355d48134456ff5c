"""The trajectory registry held to a dictionary of every registered element.

`DictRegistry` stores each element of each registered trajectory with its
class and element index, so its lookups are right by construction.  The
search's `TrajectoryRegistry` stores no form at all, and the search hands it
one modulus at a time as `walk_modulus` gives it (per residue group, the
length and last element) instead of trajectories; a search run with
`CheckedRegistry` in its place feeds the dictionary each class's full
trajectory, answers every lookup both ways and fails on the first
difference.
"""

import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from collatz_sieve import AffineForm, PatternClass, SearchConfig, build_trajectory
from collatz_sieve import pattern_trajectory, run_search, search
from collatz_sieve.affine import v2
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
        trajectories, t = [], v2(walk.modulus)
        for c in walk.remainders:
            length, coeff, power, top = walk.groups[c % (1 << t)]
            traj = pattern_trajectory(PatternClass(walk.modulus, c))
            terminal = traj.elements[-1]
            assert (length, (coeff, top - power * (c >> t))) == (
                len(traj.elements), terminal), traj
            # The registry is still as the search's gate saw it.
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


def last_elements(modulus, remainders):
    return [build_trajectory(AffineForm(modulus, -c))[-1] for c in remainders]


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
        search.rebuild_state(config, lambda state: None)
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
        # A rejected walk leaves no lane behind.
        assert not any(registry.may_meet(t) for t in last_elements(b, remainders)), b
    assert len(registry) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 150), st.booleans(), st.lists(forms, max_size=60))
def test_one_batch_per_modulus_registers_like_one_class_batches(half, filter_3smooth,
                                                                extra_forms):
    batched, single = TrajectoryRegistry(), TrajectoryRegistry()
    terminals = list(extra_forms)
    for modulus in [2, *_moduli(2 * half, filter_3smooth)]:
        walk = walk_modulus(modulus, [0] if modulus == 2 else range(modulus - 1, 0, -2))
        terminals += last_elements(modulus, walk.remainders)
        batched.register(walk)
        for c in walk.remainders:
            single.register(walk_modulus(modulus, [c]))
        assert (len(batched), batched.entry_count(), batched.digest()) == (
            len(single), single.entry_count(), single.digest())
    registered = set(terminals[len(extra_forms):])
    # The classes of the next moduli are not registered, so some probes miss.
    for modulus in range(2 * half + 2, 2 * half + 40, 2):
        terminals += last_elements(modulus, range(modulus - 1, 0, -2))
    # Whole moduli answer exactly.  A class registered alone enters the whole
    # run of its residue group, which can add a yes, never a no for the end
    # of a registered class.
    assert [batched.may_meet(t) for t in terminals] == [t in registered for t in terminals]
    assert all(single.may_meet(t) for t in registered)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 40), st.booleans(), st.lists(forms, max_size=60))
def test_a_whole_modulus_registers_alike_from_a_range_and_a_list(half, filter_3smooth,
                                                                 extra_forms):
    # `register` takes a range of all of a modulus's remainders at once and
    # a list of the same remainders class by class, to the same registry.
    by_range, by_list = TrajectoryRegistry(), TrajectoryRegistry()
    elements = list(extra_forms)
    for modulus in [2, *_moduli(2 * half, filter_3smooth)]:
        every = range(1) if modulus == 2 else range(modulus - 1, 0, -2)
        by_range.register(walk_modulus(modulus, every))
        by_list.register(walk_modulus(modulus, list(every)))
        assert (len(by_range), by_range.entry_count(), by_range.digest()) == (
            len(by_list), by_list.entry_count(), by_list.digest()), modulus
        elements += [e for c in every for e in build_trajectory(AffineForm(modulus, -c))]
    ends = {t for modulus in range(2, 2 * half + 40, 2)
            for t in last_elements(modulus, [0] if modulus == 2 else range(modulus - 1, 0, -2))}
    probes = sorted({(a, d + j * 3**i) for a, d in ends for i in range(a.bit_length())
                     if a % 3**i == 0 for j in (-1, 0, 1)})
    assert [by_range.lookup(f) for f in elements] == [by_list.lookup(f) for f in elements]
    assert [by_range.may_meet(t) for t in probes] == [by_list.may_meet(t) for t in probes]


def test_whole_moduli_answer_exactly_next_to_every_registered_end():
    # A lane holds runs of the positions D // P of last elements (A, D) with
    # one D mod P, P a power of 3 dividing A: probe one and two steps of
    # every such P beyond each registered end, where an off-by-one run end or
    # a wrong lane would answer wrong.
    registry, registered = TrajectoryRegistry(), set()
    for modulus in [2, *_moduli(160, False)]:
        walk = walk_modulus(modulus, [0] if modulus == 2 else range(modulus - 1, 0, -2))
        registry.register(walk)
        registered.update(last_elements(modulus, walk.remainders))
    probes = {(a, d + j * 3**i) for a, d in registered for i in range(a.bit_length())
              if a % 3**i == 0 for j in (-2, -1, 1, 2)}
    probes = sorted(probes)
    assert [registry.may_meet(t) for t in probes] == [t in registered for t in probes]
    assert all(registry.may_meet(t) for t in registered)


def test_the_lane_scan_takes_both_branches():
    # `_hits` scans the u0 < step of a lane whose step = lane_power // power
    # fits in its key count, and solves for one u0 per key beyond that.
    branches = {False: 0, True: 0}

    class CountingRegistry(TrajectoryRegistry):
        def _hits(self, coeff, power, top):
            for lane_power, lane in self._lanes.get(coeff, {}).items():
                branches[lane_power // power > len(lane)] += 1
            return super()._hits(coeff, power, top)

    registry, registered = CountingRegistry(), set(last_elements(2, [0]))
    registry.register(walk_modulus(2, [0]))
    for modulus in _moduli(60, False):
        registry.register(walk_modulus(modulus, range(modulus - 1, 0, -2)))
        registered.update(last_elements(modulus, range(modulus - 1, 0, -2)))
    for modulus in _moduli(120, False):
        every = range(modulus - 1, 0, -2)
        ends = last_elements(modulus, every)
        gate = registry.meeting(walk_modulus(modulus, every))
        assert [c in gate for c in every] == [t in registered for t in ends], modulus
        assert [registry.may_meet(t) for t in ends] == [t in registered for t in ends], modulus
    assert branches[False] and branches[True], branches


def registered_in(mode, modulus, data):
    """The remainder lists by which a modulus is registered: every odd one
    at once, some of them, all of them in two parts, or none."""
    every = list(range(modulus - 1, 0, -2))
    if mode == "whole":
        return [every]
    if mode == "part":
        return [data.draw(st.lists(st.sampled_from(every), unique=True))]
    if mode == "two parts":
        shuffled = data.draw(st.permutations(every))
        cut = data.draw(st.integers(0, len(every)))
        return [shuffled[:cut], shuffled[cut:]]
    return []


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.data())
def test_the_group_gate_answers_like_may_meet(half, data):
    # The sweep asks `meeting` for a modulus's classes a residue group at a
    # time; each class must get may_meet's answer for its last element.
    modes = st.sampled_from(["whole", "part", "two parts", "none"])
    registry = TrajectoryRegistry()
    registry.register(walk_modulus(2, [0]))
    for modulus in range(4, 2 * half + 1, 2):
        for remainders in registered_in(data.draw(modes), modulus, data):
            registry.register(walk_modulus(modulus, remainders))
    for modulus in range(4, 2 * half + 60, 2):
        every = range(modulus - 1, 0, -2)
        some = data.draw(st.lists(st.sampled_from(every), unique=True))
        for walk in (walk_modulus(modulus, every), walk_modulus(modulus, some)):
            gate = registry.meeting(walk)
            assert [c in gate for c in walk.remainders] == [
                registry.may_meet(t) for t in last_elements(modulus, walk.remainders)
            ], walk.modulus


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.data())
def test_a_group_registered_in_part_gates_as_its_whole_run(half, data):
    # may_meet holds the last element of every class of a residue group mod
    # 2^t that has a registered class, and nothing else: not the other ends
    # of the next moduli, nor one or two lane steps beside any end.
    modes = st.sampled_from(["whole", "part", "two parts", "none"])
    registry, gated = TrajectoryRegistry(), set(last_elements(2, [0]))
    registry.register(walk_modulus(2, [0]))
    for modulus in range(4, 2 * half + 1, 2):
        every, low = range(modulus - 1, 0, -2), modulus & -modulus
        for remainders in registered_in(data.draw(modes), modulus, data):
            registry.register(walk_modulus(modulus, remainders))
            groups = {c % low for c in remainders}
            gated.update(last_elements(modulus, [c for c in every if c % low in groups]))
    ends = {t for modulus in range(2, 2 * half + 40, 2)
            for t in last_elements(modulus, [0] if modulus == 2 else range(modulus - 1, 0, -2))}
    probes = sorted({(a, d + j * 3**i) for a, d in ends for i in range(a.bit_length())
                     if a % 3**i == 0 for j in (-2, -1, 0, 1, 2)})
    assert [registry.may_meet(t) for t in probes] == [t in gated for t in probes]
