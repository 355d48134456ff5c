"""Exact coverage bookkeeping for certified congruence classes.

The covered integers are a reduced ordered decision diagram over the
p-adic digits of x, larger primes first, low digits first within a prime.
A class rho mod m fixes the low e digits of each p^e exactly dividing m, a
cube, so covering it is one union.  The reduced diagram depends only on the
covered set: the exact density is its root's measure, and its paths are
disjoint residue classes.  This sidesteps materializing residues modulo the
running LCM, which quickly becomes astronomically large, while staying exact.

A residue class here uses value semantics: the pattern b*k - c covers the
integers congruent to -c (mod b).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

if TYPE_CHECKING:
    from .search import PatternClass


class ResidueClass(NamedTuple):
    """Integers congruent to residue (mod modulus), 0 <= residue < modulus."""

    modulus: int
    residue: int


def residue_class(modulus: int, residue: int) -> ResidueClass:
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    return ResidueClass(modulus, residue % modulus)


def from_pattern(pattern: "PatternClass") -> ResidueClass:
    """Residue class of the values of the pattern b*k - c."""
    return residue_class(pattern.modulus, -pattern.remainder)


OPEN, COVERED = 0, 1  # the terminal nodes
_COLLECT_FACTOR = 4  # nodes are collected once the table holds 4x the live ones
PERCENT_DECIMALS = 5  # the places of format_percent


def _variable(p: int, i: int) -> int:
    """The order key of digit i of x in base p: larger primes first, then
    lower digits; every key is negative, below the terminals' level 0."""
    return i - (p << 32)


@functools.lru_cache(maxsize=4096)  # the moduli of a run and their gcds with its lcm
def _prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    """(p, e) for each p^e exactly dividing n, larger primes first."""
    found, p = [], 2
    while n > 1:
        p = p if p * p <= n else n
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        found += [(p, e)] if e else []
        p += 1
    return tuple(reversed(found))


class CoverageLedger:
    """The covered integers as a reduced decision diagram, exact density.

    A node is an int indexing `_levels`, the variable it branches on, and
    `_kids`, its child per digit value; a unique table shares equal nodes.
    The lcm is that of the moduli of the classes that gained.
    """

    def __init__(self) -> None:
        self._root, self._lcm, self._live, self._open = OPEN, 1, 0, {}
        self._levels, self._kids = [0, 0], [(), ()]  # the terminals
        self._collect()

    def _mk(self, level: int, kids: tuple[int, ...]) -> int:
        if kids.count(kids[0]) == len(kids):
            return kids[0]
        node = self._unique.get((level, kids))
        if node is None:
            node = self._unique[(level, kids)] = len(self._levels)
            self._levels.append(level)
            self._kids.append(kids)
        return node

    def _collect(self) -> None:
        """Renumber the nodes the root reaches, once the table has outgrown them."""
        if len(self._levels) <= _COLLECT_FACTOR * self._live:
            return
        levels, kids, moved = self._levels, self._kids, {OPEN: OPEN, COVERED: COVERED}
        self._levels, self._kids, self._unique = [0, 0], [(), ()], {}
        self._measures = {OPEN: (0, 1), COVERED: (1, 1)}

        def move(u: int) -> int:
            if u not in moved:
                moved[u] = self._mk(levels[u], tuple(map(move, kids[u])))
            return moved[u]

        self._root = move(self._root)
        self._live = len(self._levels)

    def _combine(self, absorbing: int) -> Callable[[int, int], int]:
        """Union (absorbing COVERED) or intersection (absorbing OPEN), memoized."""
        levels, kids, mk, unit = self._levels, self._kids, self._mk, 1 - absorbing

        @functools.lru_cache(maxsize=None)
        def combine(a: int, b: int) -> int:
            if a == b or b == unit or a == absorbing:
                return a
            if a == unit or b == absorbing:
                return b
            level = min(levels[a], levels[b])
            left = kids[a] if levels[a] == level else (a,) * len(kids[b])
            right = kids[b] if levels[b] == level else (b,) * len(kids[a])
            return mk(level, tuple(map(combine, left, right)))

        return combine

    def _cube(self, m: int, rho: int) -> int:
        """The diagram of rho mod m: the digits it fixes lead to COVERED."""
        node = COVERED
        for p, e in _prime_powers(m)[::-1]:
            for i in reversed(range(e)):
                node = self._mk(_variable(p, i), tuple(
                    node if d == rho // p**i % p else OPEN for d in range(p)))
        return node

    def _measure(self, u: int) -> tuple[int, int]:
        """(numerator, denominator) of the covered share below node u."""
        found = self._measures.get(u)
        if found is None:
            num, den = 0, 1
            for n, d in map(self._measure, self._kids[u]):
                lcm = den if den % d == 0 else math.lcm(den, d)
                num, den = num * (lcm // den) + n * (lcm // d), lcm
            found = self._measures[u] = (num, den * len(self._kids[u]))
        return found

    def _classes(self, terminal: int, root: int) -> tuple[ResidueClass, ...]:
        """The paths from root to `terminal` as disjoint residue classes,
        sorted; free digits below a fixed digit of the same prime expand."""
        levels, kids, found = self._levels, self._kids, []

        def walk(u: int, modulus: int, residue: int) -> None:
            if u in (OPEN, COVERED):
                found.extend([ResidueClass(modulus, residue)] if u == terminal else [])
                return
            p, i = len(kids[u]), levels[u] + (len(kids[u]) << 32)  # see _variable
            step = p ** (i + 1) // math.gcd(modulus, p ** (i + 1))
            for x in range(residue, modulus * step, modulus):
                walk(kids[u][x // p**i % p], modulus * step, x)

        walk(root, 1, 0)
        return tuple(sorted(found))

    def __len__(self) -> int:
        """The number of stored classes, counted on the diagram: above a node
        on digit i of p, with digits 0..e-1 of p fixed on the path, `_classes`
        expands the free digits e..i-1 into p^(i-e) classes."""
        levels, kids = self._levels, self._kids

        @functools.lru_cache(maxsize=None)
        def count(u: int, e: int) -> int:
            if u in (OPEN, COVERED):
                return u  # COVERED is one class, OPEN none
            p = len(kids[u])
            i = levels[u] + (p << 32)  # see _variable
            return p ** (i - e) * sum(count(v, i + 1 if len(kids[v]) == p else 0)
                                      for v in kids[u])

        return count(self._root, 0)

    def stored_classes(self) -> tuple[ResidueClass, ...]:
        """The covered integers as the diagram's disjoint residue classes."""
        return self._classes(COVERED, self._root)

    def survivors(self) -> tuple[ResidueClass, ...]:
        """The uncovered integers as the diagram's disjoint residue classes."""
        return self._classes(OPEN, self._root)

    def density(self) -> Fraction:
        return Fraction(*self._measure(self._root))

    def recomputed_density(self) -> Fraction:
        # Independent of the root's measure; used as a self-check in tests.
        return sum((Fraction(1, m) for m, _ in self.stored_classes()), Fraction(0))

    def lcm_of_moduli(self) -> int:
        """LCM of the moduli of the classes that gained; 1 for an empty ledger."""
        return self._lcm

    def add_classes(self, classes: Iterable[ResidueClass]) -> Fraction:
        """Cover the members of classes, all of one modulus; returns the exact
        density gain.  Their cubes are unioned under one memo, then with the
        root once; the lcm takes the modulus only if the covered set grows."""
        batch = [residue_class(*r) for r in classes]
        if not batch:
            return Fraction(0)
        moduli = {modulus for modulus, _ in batch}
        if len(moduli) > 1:
            raise ValueError(f"a batch takes one modulus, got {sorted(moduli)}")
        m = moduli.pop()
        union = self._combine(COVERED)
        root = union(self._root, functools.reduce(union, (self._cube(m, rho) for _, rho in batch)))
        if root == self._root:
            return Fraction(0)
        before = self.density()
        self._root, self._lcm, self._open = root, math.lcm(self._lcm, m), {}
        self._collect()
        return self.density() - before

    def add_class(self, r: ResidueClass) -> Fraction:
        """Cover the members of r; returns the exact density gain."""
        return self.add_classes([r])

    def covers(self, r: ResidueClass) -> bool:
        """True iff every member of r is already covered.  No code here calls
        it; it stays for the tests and perfbench/tracing.py, which hooks it by
        name, and CI's "Trace hooks" step fails on a missing hook."""
        cube = self._cube(*residue_class(*r))
        return self._combine(OPEN)(self._root, cube) == cube

    def open_residues(self, modulus: int) -> list[int]:
        """Residues mod `modulus`, ascending, whose class is not yet fully
        covered.  The covered set depends on x mod L only, L the lcm, so the
        open classes are read off mod g = gcd(modulus, L): a class mod g is
        closed when all its completions are, so the branches of the digits
        that g leaves free are intersected first."""
        g = math.gcd(modulus, self._lcm)
        if g not in self._open:  # kept until the covered set changes
            fixed = {_variable(p, i) for p, e in _prime_powers(g) for i in range(e)}
            levels, kids, meet = self._levels, self._kids, self._combine(OPEN)

            @functools.lru_cache(maxsize=None)
            def closed(u: int) -> int:  # the classes mod g that u covers
                if u in (OPEN, COVERED):
                    return u
                below = tuple(map(closed, kids[u]))
                if levels[u] in fixed:
                    return self._mk(levels[u], below)
                return functools.reduce(meet, below)

            self._open[g] = sorted(r + k for m, r in self._classes(OPEN, closed(self._root))
                                   for k in range(0, g, m))
            self._collect()
        return [x + k for k in range(0, modulus, g) for x in self._open[g]]

    @classmethod
    def from_classes(cls, classes: Iterable[ResidueClass]) -> "CoverageLedger":
        ledger = cls()
        for r in classes:
            ledger.add_class(r)
        return ledger


def brute_force_density(classes: Iterable[ResidueClass], L: int) -> Fraction:
    """Density by marking residues 0..L-1 directly; desk-scale oracle only.

    L must be a common multiple of all the moduli and at most 10**7.
    """
    if not 1 <= L <= 10**7:
        raise ValueError(f"L must be in 1..10**7, got {L}")
    covered = bytearray(L)
    for m, r in classes:
        if L % m:
            raise ValueError(f"L={L} is not a multiple of modulus {m}")
        r %= m
        covered[r::m] = b"\x01" * len(range(r, L, m))
    return Fraction(sum(covered), L)


def rounded_percent(value: Fraction) -> Fraction:
    """The percent value after exact half-up rounding to PERCENT_DECIMALS places."""
    scale = 10**PERCENT_DECIMALS
    num = value.numerator * 100 * scale
    q, rem = divmod(num, value.denominator)
    if 2 * rem >= value.denominator:
        q += 1
    return Fraction(q, scale)


def format_percent(value: Fraction) -> str:
    """Exact half-up rounding of a fraction of 1 to a percent string."""
    scale = 10**PERCENT_DECIMALS
    whole, frac_part = divmod(int(rounded_percent(value) * scale), scale)
    return f"{whole}.{frac_part:0{PERCENT_DECIMALS}d}%"


class DeltaReport(NamedTuple):
    """Density gains at power-of-two moduli and in the gaps between them.

    power_rows: (t, gain) where gain is the density change contributed by
    modulus 2**t itself.
    between_rows: (t, gain) where gain is the total change contributed by
    the moduli strictly between 2**t and 2**(t+1).
    """

    power_rows: tuple[tuple[int, Fraction], ...]
    between_rows: tuple[tuple[int, Fraction], ...]


def delta_report(checkpoints: Iterable[tuple[int, Fraction]]) -> DeltaReport:
    """Build both progress tables from per-modulus density checkpoints.

    Checkpoints must be (modulus, density) in ascending modulus order, one
    per processed modulus, densities non-decreasing.
    """
    points = list(checkpoints)
    if not points:
        return DeltaReport((), ())
    moduli = [m for m, _ in points]
    if any(b <= a for a, b in zip(moduli, moduli[1:])):
        raise ValueError("checkpoints must have strictly increasing moduli")

    density_at = dict(points)
    frontier = moduli[-1]

    power_rows = []
    prev = Fraction(0)
    for m, d in points:
        if m & (m - 1) == 0:  # power of two
            power_rows.append((m.bit_length() - 1, d - prev))
        prev = d

    # Gain strictly between 2^t and 2^(t+1): density at the last modulus
    # below 2^(t+1) minus density at 2^t.  Only complete gaps are reported;
    # t starts at 2 because (2, 4) holds no even modulus at all.
    between_rows = []
    t = 2
    while 2 ** (t + 1) - 2 <= frontier:
        lo = 2**t
        if lo in density_at:
            below_next = [d for m, d in points if lo < m < 2 ** (t + 1)]
            gain = (below_next[-1] if below_next else density_at[lo]) - density_at[lo]
            between_rows.append((t, gain))
        t += 1
    return DeltaReport(tuple(power_rows), tuple(between_rows))
