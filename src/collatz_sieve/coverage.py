"""Exact coverage bookkeeping for certified congruence classes.

The integers not yet covered are kept as a union of pairwise disjoint
residue classes, the survivors, so the open classes of a modulus are read
off them instead of being proved covered one by one.  Covering a class is
one refinement of the survivors it meets; the pieces they lose are stored
as the covered classes, also disjoint, so the natural density is simply
the sum of 1/modulus over them, as an exact rational.  This sidesteps
materializing residues modulo the running LCM, which quickly becomes
astronomically large, while staying exact.

A residue class here uses value semantics: the pattern b*k - c covers the
integers congruent to -c (mod b).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple

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


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    if n % 3 == 0:
        return 3
    f = 5
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def _meeting(residues: set[int], modulus: int, m: int, rho: int) -> list[int]:
    """The residues in `residues` (all mod `modulus`) whose class meets rho mod m.

    Two classes meet iff their residues agree mod the gcd of the moduli, so
    this tries whichever is fewer: the stored residues or the candidates.
    """
    g = math.gcd(modulus, m)
    rho_g = rho % g
    if modulus // g <= len(residues):
        return [x for x in range(rho_g, modulus, g) if x in residues]
    return [x for x in residues if x % g == rho_g]


def _sorted_classes(by_modulus: dict[int, set[int]]) -> tuple[ResidueClass, ...]:
    return tuple(sorted(
        ResidueClass(m, r) for m, residues in by_modulus.items() for r in residues
    ))


class CoverageLedger:
    """Disjoint union of residue classes with an exact running density.

    The ledger keeps the survivors, the uncovered integers as disjoint
    residue classes, from 0 mod 1 on.  Adding a class refines each
    survivor that meets it one prime at a time until the piece inside the
    class comes off; the other pieces stay survivors.  The pieces that come
    off are the stored covered classes, and their density is the gain.
    Refining the incoming class against the stored classes instead gives
    the same classes on every search tried, but not in general: after
    0 mod 2 and 9 mod 12, 5 mod 18 comes off as 5 and 23 mod 36.
    Density and disjointness hold either way.
    """

    def __init__(self) -> None:
        self._by_modulus: dict[int, set[int]] = {}
        self._survivors: dict[int, set[int]] = {1: {0}}
        self._density = Fraction(0)

    def __len__(self) -> int:
        return sum(len(s) for s in self._by_modulus.values())

    def stored_classes(self) -> tuple[ResidueClass, ...]:
        return _sorted_classes(self._by_modulus)

    def survivors(self) -> tuple[ResidueClass, ...]:
        """The uncovered integers as disjoint residue classes, sorted."""
        return _sorted_classes(self._survivors)

    def density(self) -> Fraction:
        return self._density

    def recomputed_density(self) -> Fraction:
        # Independent of the running sum; used as a self-check in tests.
        return sum(
            (Fraction(len(rs), m) for m, rs in self._by_modulus.items()),
            Fraction(0),
        )

    def lcm_of_moduli(self) -> int:
        """LCM of the stored (refined) moduli; 1 for an empty ledger."""
        return math.lcm(*self._by_modulus.keys()) if self._by_modulus else 1

    def add_class(self, r: ResidueClass) -> Fraction:
        """Cover the members of r; returns the exact density gain."""
        m, rho = residue_class(*r)
        hits = [
            (modulus, s)
            for modulus, residues in self._survivors.items()
            for s in _meeting(residues, modulus, m, rho)
        ]
        came_off: dict[int, int] = {}  # modulus -> pieces stored at it
        for modulus, s in hits:
            self._survivors[modulus].discard(s)
            while modulus % m:  # s is not inside r yet
                p = _smallest_prime_factor(m // math.gcd(modulus, m))
                finer = modulus * p
                g = math.gcd(finer, m)
                pieces = [s + j * modulus for j in range(p)]
                s = next(x for x in pieces if x % g == rho % g)
                self._survivors.setdefault(finer, set()).update(
                    x for x in pieces if x != s
                )
                modulus = finer
            self._by_modulus.setdefault(modulus, set()).add(s)
            came_off[modulus] = came_off.get(modulus, 0) + 1
        for emptied in {mod for mod, _ in hits if not self._survivors[mod]}:
            del self._survivors[emptied]
        gain = sum((Fraction(count, mod) for mod, count in came_off.items()), Fraction(0))
        self._density += gain
        return gain

    def covers(self, r: ResidueClass) -> bool:
        """True iff every member of r is already covered (read-only)."""
        m, rho = residue_class(*r)
        return not any(
            _meeting(residues, modulus, m, rho)
            for modulus, residues in self._survivors.items()
        )

    def open_residues(self, modulus: int) -> list[int]:
        """Residues mod `modulus`, ascending, whose class is not yet fully
        covered, i.e. meets a survivor."""
        out: set[int] = set()
        for m, residues in self._survivors.items():
            g = math.gcd(m, modulus)
            for base in {s % g for s in residues}:
                out.update(range(base, modulus, g))
        return sorted(out)

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


def format_percent(value: Fraction, decimals: int = 5) -> str:
    """Exact half-up rounding of a fraction of 1 to a percent string."""
    scale = 10**decimals
    num = value.numerator * 100 * scale
    q, rem = divmod(num, value.denominator)
    if 2 * rem >= value.denominator:
        q += 1
    whole, frac_part = divmod(q, scale)
    return f"{whole}.{frac_part:0{decimals}d}%"


def rounded_percent(value: Fraction, decimals: int = 5) -> Fraction:
    """The percent value after exact half-up rounding to `decimals` places."""
    scale = 10**decimals
    num = value.numerator * 100 * scale
    q, rem = divmod(num, value.denominator)
    if 2 * rem >= value.denominator:
        q += 1
    return Fraction(q, scale)


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
