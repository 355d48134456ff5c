"""The survivor refinement, the coverage ledger's former implementation.

It keeps the uncovered integers as disjoint residue classes, the
survivors, from 0 mod 1 on, and covering a class refines each survivor
that meets it one prime at a time.  Its decomposition depends on the order
in which classes are added; its density, lcm, open residues and covered
set do not, so it is the reference `CoverageLedger` is held to.
"""

import math
from fractions import Fraction
from typing import Iterable

from collatz_sieve import ResidueClass, residue_class


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


class RefiningLedger:
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
    def from_classes(cls, classes: Iterable[ResidueClass]) -> "RefiningLedger":
        ledger = cls()
        for r in classes:
            ledger.add_class(r)
        return ledger
