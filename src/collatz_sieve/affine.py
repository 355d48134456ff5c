"""Exact arithmetic on affine forms a*k + d and the symbolic Collatz step.

An affine form stands for a whole congruence class at once: the form
(a, d) is the function k -> a*k + d on k = 1, 2, 3, ...  When the
coefficient a is even, every member of the class has the same parity, so
one Collatz step can be applied to the entire class symbolically.  When
a is odd the parity depends on k and the symbolic iteration must stop.

All arithmetic is unbounded-integer exact.  Coefficients grow like
a * 3**v2(a) along a trajectory, so fixed-width arithmetic would forge
certificates; Python ints make this a non-issue.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"
    INDETERMINATE = "indeterminate"


class IndeterminateParityError(ValueError):
    """A symbolic step was requested for a form whose parity depends on k."""


class TrajectoryCapError(RuntimeError):
    """The proved trajectory-length bound was exceeded (internal bug)."""

    def __init__(self, anchor: AffineForm, step_cap: int) -> None:
        super().__init__(f"trajectory of {anchor} exceeded {step_cap} elements; "
                         "the length bound is violated")


class AffineForm(NamedTuple):
    """The function k -> coeff*k + offset, coeff >= 1, k ranging over 1, 2, ..."""

    coeff: int
    offset: int


def evaluate(f: AffineForm, k: int) -> int:
    """Value of the form at a concrete index k >= 1."""
    if f.coeff < 1:
        raise ValueError(f"coefficient must be >= 1, got {f.coeff}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return f.coeff * k + f.offset


def parity(f: AffineForm) -> Parity:
    """Parity of f(k), shared by all k when the coefficient is even.

    Even coefficient: f(k) has the parity of the offset for every k.
    Odd coefficient: f(k) alternates with k, so no single parity exists.
    """
    if f.coeff < 1:
        raise ValueError(f"coefficient must be >= 1, got {f.coeff}")
    if f.coeff % 2 == 1:
        return Parity.INDETERMINATE
    return Parity.EVEN if f.offset % 2 == 0 else Parity.ODD


def step(f: AffineForm) -> AffineForm:
    """One Collatz step applied to the whole class.

    Even form: (a, d) -> (a/2, d/2), both halves exact.
    Odd form:  (a, d) -> (3a, 3d+1); the result is always an even form,
    so an odd step can always be followed by an even one.
    """
    p = parity(f)
    if p is Parity.INDETERMINATE:
        raise IndeterminateParityError(
            f"cannot step {f}: parity depends on k (odd coefficient)"
        )
    if p is Parity.EVEN:
        return AffineForm(f.coeff // 2, f.offset // 2)
    return AffineForm(3 * f.coeff, 3 * f.offset + 1)


def v2(n: int) -> int:
    """Exponent of 2 in n (the 2-adic valuation), n >= 1."""
    if n < 1:
        raise ValueError(f"v2 needs n >= 1, got {n}")
    return (n & -n).bit_length() - 1


def default_step_cap(coeff: int) -> int:
    # Proved bound is 2*v2(coeff) + 1 elements; slack catches bugs, not math.
    return 2 * v2(coeff) + 8


def build_trajectory(anchor: AffineForm) -> tuple[AffineForm, ...]:
    """Iterate the symbolic step until the coefficient turns odd.

    Returns (anchor, step(anchor), step(step(anchor)), ...) ending at the
    first form with odd coefficient.  Termination is guaranteed: every
    even step lowers v2(coeff) by one and odd steps preserve it, so the
    result has at most 2*v2(anchor.coeff) + 1 elements.  The anchor is
    element 1.
    """
    a, d = anchor
    if a < 1 or a % 2:
        raise ValueError(f"anchor must have an even coefficient >= 2, got {anchor}")
    step_cap = default_step_cap(a)
    elements = [anchor]
    while not a & 1:
        if len(elements) >= step_cap:
            raise TrajectoryCapError(anchor, step_cap)
        # step() on ints; halving an even d is exact also when d < 0.
        a, d = (3 * a, 3 * d + 1) if d & 1 else (a >> 1, d >> 1)
        elements.append(AffineForm(a, d))
    return tuple(elements)


def strictly_below(f: AffineForm, g: AffineForm, from_k: int) -> bool:
    """True iff f(k) < g(k) for every k >= from_k, decided exactly.

    Linear functions: the inequality holds on the whole tail iff it holds
    at from_k and the slope difference does not flip it later, which
    reduces to the two cases below.
    """
    if from_k < 1:
        raise ValueError(f"from_k must be >= 1, got {from_k}")
    if g.coeff > f.coeff:
        return (g.coeff - f.coeff) * from_k > f.offset - g.offset
    if g.coeff == f.coeff:
        return g.offset > f.offset
    return False
