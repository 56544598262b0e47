"""Open arcs on R/Z with exact rational endpoints.

Arc systems are stored as disjoint open intervals (lo, hi) with
0 <= lo < hi <= 1.  Minkowski sums of open arc unions are again unions of
open arcs and are computed exactly; a sum arc of length >= 1 covers the whole
circle and is collapsed to the sentinel (0, 1) full-cover arc together with a
flag, since any further question we ask of it (disjointness) is then trivial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, ResourceLimitError

ARC_COUNT_LIMIT = 100_000


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def _normalize(raw: list[tuple[Fraction, Fraction]], merge: bool):
    """Reduce arcs mod 1, split wrap-arounds, sort; optionally merge overlaps."""
    pieces: list[tuple[Fraction, Fraction]] = []
    full = False
    for lo, hi in raw:
        if hi <= lo:
            raise InputError(f"empty or reversed arc ({lo}, {hi})")
        if hi - lo >= 1:
            full = True
            continue
        lo_m = _mod1(lo)
        hi_m = lo_m + (hi - lo)
        if hi_m <= 1:
            pieces.append((lo_m, hi_m))
        else:
            pieces.append((lo_m, Fraction(1)))
            pieces.append((Fraction(0), hi_m - 1))
    pieces.sort()
    if merge:
        merged: list[tuple[Fraction, Fraction]] = []
        for lo, hi in pieces:
            if merged and lo < merged[-1][1]:
                merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
            else:
                merged.append((lo, hi))
        pieces = merged
    else:
        for i in range(len(pieces) - 1):
            if pieces[i][1] > pieces[i + 1][0]:
                raise InputError(f"overlapping arcs {pieces[i]} and {pieces[i + 1]}")
    return pieces, full


@dataclass(frozen=True)
class ArcSet:
    """Finite union of disjoint open arcs on R/Z; `full` marks total cover."""

    arcs: tuple[tuple[Fraction, Fraction], ...]
    full: bool = False

    @staticmethod
    def of(raw, merge: bool = False) -> "ArcSet":
        pieces, full = _normalize(
            [(Fraction(lo), Fraction(hi)) for lo, hi in raw], merge=merge
        )
        if full:
            return ArcSet(arcs=((Fraction(0), Fraction(1)),), full=True)
        return ArcSet(arcs=tuple(pieces))

    @property
    def measure(self) -> Fraction:
        if self.full:
            return Fraction(1)
        return sum((hi - lo for lo, hi in self.arcs), Fraction(0))

    def contains(self, x) -> bool:
        """Exact open-arc membership of x mod 1."""
        x = _mod1(Fraction(x))
        if self.full:
            return True  # up to a measure-zero boundary set, irrelevant here
        return any(lo < x < hi for lo, hi in self.arcs)

    def intersects(self, other: "ArcSet") -> bool:
        if not self.arcs or not other.arcs:
            return False
        if self.full or other.full:
            return True
        for lo, hi in self.arcs:
            for lo2, hi2 in other.arcs:
                if lo < hi2 and lo2 < hi:
                    return True
        return False

    def singletons(self) -> list["ArcSet"]:
        """Each arc as its own one-arc system."""
        return [ArcSet(arcs=(arc,)) for arc in self.arcs]

    def to_json(self) -> list[list[int]]:
        return [
            [lo.numerator, lo.denominator, hi.numerator, hi.denominator]
            for lo, hi in self.arcs
        ]

    @staticmethod
    def from_json(data) -> "ArcSet":
        if isinstance(data, str):
            data = json.loads(data)
        return ArcSet.of(
            [(Fraction(a, b), Fraction(c, d)) for a, b, c, d in data]
        )


OMEGA_21 = ArcSet.of([(Fraction(1, 3), Fraction(2, 3))])
OMEGA_1 = ArcSet.of([(Fraction(1, 6), Fraction(1, 3))])
OMEGA_2 = ArcSet.of([(Fraction(2, 3), Fraction(5, 6))])


def pullback(O: ArcSet, m: int) -> ArcSet:
    """Preimage of O under x -> m*x on R/Z; preserves measure."""
    if m < 1:
        raise InputError("multiplier must be >= 1")
    if m == 1:
        return O
    if O.full:
        return O
    arcs = [
        (Fraction(lo + j, m), Fraction(hi + j, m))
        for lo, hi in O.arcs
        for j in range(m)
    ]
    return ArcSet.of(arcs)


def canonical_omega(k: int, l: int, variant: int = 1) -> ArcSet:
    """Canonical maximal sum-free arc systems: (2,1) and the (2m,4m) family."""
    if (k, l) == (2, 1):
        return OMEGA_21
    if k >= 2 and k % 2 == 0 and l == 2 * k:
        m = k // 2
        base = OMEGA_1 if variant == 1 else OMEGA_2
        return pullback(base, m)
    raise InputError(
        f"no canonical arc system for (k,l)=({k},{l}); supply custom arcs"
    )


def _pair_sumset(a: ArcSet, b: ArcSet) -> ArcSet:
    if a.full or b.full:
        return ArcSet(arcs=((Fraction(0), Fraction(1)),), full=True)
    raw = [
        (lo1 + lo2, hi1 + hi2)
        for lo1, hi1 in a.arcs
        for lo2, hi2 in b.arcs
    ]
    if len(raw) > ARC_COUNT_LIMIT:
        raise ResourceLimitError(f"sumset arc count {len(raw)} exceeds {ARC_COUNT_LIMIT}")
    return ArcSet.of(raw, merge=True)


def fold_sumset(O: ArcSet, fold: int) -> ArcSet:
    """The fold-fold Minkowski sum of O with itself, reduced mod 1."""
    if fold < 1:
        raise InputError("fold must be >= 1")
    cur = O
    for _ in range(fold - 1):
        cur = _pair_sumset(cur, O)
    return cur


def is_arc_kl_sumfree(O: ArcSet, k: int, l: int) -> bool:
    """True iff the k-fold and l-fold sumsets of O are disjoint in R/Z."""
    if k < 1 or l < 1:
        raise InputError("k and l must be >= 1")
    if not O.arcs:
        return True
    return not fold_sumset(O, k).intersects(fold_sumset(O, l))
