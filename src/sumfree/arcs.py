"""Open arcs on R/Z with exact rational endpoints.

An ArcSet is the one rule for what an arc is: disjoint open intervals
(lo, hi) of exact Fractions, 0 <= lo < hi <= 1, in ascending order; a
system meant to run through 0 is written as its two pieces.  The extraction
guarantee is per interval, so sum-freeness is decided for one arc only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .errors import InputError
from .sets import check_kl


def _exact(e) -> Fraction:
    """An arc endpoint as a Fraction; InputError for a NaN, an inf or a non-number."""
    try:
        if not isinstance(e, str):
            return Fraction(e)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"an arc endpoint is a finite number, got {e!r}")


@dataclass(frozen=True)
class ArcSet:
    """Finite union of disjoint open arcs on R/Z."""

    arcs: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        end = Fraction(0)
        for lo, hi in self.arcs:
            if type(lo) is not Fraction or type(hi) is not Fraction or not end <= lo < hi <= 1:
                raise InputError(f"arcs need 0 <= lo < hi <= 1, disjoint, ascending: {self.arcs}")
            end = hi

    @staticmethod
    def of(raw) -> "ArcSet":
        """The arcs (lo, hi) of raw as exact Fractions, in ascending order."""
        try:
            pairs = [(lo, hi) for lo, hi in raw]
        except (TypeError, ValueError) as exc:
            raise InputError(f"arcs are (lo, hi) pairs, got {raw!r}") from exc
        return ArcSet(arcs=tuple(sorted((_exact(lo), _exact(hi)) for lo, hi in pairs)))

    @property
    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.arcs), Fraction(0))

    def singletons(self) -> list["ArcSet"]:
        """Each arc as its own one-arc system."""
        return [ArcSet(arcs=(arc,)) for arc in self.arcs]

    def to_json(self) -> list[list[int]]:
        return [[*lo.as_integer_ratio(), *hi.as_integer_ratio()] for lo, hi in self.arcs]

    @staticmethod
    def from_json(data) -> "ArcSet":
        if not isinstance(data, list) or any(not isinstance(a, list) or len(a) != 4 for a in data):
            raise InputError(f"arcs are [lo_num, lo_den, hi_num, hi_den] lists, got {data!r}")
        return ArcSet.of([(rational(a[:2]), rational(a[2:])) for a in data])


def rational(pair) -> Fraction:
    """The rational JSON spells [numerator, denominator], two ints, or InputError."""
    ints = isinstance(pair, list) and len(pair) == 2 and all(type(v) is int for v in pair)
    if not ints or not pair[1]:
        raise InputError(f"a rational is [numerator, denominator], two ints, got {pair!r}")
    return Fraction(*pair)


def pullback(O: ArcSet, m: int) -> ArcSet:
    """Preimage of O under x -> m*x on R/Z; preserves measure."""
    if m < 1:
        raise InputError("multiplier must be >= 1")
    arcs = [(Fraction(lo + j, m), Fraction(hi + j, m)) for lo, hi in O.arcs for j in range(m)]
    return ArcSet.of(arcs)


def canonical_omega(k: int, l: int) -> ArcSet:
    """The longest (k,l)-sum-free arcs, for k, l >= 1 and k != l.

    An arc I = (a, a + lam) has |kI| + |lI| = (k + l)*lam, so lam <= 1/s for
    s = k + l; at lam = 1/s the open arcs kI and lI are disjoint iff they tile
    the circle, iff (k - l)*a = l/s mod 1.  That is the pullback of
    (min(k,l)/s, max(k,l)/s) by d = |k - l|, whose arc j is the mirror of arc
    d-1-j under x -> -x: for odd d the middle arc is symmetric about 1/2, and
    no arc contains 0.  (2,1) gives (1/3, 2/3), (2,4) Omega_1 and Omega_2.
    """
    check_kl(k, l)
    s = k + l
    return pullback(ArcSet.of([(Fraction(min(k, l), s), Fraction(max(k, l), s))]), abs(k - l))


OMEGA_21 = canonical_omega(2, 1)
OMEGA_1, OMEGA_2 = canonical_omega(2, 4).singletons()


def is_arc_kl_sumfree(O: ArcSet, k: int, l: int) -> bool:
    """True iff the k-fold and l-fold sumsets of one open arc O = (lo, hi)
    are disjoint mod 1: they meet iff some integer lies in the open interval
    (k*lo - l*hi, k*hi - l*lo)."""
    if k < 1 or l < 1:
        raise InputError("k and l must be >= 1")
    if len(O.arcs) != 1:
        raise InputError(f"sum-freeness is decided for one arc, not {len(O.arcs)}")
    ((lo, hi),) = O.arcs
    return floor(k * lo - l * hi) + 1 >= k * hi - l * lo
