"""The dilation machine: exact counting step functions, L1 norms, and
certified sum-free subset extraction.

For a set A and an arc system O, x -> |{n in A : n*x mod 1 in O}| is a step
function whose breakpoints are the points (e + j)/n for endpoints e of O.
Breakpoints are integer pairs p/q and levels are integers, both in numpy
arrays, and the breakpoints are ordered exactly; maximization happens at
piece midpoints, where the function is constant, so every result is exact.

Memory budget: errors.MEMORY_BUDGET = 4 GiB for a sweep and an exact L1 norm
of its result.  The measured peak is BYTES_PER_BREAKPOINT = 80 bytes per int64
breakpoint (BREAKPOINT_CAP, about 53.7M, counts 2*sum(A) per arc), and at
most 256 plus one byte per bit of the largest denominator on the Python ints
used where n*d exceeds INT64_DEN.  A sweep over the budget raises
ResourceLimitError before allocating.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt, lcm

import numpy as np

from .arcs import ArcSet, canonical_omega, OMEGA_21
from .errors import MEMORY_BUDGET, CertificationError, InputError, ResourceLimitError
from .sets import IntegerSet, is_kl_sumfree

BYTES_PER_BREAKPOINT = 80
BREAKPOINT_CAP = MEMORY_BUDGET // BYTES_PER_BREAKPOINT
# denominators <= INT64_DEN keep the cross products p1*q2 below 2**63
INT64_DEN = isqrt(2**63 - 1)


def _exact_order(p: np.ndarray, q: np.ndarray):
    """(order, p[order], q[order]) with p/q in exact ascending order.

    The float keys are p/q correctly rounded (int64 entries are exact
    doubles, as q <= INT64_DEN < 2**53; Python ints divide with one rounding),
    and correct rounding is monotone: only a run of equal keys can be out of
    order after the float sort, and each such run is re-sorted exactly.
    """
    key = np.asarray(p / q, dtype=np.float64)
    order = np.argsort(key)
    key, p, q = key[order], p[order], q[order]
    bad = np.flatnonzero(p[:-1] * q[1:] > p[1:] * q[:-1])
    for s in np.unique(np.searchsorted(key, key[bad])):
        e = np.searchsorted(key, key[s], side="right")
        run = sorted(range(s, e), key=lambda i: Fraction(int(p[i]), int(q[i])))
        order[s:e], p[s:e], q[s:e] = order[run], p[run], q[run]
    return order, p, q


@dataclass(frozen=True, eq=False)
class PiecewiseConstantFn:
    """Step function on [0,1): scale*levels[i] + shift on the open piece from
    breakpoints[i] to breakpoints[i+1], the last piece ending at 1.

    `breakpoints` holds one (numerator, denominator) row per piece, strictly
    ascending from 0; `levels` holds one integer per piece.  Both are int64,
    or Python ints where int64 could overflow.  `scale` is positive.
    """

    breakpoints: np.ndarray
    levels: np.ndarray
    scale: Fraction = Fraction(1)
    shift: Fraction = Fraction(0)

    def __post_init__(self):
        if len(self.levels) == 0 or self.breakpoints.shape != (len(self.levels), 2):
            raise InputError("need one (numerator, denominator) row per piece")

    def _point(self, i: int) -> Fraction:
        """Breakpoint i, or 1 for i = len(levels), where the last piece ends."""
        return Fraction(*map(int, self.breakpoints[i])) if i < len(self.levels) else Fraction(1)

    def _value(self, i: int) -> Fraction:
        return self.scale * int(self.levels[i]) + self.shift

    def _integrate(self, absolute: bool) -> Fraction:
        """Exact integral of the values, or of their absolute values.

        With value u_i/D on piece i and breakpoints b_0 = 0 < b_1 < ... the
        integral telescopes to (u_last + sum_{i>0} (u_{i-1} - u_i) b_i) / D;
        the b_i terms are summed in integers per denominator, then over the
        lcm of the denominators.
        """
        D = lcm(self.scale.denominator, self.shift.denominator)
        a, b = int(self.scale * D), int(self.shift * D)
        p, q = self.breakpoints[1:, 0], self.breakpoints[1:, 1]
        u_max = abs(a) * int(np.abs(self.levels).max()) + abs(b)
        wide = 2 * u_max * int(self.breakpoints[:, 1].max()) * len(self.levels) >= 2**63
        u = self.levels.astype(object if wide else np.int64) * a + b
        u = np.abs(u) if absolute else u
        c = u[:-1] - u[1:]
        nz = np.flatnonzero(c)
        by_q = nz[np.argsort(q[nz])]
        q = q[by_q]
        starts = np.flatnonzero(np.r_[True, q[1:] != q[:-1]]) if len(q) else by_q
        sums = np.add.reduceat(c[by_q] * p[by_q], starts)
        dens = [int(d) for d in q[starts]]
        L = lcm(*dens)
        total = int(u[-1]) * L + sum(int(s) * (L // d) for s, d in zip(sums, dens))
        return Fraction(total, L * D)

    def integral(self) -> Fraction:
        return self._integrate(absolute=False)

    def eval(self, x) -> Fraction:
        """Value at x mod 1; x must not be a breakpoint."""
        x = Fraction(x)
        a, b = x.numerator % x.denominator, x.denominator

        def side(i: int) -> int:
            # sign of breakpoint i minus a/b, by an integer cross product
            d = int(self.breakpoints[i, 0]) * b - a * int(self.breakpoints[i, 1])
            return (d > 0) - (d < 0)

        i = bisect_right(range(len(self.levels)), 0, key=side) - 1
        if side(i) == 0:
            raise InputError(f"{Fraction(a, b)} is a breakpoint")
        return self._value(i)

    def shift_const(self, c: Fraction) -> "PiecewiseConstantFn":
        return replace(self, shift=self.shift + c)

    def max_with_witness(self) -> tuple[Fraction, Fraction]:
        """(max value, lowest midpoint of a maximizing piece)."""
        i = int(np.argmax(self.levels))
        return self._value(i), (self._point(i) + self._point(i + 1)) / 2


def exact_l1(g: PiecewiseConstantFn) -> Fraction:
    return g._integrate(absolute=True)


def orbit_subset(A: IntegerSet, O: ArcSet, x) -> IntegerSet:
    """{n in A : n*x mod 1 in O}, exact."""
    x = Fraction(x)
    members = [n for n in A if O.contains(n * x)]
    return IntegerSet(tuple(members))


def weighted_count_function(A: IntegerSet, weighted_arcs) -> PiecewiseConstantFn:
    """Exact step function sum_{n in A} sum_{arcs} weight * 1_arc(n*x).

    Arc edge e = a/d pulled back by n gives the breakpoints (a + j*d)/(n*d),
    j < n, each carrying the edge's signed weight.  Equal breakpoints merge,
    but stay a piece boundary when their weights cancel: the function dips
    there, so no witness midpoint may land on one.
    """
    arcs = [(Fraction(lo), Fraction(hi), Fraction(w)) for lo, hi, w in weighted_arcs]
    edges = [e for lo, hi, _ in arcs for e in (lo, hi)]
    total = len(edges) * sum(A)
    q_max = max(A, default=1) * max((e.denominator for e in edges), default=1)
    wide = q_max > INT64_DEN
    if total * (256 + q_max.bit_length() if wide else BYTES_PER_BREAKPOINT) > MEMORY_BUDGET:
        raise ResourceLimitError(f"{total} breakpoints exceed the {MEMORY_BUDGET}-byte budget")
    D = lcm(*(w.denominator for *_, w in arcs))
    weights = [int(s * w * D) for *_, w in arcs for s in (1, -1)]
    sizes, kind = np.array(A.elements, dtype=np.int64), object if wide else np.int64
    n = np.repeat(sizes, sizes).astype(kind, copy=False)
    j = (np.arange(len(n)) - np.repeat(np.cumsum(sizes) - sizes, sizes)).astype(kind, copy=False)
    # a zero-weight event at 0 makes 0 the first breakpoint
    p = np.concatenate([[0]] + [e.numerator + j * e.denominator for e in edges])
    q = np.concatenate([[1]] + [n * e.denominator for e in edges])
    level_type = np.int64 if A.N * sum(map(abs, weights)) < 2**62 else object
    w = np.repeat(np.array([0] + weights, level_type), [1] + [len(n)] * len(edges))
    del n, j
    # an edge at 1 sits at 0 of the circle; the level entering 0 from the
    # left is the weight the edges at 1 close
    at_one = np.flatnonzero(p == q)
    entering = -w[at_one].sum()
    p[at_one] = 0
    order, p, q = _exact_order(p, q)
    starts = np.flatnonzero(np.r_[True, p[1:] * q[:-1] != p[:-1] * q[1:]])
    levels = entering + np.cumsum(np.add.reduceat(w[order], starts))
    return PiecewiseConstantFn(np.stack([p[starts], q[starts]], axis=1), levels, Fraction(1, D))


def count_function(A: IntegerSet, O: ArcSet) -> PiecewiseConstantFn:
    """x -> |A_x| as an exact step function."""
    return weighted_count_function(A, [(lo, hi, 1) for lo, hi in O.arcs])


def maximize_count(A: IntegerSet, O: ArcSet) -> tuple[Fraction, int]:
    """Global maximum of |A_x| over x, with the lowest maximizing midpoint."""
    f = count_function(A, O)
    best, x_star = f.max_with_witness()
    return x_star, int(best)


def balanced_function(A: IntegerSet, O: ArcSet) -> PiecewiseConstantFn:
    """count_function minus its mean N*measure(O); integrates to zero."""
    return count_function(A, O).shift_const(-A.N * O.measure)


@dataclass(frozen=True)
class ExtractionCertificate:
    x_star: Fraction
    subset: IntegerSet
    count: int
    arc_used: ArcSet
    k: int
    l: int
    sumfree_checked: bool
    surplus: Fraction

    def to_json(self) -> dict:
        return {
            "x_star": [self.x_star.numerator, self.x_star.denominator],
            "subset": list(self.subset.elements),
            "count": self.count,
            "arc_used": self.arc_used.to_json(),
            "k": self.k,
            "l": self.l,
            "sumfree_checked": self.sumfree_checked,
            "surplus": [self.surplus.numerator, self.surplus.denominator],
        }

    @staticmethod
    def from_json(data) -> "ExtractionCertificate":
        if isinstance(data, str):
            data = json.loads(data)
        return ExtractionCertificate(
            x_star=Fraction(*data["x_star"]),
            subset=IntegerSet.of(data["subset"]),
            count=data["count"],
            arc_used=ArcSet.from_json(data["arc_used"]),
            k=data["k"],
            l=data["l"],
            sumfree_checked=data["sumfree_checked"],
            surplus=Fraction(*data["surplus"]),
        )

    def reverify(self, A: IntegerSet) -> bool:
        """Recompute the orbit subset and re-run the sum-freeness check."""
        sub = orbit_subset(A, self.arc_used, self.x_star)
        return (
            sub.elements == self.subset.elements
            and len(sub) == self.count
            and is_kl_sumfree(sub, self.k, self.l)
        )


def candidate_arcs(k: int, l: int) -> list[ArcSet]:
    """Single-interval candidates for extraction.

    For (2,1) this is the arc (1/3, 2/3).  For (2m,4m) the candidates are the
    individual intervals of the two canonical pullback systems.  The guarantee
    is per interval, which is all arcs.is_arc_kl_sumfree decides: the union
    of a system generally is not (2m,4m)-sum-free.
    Pulling (1/3, 2/3) back by 2m gives the same intervals as pulling
    Omega_1 u Omega_2 back by m, so the rescaling route through the (2,1) arc
    adds no candidate.
    """
    if (k, l) == (2, 1):
        return [OMEGA_21]
    candidates = []
    for variant in (1, 2):
        candidates.extend(canonical_omega(k, l, variant).singletons())
    return candidates


def extract_certified(A: IntegerSet, k: int, l: int) -> ExtractionCertificate:
    """Best certified (k,l)-sum-free subset over the candidate arcs."""
    best = None
    for O in candidate_arcs(k, l):
        x_star, count = maximize_count(A, O)
        if best is None or count > best[1]:
            best = (x_star, count, O)
    x_star, count, O = best
    subset = orbit_subset(A, O, x_star)
    if len(subset) != count:
        raise CertificationError("orbit subset does not match the maximized count")
    if len(subset) > 0 and not is_kl_sumfree(subset, k, l):
        raise CertificationError(
            f"extracted subset {subset.elements} is not ({k},{l})-sum-free"
        )
    return ExtractionCertificate(
        x_star=x_star,
        subset=subset,
        count=count,
        arc_used=O,
        k=k,
        l=l,
        sumfree_checked=True,
        surplus=count - Fraction(A.N, k + l),
    )
