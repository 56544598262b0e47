"""Closed-form Fourier references for the tests, in exact arithmetic.

The library decides the sieve identities by integer tables (one unit per
identity); these closed forms are the independent check on those tables.
Scalars live in the ring Q(i, sqrt3), and every series is in units of 1/pi.

The balanced functions are
    f  = 1_(1/3,2/3) - 1/3      fhat(n)  = (-1)^n sin(n pi/3) / (pi n)
    f_t = 1_{Omega_t} - 1/6     fhat_t(n) = e(-(2t-1)n/4) sin(n pi/6) / (pi n)
with Omega_1 = (1/6,1/3), Omega_2 = (2/3,5/6), and Gamma = f1 + f2 (which
coincides with x -> f(2x)), Lambda = f1 - f2.

After the closed forms come the arithmetic by its definitions, where the
library reads everything off one numpy table: chi mod 3, trial-division
factorization and the Mobius function, the smooth class N2 (and its odd
members) as sorted lists of squarefree products, the strict roughness
predicate of N1 (every prime factor > Q), the eta weights, 1/2 on N1 and
-3/2 on 3*N1, and the rough integers and the sec2_f index set as lists.

Then the object views of what the library keeps as arrays.  A
PiecewiseConstantFn holds a whole step function from dilation._sweep, with
exact values, integral, L1 norm (exact_l1) and maximum; count_function,
balanced_function and weighted_count_function build it.  A SieveTable holds
one side of a sieve identity as sorted (F, numerator) rows, built by
sieve_lhs and sieve_rhs from the library's private side builders, and
SieveTable.defect names the witness of two differing sides.

Seven references sit at the end: the orbit subset in Fractions (by in_arcs,
the open-arc membership eval_exact uses too), extraction over every longest
sum-free arc a grid search finds, the L1 report with each of G_A, L_A, F_1
and F_2 swept on its own arcs, the lacunary rows with one backward chain
per size and np.exp for every e(y), two oracle searches with every sum
bitset rebuilt from its whole subset: the plain branch and bound over every
remaining element, and the forward-checked one over the still-admitted
candidates, and the Phi build with each transform on one block's M-array
at a time, which the batched build must match bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cache
from fractions import Fraction
from itertools import compress

import numpy as np

from sumfree import dilation, mps, sieve
from sumfree.arcs import OMEGA_1, OMEGA_2, OMEGA_21, ArcSet, is_arc_kl_sumfree
from sumfree.arith import SieveContext, primes_upto
from sumfree.dilation import ExtractionCertificate, maximize_count
from sumfree.errors import InputError
from sumfree.fourier import sup_factor
from sumfree.lp import GRID_DEGREE_LIMIT, exp_sum_l1
from sumfree.sets import IntegerSet, fold_sums, is_kl_sumfree

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class ExactScalar:
    """(a + b*i) + (c + d*i)*sqrt(3), all components exact rationals."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)
    c: Fraction = Fraction(0)
    d: Fraction = Fraction(0)

    @staticmethod
    def of(x) -> "ExactScalar":
        return ExactScalar(Fraction(x))

    @staticmethod
    def imag(x) -> "ExactScalar":
        return ExactScalar(b=Fraction(x))

    @staticmethod
    def sqrt3(x) -> "ExactScalar":
        return ExactScalar(c=Fraction(x))

    def __add__(self, o: "ExactScalar") -> "ExactScalar":
        return ExactScalar(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, o: "ExactScalar") -> "ExactScalar":
        return self + -o

    def __mul__(self, o: "ExactScalar") -> "ExactScalar":
        # (z1 + w1*s)(z2 + w2*s) = (z1 z2 + 3 w1 w2) + (z1 w2 + w1 z2) s,
        # with complex parts z = a + bi, w = c + di and s = sqrt(3).
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        ra = a1 * a2 - b1 * b2 + 3 * (c1 * c2 - d1 * d2)
        rb = a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2)
        rc = a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2
        rd = a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2
        return ExactScalar(ra, rb, rc, rd)

    def scale(self, r) -> "ExactScalar":
        r = Fraction(r)
        return ExactScalar(self.a * r, self.b * r, self.c * r, self.d * r)

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def to_complex(self) -> complex:
        return complex(
            float(self.a) + _SQRT3 * float(self.c),
            float(self.b) + _SQRT3 * float(self.d),
        )

    def __str__(self) -> str:
        parts = []
        if self.a:
            parts.append(str(self.a))
        if self.b:
            parts.append(f"{self.b}i")
        if self.c:
            parts.append(f"{self.c}*sqrt3")
        if self.d:
            parts.append(f"{self.d}i*sqrt3")
        return " + ".join(parts) if parts else "0"


ZERO = ExactScalar()
ONE = ExactScalar.of(1)
# the scalar behind each sieve table's unit suffix
UNITS = {"*sqrt3": ExactScalar.sqrt3(1), "i": ExactScalar.imag(1), "": ONE}

# sin(n*pi/6), indexed by n mod 12.
_SIN_PI6 = [
    ZERO,
    ExactScalar.of(Fraction(1, 2)),
    ExactScalar.sqrt3(Fraction(1, 2)),
    ONE,
    ExactScalar.sqrt3(Fraction(1, 2)),
    ExactScalar.of(Fraction(1, 2)),
    ZERO,
    ExactScalar.of(Fraction(-1, 2)),
    ExactScalar.sqrt3(Fraction(-1, 2)),
    -ONE,
    ExactScalar.sqrt3(Fraction(-1, 2)),
    ExactScalar.of(Fraction(-1, 2)),
]


def sin_pi6(n: int) -> ExactScalar:
    """Exact sin(n*pi/6)."""
    return _SIN_PI6[n % 12]


def sin_pi3(n: int) -> ExactScalar:
    """Exact sin(n*pi/3)."""
    return _SIN_PI6[(2 * n) % 12]


def e_quarter(n: int) -> ExactScalar:
    """Exact e(n/4) = exp(2*pi*i*n/4) = i**n."""
    return (ONE, ExactScalar.imag(1), -ONE, ExactScalar.imag(-1))[n % 4]


def fhat(n: int) -> ExactScalar:
    """Coefficient of e(nx) in f, in units of 1/pi; zero at n = 0."""
    if n == 0:
        return ZERO
    return sin_pi3(n).scale(Fraction((-1) ** (n % 2), n))


def fhat_t(n: int, t: int) -> ExactScalar:
    """Coefficient of e(nx) in f_t (t = 1 or 2), in units of 1/pi; zero at
    n = 0."""
    if n == 0:
        return ZERO
    return (e_quarter(-(2 * t - 1) * n) * sin_pi6(n)).scale(Fraction(1, n))


def lambda_hat(n: int) -> ExactScalar:
    return fhat_t(n, 1) - fhat_t(n, 2)


_HATS = {
    "f": fhat,
    "f1": lambda n: fhat_t(n, 1),
    "f2": lambda n: fhat_t(n, 2),
    "Gamma": lambda n: fhat_t(n, 1) + fhat_t(n, 2),
    "Lambda": lambda_hat,
}


def series_truncated(kind: str, X: int) -> dict[int, ExactScalar]:
    """Nonzero coefficients {n: c_n} of f / f1 / f2 / Gamma / Lambda for
    |n| <= X, in units of 1/pi."""
    coeffs = {n: _HATS[kind](n) for n in range(-X, X + 1)}
    return {n: c for n, c in coeffs.items() if not c.is_zero()}


def to_complex(series: dict[int, ExactScalar]) -> dict[int, complex]:
    """The series as floats, the 1/pi applied."""
    return {n: c.to_complex() / math.pi for n, c in series.items()}


_REGIONS = {
    "f": (OMEGA_21, Fraction(1, 3)),
    "f1": (OMEGA_1, Fraction(1, 6)),
    "f2": (OMEGA_2, Fraction(1, 6)),
}


def in_arcs(O: ArcSet, x) -> bool:
    """Open-arc membership of x mod 1, by Fraction comparisons."""
    x = Fraction(x) % 1
    return any(lo < x < hi for lo, hi in O.arcs)


def eval_exact(kind: str, x) -> Fraction:
    """Indicator-based exact value; raises InputError at jump points."""
    x = Fraction(x) % 1
    if kind == "Gamma":
        return eval_exact("f1", x) + eval_exact("f2", x)
    if kind == "Lambda":
        return eval_exact("f1", x) - eval_exact("f2", x)
    O, mean = _REGIONS[kind]
    for lo, hi in O.arcs:
        if x == lo % 1 or x == hi % 1:
            raise InputError(f"{x} is a jump point of {kind}")
    return (1 if in_arcs(O, x) else 0) - mean


def chi3(n: int) -> int:
    """Multiplicative character mod 3: 1, -1, 0 for n = 1, 2, 0 (mod 3)."""
    r = n % 3
    return 0 if r == 0 else (1 if r == 1 else -1)


def factorize(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization, (prime, exponent) pairs in order."""
    if n < 1:
        raise InputError(f"positive integer required, got {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def mobius(n: int) -> int:
    if n < 1:
        raise InputError(f"positive integer required, got {n}")
    if n == 1:
        return 1
    m = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        m = -m
    return m


def squarefree_smooth(primes: list[int], limit: int) -> list[int]:
    """Sorted squarefree products of the given primes, capped at `limit`."""
    out = [1]
    for p in primes:
        out.extend([v * p for v in out if v * p <= limit])
    return sorted(v for v in out if v <= limit)


def smooth_squarefree(ctx: SieveContext, limit: int) -> list[int]:
    """N2 intersected with [1, limit]: squarefree with all prime factors <= Q."""
    return squarefree_smooth(primes_upto(ctx.Q), limit)


def odd_smooth_squarefree(ctx: SieveContext, limit: int) -> list[int]:
    """Odd members of N2 up to `limit` (the index set of the Lambda sieve)."""
    return squarefree_smooth([p for p in primes_upto(ctx.Q) if p > 2], limit)


def is_strictly_rough(n: int, ctx: SieveContext) -> bool:
    """True iff every prime factor of n is > Q (the sieve-complement set N1)."""
    if n < 1:
        raise InputError(f"positive integer required, got {n}")
    return all(p > ctx.Q for p, _ in factorize(n))


def eta(n: int, ctx: SieveContext) -> Fraction:
    """The sieved-series weight: 1/2 on N1, -3/2 on 3*N1."""
    if n >= 1 and is_strictly_rough(n, ctx):
        return Fraction(1, 2)
    if n % 3 == 0 and is_strictly_rough(n // 3, ctx):
        return Fraction(-3, 2)
    raise InputError(f"{n} is in neither N1 nor 3*N1 for Q={ctx.Q}")


def rough_integers(limit: int, bound: int) -> list[int]:
    """Integers in [1, limit] all of whose prime factors exceed `bound`.

    With bound = Q this is N1 up to limit: exactly the frequencies surviving
    the Mobius sieve over N2, so 1 is a member and N1 meets the Q-smooth
    numbers only in {1}.
    """
    if limit < 1:
        return []
    marks = bytearray([1]) * (limit + 1)
    for p in primes_upto(min(bound, limit)):
        marks[p::p] = bytearray(len(marks[p::p]))
    return list(compress(range(1, limit + 1), marks[1:]))


def sec2_sieve_set(ctx: SieveContext, limit: int) -> list[int]:
    """Squarefree integers generated by primes strictly below P, up to limit."""
    return squarefree_smooth([p for p in primes_upto(min(ctx.P, limit)) if p < ctx.P], limit)


@dataclass(frozen=True, eq=False)
class PiecewiseConstantFn:
    """Step function on [0,1): levels[i] + shift on the open piece from
    breakpoints[i] to breakpoints[i+1], the last piece ending at 1.

    `breakpoints` holds one (numerator, denominator) row per piece, strictly
    ascending from 0; `levels` holds one integer per piece.  Both are int64,
    or Python ints where int64 could overflow.
    """

    breakpoints: np.ndarray
    levels: np.ndarray
    shift: Fraction = Fraction(0)

    def __post_init__(self):
        if len(self.levels) == 0 or self.breakpoints.shape != (len(self.levels), 2):
            raise InputError("need one (numerator, denominator) row per piece")

    def _point(self, i: int) -> Fraction:
        """Breakpoint i, or 1 for i = len(levels), where the last piece ends."""
        return Fraction(*map(int, self.breakpoints[i])) if i < len(self.levels) else Fraction(1)

    def _value(self, i: int) -> Fraction:
        return int(self.levels[i]) + self.shift

    def _integrate(self, absolute: bool) -> Fraction:
        """Exact integral of the values, or of their absolute values.

        With value u_i/D on piece i and breakpoints b_0 = 0 < b_1 < ... the
        integral telescopes to (u_last + sum_{i>0} (u_{i-1} - u_i) b_i) / D;
        the b_i terms are summed in integers per denominator, then over the
        lcm of the denominators.
        """
        b, D = self.shift.as_integer_ratio()
        p, q = self.breakpoints[1:, 0], self.breakpoints[1:, 1]
        u_max = D * int(np.abs(self.levels).max()) + abs(b)
        wide = 2 * u_max * int(self.breakpoints[:, 1].max()) * len(self.levels) >= 2**63
        u = self.levels.astype(object if wide else np.int64) * D + b
        u = np.abs(u) if absolute else u
        c = u[:-1] - u[1:]
        nz = np.flatnonzero(c)
        by_q = nz[np.argsort(q[nz])]
        q = q[by_q]
        starts = np.flatnonzero(np.r_[True, q[1:] != q[:-1]]) if len(q) else by_q
        sums = np.add.reduceat(c[by_q] * p[by_q], starts)
        dens = [int(d) for d in q[starts]]
        L = math.lcm(*dens)
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


def weighted_count_function(A: IntegerSet, weighted) -> PiecewiseConstantFn:
    """Exact step function sum_{n in A} sum_{(O, w) in weighted} w * 1_O(n*x),
    for ArcSets O and integer weights w, swept over all of [0, 1]."""
    edges = dilation._edges(weighted)
    p, q, levels, _ = dilation._sweep(A, edges, np.zeros(1, np.int64), np.ones(1, np.int64), 1)
    return PiecewiseConstantFn(np.stack([p, q], axis=1), levels)


def count_function(A: IntegerSet, O: ArcSet) -> PiecewiseConstantFn:
    """x -> |A_x| as an exact step function."""
    return weighted_count_function(A, [(O, 1)])


def balanced_function(A: IntegerSet, O: ArcSet) -> PiecewiseConstantFn:
    """count_function minus its mean N*measure(O); integrates to zero."""
    return count_function(A, O).shift_const(-A.N * O.measure)


@dataclass(frozen=True, eq=False)
class SieveTable:
    """pi**pi_exp * sum_F unit * num(F)/(2F) e(Fx), held as a sorted int64
    array of (F, num) rows, one per nonzero coefficient; the unit is sqrt3,
    i or 1, named by its printed suffix."""

    pi_exp: int
    unit: str
    coeffs: np.ndarray

    def coeff(self, n: int) -> Fraction:
        """The coefficient of e(nx) as a rational multiple of the unit."""
        i = int(np.searchsorted(self.coeffs[:, 0], n))
        if i == len(self.coeffs) or self.coeffs[i, 0] != n:
            return Fraction(0)
        return Fraction(int(self.coeffs[i, 1]), 2 * n)

    def defect(self, other: "SieveTable") -> tuple[Fraction, int | None]:
        """(self - other at the witness as a multiple of the unit, witness):
        the witness is the differing frequency of largest |coefficient|;
        (0, None) if equal."""
        if (self.pi_exp, self.unit) != (other.pi_exp, other.unit):
            raise InputError("tables over different prefactors or units")
        if np.array_equal(self.coeffs, other.coeffs):
            return Fraction(0), None
        diff = dict(self.coeffs.tolist())
        for F, num in other.coeffs.tolist():
            diff[F] = diff.get(F, 0) - num
        witness, worst = None, 0
        for F, d in sorted(diff.items()):
            # |d/F| > |worst/witness|, by an integer cross product
            if d and (witness is None or abs(d * witness) > abs(worst * F)):
                witness, worst = F, d
        return (Fraction(0) if witness is None else Fraction(worst, 2 * witness)), witness


def _table(identity_id: str, num: np.ndarray) -> SieveTable:
    """Sorted rows of a dense table whose row 0 holds +F and row 1 holds -F."""
    neg, pos = np.flatnonzero(num[1])[::-1], np.flatnonzero(num[0])
    rows = np.empty((len(neg) + len(pos), 2), np.int64)
    rows[: len(neg), 0], rows[: len(neg), 1] = -neg, num[1, neg]
    rows[len(neg) :, 0], rows[len(neg) :, 1] = pos, num[0, pos]
    return SieveTable(0 if identity_id == "final" else -1, sieve._UNIT[identity_id], rows)


def sieve_lhs(identity_id: str, A: IntegerSet, ctx: SieveContext, X: int) -> SieveTable:
    """The sieved sum (the 'hard' side of each identity) as a table: the
    singleton table S dilated onto each m in A."""
    sieve._check(identity_id, X)
    num = np.zeros((2, X + 1), np.int64)
    sieve._lhs_side(identity_id, A, X, sieve._arith(identity_id, A, ctx, X), num, 1)
    return _table(identity_id, num)


def sieve_rhs(identity_id: str, A: IntegerSet, ctx: SieveContext, X: int) -> SieveTable:
    """Each identity's closed-form (sieved-out) side as a table: numerators
    eps(m)*d*v(n) at +-d*n for d = scale*m and rough n."""
    sieve._check(identity_id, X)
    num = np.zeros((2, X + 1), np.int64)
    sieve._rhs_side(identity_id, A, X, sieve._arith(identity_id, A, ctx, X), num, 1)
    return _table(identity_id, num)


def orbit_subset_fractions(A: IntegerSet, O: ArcSet, x) -> IntegerSet:
    """{n in A : n*x mod 1 in O}, one Fraction per element."""
    x = Fraction(x)
    return IntegerSet(tuple(n for n in A if in_arcs(O, n * x)))


def longest_sumfree_arcs(k: int, l: int) -> list[ArcSet]:
    """Every arc (a, a + 1/s) in [0, 1], s = k + l, with a in (1/(3*s*d))Z
    for d = |k - l|, that is_arc_kl_sumfree accepts, in ascending order."""
    s, d = k + l, abs(k - l)
    grid = 3 * s * d  # the arc's length 1/s is 3*d grid steps
    arcs = (ArcSet.of([(Fraction(i, grid), Fraction(i + 3 * d, grid))])
            for i in range(grid - 3 * d + 1))
    return [O for O in arcs if is_arc_kl_sumfree(O, k, l)]


def extract_every_arc(A: IntegerSet, k: int, l: int) -> ExtractionCertificate:
    """Extraction over every arc of longest_sumfree_arcs(k, l), keeping the
    first strict maximum."""
    best = None
    for O in longest_sumfree_arcs(k, l):
        x_star, count = maximize_count(A, O)
        if best is None or count > best[1]:
            best = (x_star, count, O)
    x_star, count, O = best
    subset = orbit_subset_fractions(A, O, x_star)
    assert len(subset) == count and is_kl_sumfree(subset, k, l)
    return ExtractionCertificate(
        x_star, subset, count, O, k, l, True, count - Fraction(A.N, k + l)
    )


def l1_report_four_sweeps(A: IntegerSet, ctx: SieveContext) -> dict:
    """sieve.l1_lower_report computed the long way: G_A = F_1 + F_2 and
    L_A = F_1 - F_2 swept on both systems, F_1 and F_2 on their own, and the
    winner the F_t of larger L1 norm."""
    arcs1, arcs2, arcs2_neg = [(OMEGA_1, 1)], [(OMEGA_2, 1)], [(OMEGA_2, -1)]
    N = A.N
    G = weighted_count_function(A, arcs1 + arcs2).shift_const(Fraction(-N, 3))
    L = weighted_count_function(A, arcs1 + arcs2_neg)
    F1 = weighted_count_function(A, arcs1).shift_const(Fraction(-N, 6))
    F2 = weighted_count_function(A, arcs2).shift_const(Fraction(-N, 6))
    norms = {"G": exact_l1(G), "L": exact_l1(L), "F1": exact_l1(F1), "F2": exact_l1(F2)}
    winner = "F1" if norms["F1"] >= norms["F2"] else "F2"
    max_val, x_at = (F1 if winner == "F1" else F2).max_with_witness()
    return {
        "N": A.N,
        "Q": ctx.Q,
        "l1": {k: list(v.as_integer_ratio()) for k, v in norms.items()},
        "max_l1_GL": list(max(norms["G"], norms["L"]).as_integer_ratio()),
        "winner": winner,
        "winner_max": list(max_val.as_integer_ratio()),
        "winner_argmax": list(x_at.as_integer_ratio()),
        "max_ge_half_l1": max_val >= norms[winner] / 2,
    }


@cache
def triadic_l1_own_chain(exponents: int, samples: int = 200_000, seed: int = 0):
    """(mean, 3-sigma bar) of ||sum_{j<exponents} e(3^j x)||_1 from a backward
    chain of its own, each e(y) by np.exp (cached: families share sizes)."""
    rng = np.random.default_rng(seed)
    y = rng.random(samples)
    total = np.zeros(samples, dtype=complex)
    for _ in range(exponents):
        total += np.exp(2j * math.pi * y)
        y = (y + rng.integers(0, 3, samples)) / 3.0
    vals = np.abs(total)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1)) / math.sqrt(samples)
    return mean, 3 * stderr


def lacunary_rows_per_chain(sizes: tuple[int, ...], seed: int = 0) -> list[dict]:
    """lacunary_l1_diagnostic's rows with one chain per sampled size."""
    rows = []
    for n in sizes:
        if 3 ** (n - 1) > GRID_DEGREE_LIMIT:
            val, bar = triadic_l1_own_chain(n, seed=seed)
        else:
            val, bar = exp_sum_l1(IntegerSet.of([3**j for j in range(n)]))
        rows.append({"N": n, "l1": val, "l1_error": bar})
    return rows


def max_sumfree_rebuild(A: IntegerSet, k: int, l: int) -> tuple:
    """(best_size, witness, explored) of the oracle's branch and bound, each
    candidate's k-fold and l-fold sum bitsets rebuilt from scratch."""
    elems = sorted(A.elements, reverse=True)
    n = len(elems)
    best = [0, ()]
    explored = 0

    def dfs(i: int, chosen: tuple):
        nonlocal explored
        explored += 1
        if len(chosen) + (n - i) <= best[0]:
            return
        if i == n:
            if len(chosen) > best[0]:
                best[:] = len(chosen), chosen
            return
        with_e = chosen + (elems[i],)
        if fold_sums(with_e, k) & fold_sums(with_e, l) == 0:
            dfs(i + 1, with_e)
        dfs(i + 1, chosen)

    dfs(0, ())
    return best[0], IntegerSet.of(best[1]), explored


def max_sumfree_forward_rebuild(A: IntegerSet, k: int, l: int) -> tuple:
    """(best_size, witness, explored) of the oracle's forward-checked search,
    each admission test's k-fold and l-fold sum bitsets rebuilt from scratch."""
    best = [0, ()]
    explored = 0

    def admits(subset: tuple) -> bool:
        return fold_sums(subset, k) & fold_sums(subset, l) == 0

    def dfs(chosen: tuple, cands: list):
        nonlocal explored
        explored += 1
        if len(chosen) + len(cands) <= best[0]:
            return
        if not cands:
            best[:] = len(chosen), chosen
            return
        with_e = chosen + (cands[0],)
        dfs(with_e, [c for c in cands[1:] if admits(with_e + (c,))])
        dfs(chosen, cands[1:])

    dfs((), [e for e in sorted(A.elements, reverse=True) if admits((e,))])
    return best[0], IntegerSet.of(best[1]), explored


def _sample_one(freqs: np.ndarray, coeffs: np.ndarray, M: int) -> np.ndarray:
    """One polynomial's samples on the M-point grid: its own scatter, one
    inverse FFT and a pass scaling by M."""
    spec = np.zeros(M, dtype=complex)
    np.add.at(spec, freqs % M, coeffs)
    samples = np.fft.ifft(spec)
    samples *= M
    return samples


def _hilbert_one(samples: np.ndarray) -> np.ndarray:
    spec = np.fft.rfft(samples)
    spec[0] = spec[-1] = 0
    spec *= -1j
    return np.fft.irfft(spec, len(samples))


def build_phi_per_block(B: IntegerSet, weights: np.ndarray, b: int, M: int):
    """mps.build_phi with every transform on one block's M-array at a time:
    three samplings a block (P_k, Q_k and the phase sum behind Q_k), a
    Hilbert transform and a forward FFT for each Q_k, and P_k, Q_k and the
    per-block sup |P_k|/10 + |Q_k| row by row."""
    weights = np.asarray(weights, dtype=complex)
    bounds = mps.block_bounds(B.N, b)
    neg_span = mps.check_grid([(B.elements[lo], B.elements[hi - 1]) for lo, hi in bounds], M)
    freqs = np.array(B.elements)
    mods = np.abs(weights)
    tau = np.divide(weights.conj(), mods, out=np.ones_like(weights), where=mods != 0)
    blks = [freqs[lo:hi] for lo, hi in bounds]
    widths = tuple(max(int(blk[-1] - blk[0]), 1) for blk in blks)
    pks = [mps.build_pk(blk, tau[lo:hi]) for blk, (lo, hi) in zip(blks, bounds)]
    qks = []
    for blk, (lo, hi), w in zip(blks, bounds, widths):
        u = np.abs(_sample_one(blk, tau[lo:hi] / len(blk), M))
        v = _hilbert_one(u)
        spec = np.fft.fft(np.exp(-(u - 1j * v))) / M
        d = np.arange(w + 1)
        qks.append(spec[-d % M] * ((len(d) - d) / len(d)))

    P = [_sample_one(blk, p, M) for blk, p in zip(blks, pks)]
    Q = [_sample_one(-np.arange(len(q)), q, M) for q in qks]
    phi = P[0]
    for k in range(1, len(P)):
        phi = Q[k] * phi + P[k]
    spec = np.fft.fft(phi) / M
    explicit = np.zeros(M, dtype=complex)
    for k in range(len(P)):
        term = P[k]
        for j in range(k + 1, len(P)):
            term = term * Q[j]
        explicit += term
    agreement = float(np.max(np.abs(np.fft.fft(explicit) / M - spec)))
    coeffs = spec[freqs % M]

    per_block = []
    for k, ((lo, hi), p, q) in enumerate(zip(bounds, pks, qks)):
        c = coeffs[lo:hi]
        one_minus_q = q.copy()
        one_minus_q[0] -= 1
        per_block.append(
            {
                "k": k,
                "size": hi - lo,
                "width": widths[k],
                "l2_one_minus_q": float(np.linalg.norm(one_minus_q)),
                "l2_bound": 2 / math.sqrt(hi - lo),
                "support_ok": len(q) <= widths[k] + 1,
                "closeness_ratio": float(np.max(np.abs(c - p) / np.abs(p))),
                "coeff_l2": float(np.linalg.norm(c)),
                "pq_sup": float(np.max(np.abs(P[k]) / 10 + np.abs(Q[k]))),
            }
        )
    cert = mps.PhiCertificate(
        base=b,
        grid=M,
        widths=widths,
        sup_bound=float(np.max(np.abs(phi))) * sup_factor(-neg_span, max(B), M),
        per_block=tuple(per_block),
        pairing_value=complex(np.sum(weights * coeffs)),
        pairing_target=float(np.sum(mods / np.arange(1, B.N + 1))),
        pairing_constant=mps.pairing_constant(b),
        explicit_agreement=agreement,
    )
    return phi, cert
