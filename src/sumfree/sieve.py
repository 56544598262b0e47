"""Exact coefficientwise verification of the Mobius sieving identities, the
inner-sum decomposition behind the eta weights, and the L1 lower-bound
reporting pipeline.

Identity ids:
    sec2_f        sum_{k in M} mu(k)chi(k)/k sum_m f(mkx)
                    = sum_m sum_{n: lpf(n) >= P} fhat(n) e(nmx)
    gamma_sieved  sum_{t in N2} mu(t)chi(t)/t sum_m Gamma(mtx)
                    = sum_m sum_{n in N1} fhat(n) (e(2nmx) + e(-2nmx))
    lambda1       sum_{t in N2, t odd} mu(t)/t sum_m Lambda(tmx)
                    = explicit m and 3m terms plus the eta(n)/n tail over
                      (N1 u 3N1) minus {1,3}
    g1            same left side, regrouped over B = A sym-diff 3A with
                      signs eps(m)
    final         the normalized Gamma/Gamma(3x)/Lambda(2x) combination whose
                      right side is eps(m)e(2mx) plus (chi(n)+-1)/(2n) terms

All series are truncated to |frequency| <= X; every sum below is finite and
exact, so equality is decided exactly: the sides agree iff their integer
tables do, and a nonzero defect is reported as an exact rational multiple of
the identity's unit.

Integer tables.  Every coefficient of one identity lies on one line unit*Q,
so a side is held as integer numerators: the coefficient at the (signed)
frequency F is unit * num(F) / (2F).  In units of 1/pi,
    fhat(n)                     = sqrt3 * kappa_f(n) / (2n),  kappa_f = -chi,
    fhat_t(n,1) - fhat_t(n,2)   = i * kappa_L(n) / (2n),      kappa_L = -4h,
with h = gamma4(n) sin(n pi/6) (see _h); both kappas are 12-periodic
integers.  sec2_f and gamma_sieved sum fhat only (unit sqrt3); lambda1 and
g1 sum the Lambda coefficients only (unit i); final multiplies fhat by
sqrt3/3 and the Lambda coefficients by i/2, both rational (unit 1).  A
left-side term c(t)/t * hat(n), c integer, sits at F = scale*t*n*m, and
1/(t n) = scale*m/F, so its numerator is scale*m*c(t)*kappa(n).  The left
side is thus one singleton table S[j] = sum_{t | j} c(t) kappa(j/t), an
integer Dirichlet convolution, scattered onto the frequencies scale*m*j for
each m in A: the same finite triple sum, regrouped.  The right side is built
from the rough integers directly, and the sides are equal iff their
(frequency, numerator) rows are.

The t-sum for Lambda runs over odd members of N2 only: even t would
contribute at even frequencies where gamma vanishes on the left side as
written in closed form but not term-by-term, and the eta right side has no
even frequencies.  N1 is taken strictly (all prime factors > Q) so that
N1 and N2 meet only in 1 and the divisor sums telescope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arcs import OMEGA_1, OMEGA_2, OMEGA_21
from .arith import (
    SieveContext,
    gamma4,
    mobius,
    odd_smooth_squarefree,
    primes_upto,
    rough_integers,
    sec2_sieve_set,
    smooth_squarefree,
)
from .dilation import balanced_function, exact_l1, weighted_count_function
from .errors import MEMORY_BUDGET, InputError
from .sets import IntegerSet, structure

IDENTITY_IDS = ("sec2_f", "gamma_sieved", "lambda1", "g1", "final")
MERTENS_BOUND = 10**4  # l1_lower_report's Mertens mass sums 1/t for t up to it

# Peak bytes of a verify_identity call per unit of cutoff X: dense +-F numerator
# and singleton tables (16 each), rows of both sides (16 per row, at most 2X rows
# each) and the rough integers; tracemalloc measured 100 at 1.5 rows per unit X.
BYTES_PER_CUTOFF = 128
SIEVE_CUTOFF_CAP = MEMORY_BUDGET // BYTES_PER_CUTOFF
# int64 stays exact under the cap: num(F) gathers at most 3 components of
# terms scale*m*c(t)*kappa(n) with |c*kappa| <= 4, scale*m | F and
# t | F/(scale*m), so |num| <= 12*sigma(F)*d(F) on the left, 6*sigma(F) on
# the right, and below 24*sigma(F)*d(F) for their difference.  For
# F < 10**9, sigma(F) < 6F and d(F) <= 1344, so |num| < 2*10**14 < 2**63.


def _h(r: int) -> Fraction:
    """gamma(r) * sin(r pi / 6); rational because gamma kills even r."""
    # 2 sin(r pi/6) for odd r: +-1 when 3 does not divide r, +-2 otherwise
    return gamma4(r) * Fraction((0, 1, 0, 2, 0, 1, 0, -1, 0, -2, 0, -1)[r % 12], 2)


_CHI = np.array([0, 1, -1], dtype=np.int64)  # chi by n mod 3
_KAPPA_F = -_CHI[np.arange(12) % 3]  # fhat(n) = sqrt3 * kappa_f(n) / (2n)
_KAPPA_L = np.array([int(-4 * _h(r)) for r in range(12)])  # i * kappa_L(n) / (2n)
_SCALE = {"sec2_f": 1, "gamma_sieved": 2, "lambda1": 1, "g1": 1, "final": 2}
# the unit as the suffix it is printed with: sqrt3, i or 1
_UNIT = {"sec2_f": "*sqrt3", "gamma_sieved": "*sqrt3", "lambda1": "i", "g1": "i", "final": ""}


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


def _check(identity_id: str, X: int) -> None:
    if identity_id not in IDENTITY_IDS:
        raise InputError(f"unknown identity {identity_id!r}")
    if not 1 <= X <= SIEVE_CUTOFF_CAP:
        raise InputError(f"cutoff must be in [1, {SIEVE_CUTOFF_CAP}], got {X}")


def _table(identity_id: str, num: np.ndarray) -> SieveTable:
    """Sorted rows of a dense table whose row 0 holds +F and row 1 holds -F."""
    neg, pos = np.flatnonzero(num[1])[::-1], np.flatnonzero(num[0])
    rows = np.empty((len(neg) + len(pos), 2), np.int64)
    rows[: len(neg), 0], rows[: len(neg), 1] = -neg, num[1, neg]
    rows[len(neg) :, 0], rows[len(neg) :, 1] = pos, num[0, pos]
    return SieveTable(0 if identity_id == "final" else -1, _UNIT[identity_id], rows)


def _signed(ts: list[int], bound: int, chi: bool = True):
    """Squarefree bound-smooth ts and c(t) = mu(t)chi(t) (or mu(t)), zeros
    dropped; mu(t) = (-1)^(number of primes <= bound dividing t)."""
    mu = np.ones(max(ts, default=0) + 1, np.int64)
    for p in primes_upto(min(bound, len(mu) - 1)):
        mu[p::p] *= -1
    ts = np.array(ts, dtype=np.int64)
    c = mu[ts] * (_CHI[ts % 3] if chi else 1)
    return ts[c != 0], c[c != 0]


def _lhs_terms(identity_id: str, ctx: SieveContext, J: int):
    """(t, c(t), kappa) per component: terms c(t)/t * unit*kappa(n)/(2n) at
    scale*t*n*m, for t*n <= J."""
    if identity_id == "sec2_f":
        return [(*_signed(sec2_sieve_set(ctx, J), ctx.P - 1), _KAPPA_F)]
    if identity_id == "gamma_sieved":
        return [(*_signed(smooth_squarefree(ctx, J), ctx.Q), _KAPPA_F)]
    odd = _signed(odd_smooth_squarefree(ctx, J), ctx.Q, chi=False)
    if identity_id in ("lambda1", "g1"):
        return [(*odd, _KAPPA_L)]
    # final: -(sqrt3 pi/3) GammaSieve(x) + (sqrt3 pi/3) GammaSieve(3x) + (i pi/2)
    # LambdaSieve(2x), all at scale 2: GammaSieve(3x) takes t -> 3t with c(3t) =
    # 3 mu(t)chi(t), and (i/2) i kappa_L(n)/(2n) = 2h(n)/(2n).  The pi factors
    # cancel the 1/pi of the series, so the result lives over the unit prefactor.
    ts, c = _signed(smooth_squarefree(ctx, J), ctx.Q)
    third = ts <= J // 3
    return [(ts, -c, _KAPPA_F), (3 * ts[third], 3 * c[third], _KAPPA_F), (*odd, -_KAPPA_L // 2)]


def _singleton(identity_id: str, ctx: SieveContext, J: int) -> np.ndarray:
    """S[j] = sum_{t | j} c(t) kappa(j/t) over the components, for j <= J;
    row 0 at +j, row 1 at -j."""
    S = np.zeros((2, J + 1), np.int64)
    j = np.arange(J + 1)
    for ts, cs, kappa in _lhs_terms(identity_id, ctx, J):
        kap = np.stack([kappa[j % 12], kappa[-j % 12]])
        for t, c in zip(ts.tolist(), cs.tolist()):
            S[:, t::t] += c * kap[:, 1 : J // t + 1]
    return S


def sieve_lhs(identity_id: str, A: IntegerSet, ctx: SieveContext, X: int) -> SieveTable:
    """Exact truncation of the sieved sum (the 'hard' side of each identity):
    the singleton table S, built once, dilated onto each m in A."""
    _check(identity_id, X)
    scale = _SCALE[identity_id]
    S = _singleton(identity_id, ctx, X // (scale * min(A)) if len(A) else 0)
    num = np.zeros((2, X + 1), np.int64)
    for m in A:
        d = scale * m
        num[:, d::d] += d * S[:, 1 : X // d + 1]
    return _table(identity_id, num)


def sieve_rhs(identity_id: str, A: IntegerSet, ctx: SieveContext, X: int) -> SieveTable:
    """Exact truncation of each identity's closed-form (sieved-out) side:
    numerators eps(m)*d*v(n) at +-d*n for d = scale*m and rough n."""
    _check(identity_id, X)
    scale = _SCALE[identity_id]
    if identity_id in ("g1", "final"):
        rep = structure(A)
        ms = [(m, rep.epsilon[m]) for m in rep.symdiff]
    else:
        ms = [(m, 1) for m in A]
    limit = X // (scale * ms[0][0]) if ms else 0
    bound = ctx.P - 1 if identity_id == "sec2_f" else ctx.Q
    ns = np.array(rough_integers(limit, bound), dtype=np.int64)
    chi = _CHI[ns % 3]
    if identity_id == "lambda1":
        # eta = 1/2 on N1, -3/2 on 3*N1; -2i eta/n = i * (-4 eta) / (2n)
        ns = np.sort(np.concatenate([ns, 3 * ns[ns <= limit // 3]]))
        vals = np.where(ns % 3 == 0, 6, -2)[None, :].repeat(2, axis=0)
    elif identity_id == "g1":  # -i/n on N1
        vals = np.full((2, len(ns)), -2)
    elif identity_id == "final":  # (chi(n) +- 1)/(2n) at +-2nm
        vals = np.stack([chi + 1, 1 - chi])
    else:  # fhat(+-n)
        vals = np.stack([-chi, chi])
    num = np.zeros((2, X + 1), np.int64)
    for m, eps in ms:
        d = scale * m
        k = np.searchsorted(ns, X // d, side="right")
        num[:, d * ns[:k]] += d * eps * vals[:, :k]
    return _table(identity_id, num)


def verify_identity(identity_id: str, A: IntegerSet, ctx: SieveContext, X: int) -> dict:
    """Exact equality decision between the two sides: integer equality of
    their numerator rows; the defect is built only when they differ."""
    lhs = sieve_lhs(identity_id, A, ctx, X)
    rhs = sieve_rhs(identity_id, A, ctx, X)
    defect, witness = lhs.defect(rhs)
    return {
        "identity_id": identity_id,
        "Q": ctx.Q,
        "P": ctx.P,
        "X": X,
        "equal": witness is None,
        "defect": f"{defect}{lhs.unit}" if defect else "0",
        "witness": witness,
    }


def inner_sum_decomposition(n: int, ctx: SieveContext) -> dict:
    """The three-way split of sum_{m in N2 odd, m | n} mu(m) gamma(n/m)
    sin((n/m) pi/6) by the power of 3 dividing n.

    Off (N1 u 3N1) u {1, 3} the total vanishes; on N1 it equals 1/2 and on
    3*N1 it equals -3/2, matching the eta weights.
    """
    if n < 1:
        raise InputError("n must be positive")
    divisors = [m for m in odd_smooth_squarefree(ctx, n) if n % m == 0]
    total = Fraction(0)
    parts = {"I1": Fraction(0), "I2": Fraction(0), "I3": Fraction(0)}
    if n % 3 != 0:
        key = "I1"
    elif n % 9 != 0:
        key = "I2"
    else:
        key = "I3"
    for m in divisors:
        total += mobius(m) * _h(n // m)
    parts[key] = total
    parts["total"] = total
    return parts


def l1_lower_report(A: IntegerSet, ctx: SieveContext) -> dict:
    """Exact L1 norms of the aggregated step functions G_A, L_A, F_1, F_2,
    the Mertens mass of the smooth sieve, and F_1's max >= L1/2 leg, from
    three sweeps: G_A(x) = F(2x) for F the balanced function of (1/3, 2/3),
    and x -> 2x preserves measure; L_A weighs Omega_1 by +1 and Omega_2 by
    -1; F_2(x) = F_1(-x) as Omega_2 = -Omega_1, so F_2 has F_1's L1 and max."""
    F1 = balanced_function(A, OMEGA_1)
    arcs = [(lo, hi, w) for O, w in ((OMEGA_1, 1), (OMEGA_2, -1)) for lo, hi in O.arcs]
    norms = {
        "G": exact_l1(balanced_function(A, OMEGA_21)),
        "L": exact_l1(weighted_count_function(A, arcs)),
        "F1": exact_l1(F1),
    }
    norms["F2"] = norms["F1"]
    mass = sum(
        (Fraction(1, t) for t in smooth_squarefree(ctx, MERTENS_BOUND)), Fraction(0)
    )
    mertens_product = Fraction(1)
    for p in primes_upto(ctx.Q):
        mertens_product *= 1 + Fraction(1, p)
    max_val, x_at = F1.max_with_witness()
    frac = lambda q: [q.numerator, q.denominator]
    return {
        "N": A.N,
        "Q": ctx.Q,
        "l1": {k: frac(v) for k, v in norms.items()},
        "max_l1_GL": frac(max(norms["G"], norms["L"])),
        "mertens_mass": frac(mass),
        "mertens_product": frac(mertens_product),
        "winner": "F1",
        "winner_max": frac(max_val),
        "winner_argmax": frac(x_at),
        "max_ge_half_l1": max_val >= norms["F1"] / 2,
    }
