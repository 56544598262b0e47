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
from the rough integers directly.

One buffer.  verify_identity decides an identity in one (2, X+1) int64
buffer, row 0 at +F and row 1 at -F: the left side's numerators go in with
sign +1 and the right side's with sign -1, so the identity holds iff the
buffer is zero.  Every side is built by np.add.at scatters over all its
index pairs at once, CHUNK pairs a call: (t, n) with t*n <= J for the
singleton table (one scatter per kappa, whose parity gives the -j row),
(m, j) for its dilation onto A, and (m, rough n) for the right side.  The
smooth t, their Mobius signs and the rough n come from one arithmetic table
(_table; _arith picks its bound and range per identity), shared by both
sides.  The table is the only source of the smooth and rough classes.  A
nonzero buffer holds the difference of the sides, so the witness and the
defect are read straight off it (_defect): the frequency of largest
|difference|/|F|.

The t-sum for Lambda runs over odd members of N2 only: even t would
contribute at even frequencies where gamma vanishes on the left side as
written in closed form but not term-by-term, and the eta right side has no
even frequencies.  N1 is taken strictly (all prime factors > Q) so that
N1 and N2 meet only in 1 and the divisor sums telescope.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import isqrt

import numpy as np

from .arcs import OMEGA_1, OMEGA_2, OMEGA_21
from .arith import SieveContext, gamma4, primes_upto
from .dilation import l1_and_max
from .errors import MEMORY_BUDGET, InputError
from .sets import IntegerSet, structure

IDENTITY_IDS = ("sec2_f", "gamma_sieved", "lambda1", "g1", "final")

# Peak bytes per unit of cutoff X of verify_identity: the (2, X+1) buffer
# (16), the arithmetic table (8) and the singleton table with one kappa's
# part (24); on a mismatch, the buffer and at most five arrays of 16 over its
# nonzero entries (96).  Scatters run CHUNK pairs at a time, so the pairs add
# O(1).  tracemalloc read 34-51 for the five identities at X = 2*10**6 on
# A = {1, 2, 3}, the same with one numerator bumped, and 96 with every
# entry of the buffer nonzero.
BYTES_PER_CUTOFF = 128
SIEVE_CUTOFF_CAP = MEMORY_BUDGET // BYTES_PER_CUTOFF
CHUNK = 1 << 16  # pairs per scatter call
# int64 stays exact under the cap: num(F) gathers at most 3 components of
# terms scale*m*c(t)*kappa(n) with |c*kappa| <= 4, scale*m | F and
# t | F/(scale*m), so |num| <= 12*sigma(F)*d(F) on the left, 6*sigma(F) on
# the right, and below 24*sigma(F)*d(F) for their difference.  For
# F < 10**9, sigma(F) < 6F and d(F) <= 1344, so |num| < 2*10**14 < 2**63.
# These bound sums of absolute values, so every partial sum of the buffer,
# and every singleton entry times d, stays below that too.


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


def _check(identity_id: str, X: int) -> None:
    if identity_id not in IDENTITY_IDS:
        raise InputError(f"unknown identity {identity_id!r}")
    if not 1 <= X <= SIEVE_CUTOFF_CAP:
        raise InputError(f"cutoff must be in [1, {SIEVE_CUTOFF_CAP}], got {X}")


def _pairs(counts: np.ndarray):
    """Every (g, k) with 1 <= k <= counts[g], in order, as index arrays of at
    most CHUNK pairs."""
    ends = np.cumsum(counts)
    before = ends - counts - 1
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, CHUNK):
        p = np.arange(lo, min(lo + CHUNK, total))
        g = np.searchsorted(ends, p, side="right")
        yield g, p - before[g]


def _table(bound: int, L: int) -> np.ndarray:
    """The arithmetic table r over 0 <= n <= L: r[n] = mu(p)*p for p the
    product of the distinct primes <= bound dividing n.  n is squarefree and
    bound-smooth iff |r[n]| = n, with mu(n) the sign of r[n]; every prime
    factor of n exceeds the bound iff r[n] = 1.  r[0] = -1 is neither."""
    ps = primes_upto(min(bound, L))
    r = np.ones(L + 1, np.int64)
    r[0] = -1
    few = bisect_right(ps, isqrt(L))  # primes with many multiples: one strided pass each
    for p in ps[:few]:
        r[p::p] *= -p
    big = np.array(ps[few:], np.int64)  # the rest: about L*ln(2) pairs, scattered
    for g, k in _pairs(L // big):
        np.multiply.at(r, big[g] * k, -big[g])
    return r


def _arith(identity_id: str, A: IntegerSet, ctx: SieveContext, X: int) -> np.ndarray:
    """The identity's table over n <= X // (scale * min A), every frequency
    index either side reaches, with bound P - 1 for sec2_f and Q otherwise."""
    L = X // (_SCALE[identity_id] * min(A)) if len(A) else 0
    return _table(ctx.P - 1 if identity_id == "sec2_f" else ctx.Q, L)


def _smooth(r: np.ndarray, odd: bool = False):
    """The squarefree bound-smooth t of the table (the odd ones only, if
    asked) and mu(t)."""
    ts = np.flatnonzero(np.abs(r) == np.arange(len(r)))
    if odd:
        ts = ts[ts % 2 == 1]
    return ts, np.sign(r[ts])


def _lhs_terms(identity_id: str, r: np.ndarray):
    """(t, c(t), kappa) per kappa: terms c(t)/t * unit*kappa(n)/(2n) at
    scale*t*n*m, for t*n <= J = len(r) - 1, zero c dropped."""
    if identity_id in ("lambda1", "g1"):
        return [(*_smooth(r, odd=True), _KAPPA_L)]
    ts, mu = _smooth(r)
    cs = mu * _CHI[ts % 3]
    ts, cs = ts[cs != 0], cs[cs != 0]
    if identity_id != "final":
        return [(ts, cs, _KAPPA_F)]
    # final: -(sqrt3 pi/3) GammaSieve(x) + (sqrt3 pi/3) GammaSieve(3x) + (i pi/2)
    # LambdaSieve(2x), all at scale 2: GammaSieve(3x) takes t -> 3t with c(3t) =
    # 3 mu(t)chi(t), and (i/2) i kappa_L(n)/(2n) = 2h(n)/(2n).  The pi factors
    # cancel the 1/pi of the series, so the result lives over the unit prefactor.
    third = ts <= (len(r) - 1) // 3
    return [
        (np.concatenate([ts, 3 * ts[third]]), np.concatenate([-cs, 3 * cs[third]]), _KAPPA_F),
        (*_smooth(r, odd=True), -_KAPPA_L // 2),
    ]


def _lhs_side(
    identity_id: str, A: IntegerSet, X: int, r: np.ndarray, out: np.ndarray, sign: int
) -> None:
    """Scatter sign times the left side's numerators into out (row 0 at +F,
    row 1 at -F): per kappa, the singleton table T[j] = sum_{t | j} c(t)
    kappa(j/t) over all pairs (t, n) with t*n <= J, whose -j row is +-T as
    kappa is even or odd; then d*S[j] at d*j for all pairs (m, j), d =
    scale*m and j <= X // d."""
    J, terms = len(r) - 1, _lhs_terms(identity_id, r)
    S = np.zeros((2, J + 1), np.int64)
    for ts, cs, kappa in terms:
        T = np.zeros(J + 1, np.int64)
        for g, n in _pairs(J // ts):
            np.add.at(T, ts[g] * n, cs[g] * kappa[n % 12])
        S[0] += T
        if kappa[-1] == kappa[1]:
            S[1] += T
        else:
            S[1] -= T
    d = _SCALE[identity_id] * np.array(A.elements, np.int64)
    for g, j in _pairs(X // d):
        F, w = d[g] * j, sign * d[g]
        np.add.at(out[0], F, w * S[0, j])
        np.add.at(out[1], F, w * S[1, j])


def _rhs_side(
    identity_id: str, A: IntegerSet, X: int, r: np.ndarray, out: np.ndarray, sign: int
) -> None:
    """Scatter sign times the closed-form side's numerators into out:
    eps(m)*d*v(+-n) at +-d*n for d = scale*m and every rough n <= X // d,
    all pairs (m, n) at once."""
    if identity_id in ("g1", "final"):
        rep = structure(A)
        ms = np.array(rep.symdiff, np.int64)
        eps = np.array([rep.epsilon[m] for m in rep.symdiff], np.int64)
    else:
        ms = np.array(A.elements, np.int64)
        eps = np.ones_like(ms)
    ns = np.flatnonzero(r == 1)
    chi = _CHI[ns % 3]
    if identity_id == "lambda1":
        # eta = 1/2 on N1, -3/2 on 3*N1; -2i eta/n = i * (-4 eta) / (2n)
        ns = np.sort(np.concatenate([ns, 3 * ns[ns <= (len(r) - 1) // 3]]))
        vals = np.where(ns % 3 == 0, 6, -2)[None, :].repeat(2, axis=0)
    elif identity_id == "g1":  # -i/n on N1
        vals = np.full((2, len(ns)), -2)
    elif identity_id == "final":  # (chi(n) +- 1)/(2n) at +-2nm
        vals = np.stack([chi + 1, 1 - chi])
    else:  # fhat(+-n)
        vals = np.stack([-chi, chi])
    d = _SCALE[identity_id] * ms
    for g, k in _pairs(np.searchsorted(ns, X // d, side="right")):
        i, w = k - 1, sign * eps[g] * d[g]
        np.add.at(out[0], d[g] * ns[i], w * vals[0, i])
        np.add.at(out[1], d[g] * ns[i], w * vals[1, i])


def _defect(buf: np.ndarray) -> tuple[Fraction, int]:
    """(d/(2F), F) at the nonzero entry d of buf, row 1 standing for -F, of
    largest |d|/|F|, the smallest signed F on ties.

    The float ratios are |d|/|F| correctly rounded (both are exact doubles
    below 2**53), so monotone: the exact maximum is among the entries at
    the float maximum, which are settled in Python ints, as |d|*|F'| can
    pass 2**63.
    """
    flat = np.flatnonzero(buf)
    d, F = buf.ravel()[flat], flat % buf.shape[1]
    ratio = np.abs(d) / F
    top = np.flatnonzero(ratio == ratio.max())
    signed = np.where(flat[top] < buf.shape[1], F[top], -F[top])
    ties = sorted(zip(signed.tolist(), d[top].tolist()))
    witness, worst = max(ties, key=lambda t: Fraction(abs(t[1]), abs(t[0])))
    return Fraction(worst, 2 * witness), witness


def verify_identity(identity_id: str, A: IntegerSet, ctx: SieveContext, X: int) -> dict:
    """Exact equality decision: the left side scattered into one buffer with
    sign +1 and the right side with sign -1, equal iff the buffer is zero.
    A nonzero buffer is the difference of the sides, and the defect and its
    witness are read off it."""
    _check(identity_id, X)
    r = _arith(identity_id, A, ctx, X)
    buf = np.zeros((2, X + 1), np.int64)
    _lhs_side(identity_id, A, X, r, buf, 1)
    _rhs_side(identity_id, A, X, r, buf, -1)
    defect, witness, unit = Fraction(0), None, _UNIT[identity_id]
    if buf.any():
        del r
        defect, witness = _defect(buf)
    return {
        "identity_id": identity_id,
        "Q": ctx.Q,
        "P": ctx.P,
        "X": X,
        "equal": witness is None,
        "defect": f"{defect}{unit}" if defect else "0",
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
    # the odd squarefree Q-smooth divisors t of n, with mu(t): the products
    # of the subsets of the odd primes <= Q that divide n
    divisors = [(1, 1)]
    for p in primes_upto(ctx.Q)[1:]:
        if n % p == 0:
            divisors += [(t * p, -mu) for t, mu in divisors]
    total = sum((mu * _h(n // t) for t, mu in divisors), Fraction(0))
    parts = {"I1": Fraction(0), "I2": Fraction(0), "I3": Fraction(0)}
    if n % 3 != 0:
        key = "I1"
    elif n % 9 != 0:
        key = "I2"
    else:
        key = "I3"
    parts[key] = total
    parts["total"] = total
    return parts


def l1_lower_report(A: IntegerSet, ctx: SieveContext) -> dict:
    """Exact L1 norms of the aggregated step functions G_A, L_A, F_1, F_2 and
    F_1's max >= L1/2 leg, from three sweeps: G_A(x) = F(2x) for F the
    balanced function of (1/3, 2/3), and x -> 2x preserves measure; L_A
    weighs Omega_1 by +1 and Omega_2 by -1; F_2(x) = F_1(-x) as Omega_2 =
    -Omega_1, so F_2 has F_1's L1 and max.  ctx gives the report's Q."""
    # L first: with 4 edges and denominator 6 its sweep's budget bound is at
    # least G's and F1's, so an oversized A is refused before any sweep runs
    l1_L, _, _ = l1_and_max(A, [(OMEGA_1, 1), (OMEGA_2, -1)], 0)
    l1_G, _, _ = l1_and_max(A, [(OMEGA_21, 1)], -A.N * OMEGA_21.measure)
    l1_F1, max_val, x_at = l1_and_max(A, [(OMEGA_1, 1)], -A.N * OMEGA_1.measure)
    norms = {"G": l1_G, "L": l1_L, "F1": l1_F1, "F2": l1_F1}
    return {
        "N": A.N,
        "Q": ctx.Q,
        "l1": {k: list(v.as_integer_ratio()) for k, v in norms.items()},
        "max_l1_GL": list(max(norms["G"], norms["L"]).as_integer_ratio()),
        "winner": "F1",
        "winner_max": list(max_val.as_integer_ratio()),
        "winner_argmax": list(x_at.as_integer_ratio()),
        "max_ge_half_l1": max_val >= norms["F1"] / 2,
    }
