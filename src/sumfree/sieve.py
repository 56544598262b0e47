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
exact, so equality is decided with defect exactly 0 in the ring Q(i, sqrt3).

The t-sum for Lambda runs over odd members of N2 only: even t would
contribute at even frequencies where gamma vanishes on the left side as
written in closed form but not term-by-term, and the eta right side has no
even frequencies.  N1 is taken strictly (all prime factors > Q) so that
N1 and N2 meet only in 1 and the divisor sums telescope.
"""

from __future__ import annotations

from fractions import Fraction

from .arcs import OMEGA_1, OMEGA_2
from .arith import (
    SieveContext,
    chi3,
    mobius,
    odd_smooth_squarefree,
    primes_upto,
    rough_integers,
    sec2_sieve_set,
    smooth_squarefree,
)
from .dilation import exact_l1, weighted_count_function
from .exactnum import ExactScalar, PF_ONE, PF_PI_INV, ZERO
from .fourier import TrigPoly, fhat, fhat_t
from .sets import IntegerSet, structure

IDENTITY_IDS = ("sec2_f", "gamma_sieved", "lambda1", "g1", "final")


def _lambda_hat(n: int) -> ExactScalar:
    return fhat_t(n, 1) - fhat_t(n, 2)


def _accumulate(coeffs, freq, value: ExactScalar):
    cur = coeffs.get(freq, ZERO) + value
    if cur.is_zero():
        coeffs.pop(freq, None)
    else:
        coeffs[freq] = cur


def _sieved_sum(coeffs, A, ts, weights, hat, scale: int, X: int, post=None):
    """Adds sum_{t, m, n} weight(t) * post * hat(n) e(scale*n*t*m*x) for
    |freq| <= X.  hat is a real function's coefficient table, so the
    negative-frequency value is its conjugate; post multiplies both."""
    for m in A:
        for t, w in zip(ts, weights):
            top = X // (scale * t * m)
            for n in range(1, top + 1):
                c = hat(n)
                if c.is_zero():
                    continue
                pos, neg = c.scale(w), c.conjugate().scale(w)
                if post is not None:
                    pos, neg = pos * post, neg * post
                _accumulate(coeffs, scale * n * t * m, pos)
                _accumulate(coeffs, -scale * n * t * m, neg)


def sieve_lhs(identity_id: str, A: IntegerSet, ctx: SieveContext, X: int) -> TrigPoly:
    """Exact truncation of the sieved sum (the 'hard' side of each identity)."""
    if identity_id not in IDENTITY_IDS:
        raise ValueError(f"unknown identity {identity_id!r}")
    if X < 1:
        raise ValueError("cutoff must be >= 1")
    coeffs: dict[int, ExactScalar] = {}
    if len(A) == 0:
        return TrigPoly.of({}, PF_ONE if identity_id == "final" else PF_PI_INV)
    maxX = X // min(A)
    if identity_id == "sec2_f":
        ks = sec2_sieve_set(ctx, maxX)
        ws = [Fraction(mobius(k) * chi3(k), k) for k in ks]
        _sieved_sum(coeffs, A, ks, ws, fhat, 1, X)
        return TrigPoly.of(coeffs, PF_PI_INV)
    if identity_id == "gamma_sieved":
        ts = smooth_squarefree(ctx, maxX // 2 if maxX >= 2 else 0)
        ws = [Fraction(mobius(t) * chi3(t), t) for t in ts]
        _sieved_sum(coeffs, A, ts, ws, fhat, 2, X)
        return TrigPoly.of(coeffs, PF_PI_INV)
    if identity_id in ("lambda1", "g1"):
        ts = odd_smooth_squarefree(ctx, maxX)
        ws = [Fraction(mobius(t), t) for t in ts]
        _sieved_sum(coeffs, A, ts, ws, _lambda_hat, 1, X)
        return TrigPoly.of(coeffs, PF_PI_INV)
    # final: -(sqrt3 pi/3) GammaSieve(x) + (sqrt3 pi/3) GammaSieve(3x)
    #        + (i pi/2) LambdaSieve(2x); the pi factors cancel the 1/pi of
    #        the series, so the result lives over the unit prefactor.
    s3_3 = ExactScalar.sqrt3(Fraction(1, 3))
    half_i = ExactScalar.imag(Fraction(1, 2))
    ts = smooth_squarefree(ctx, maxX // 2 if maxX >= 2 else 0)
    for sign, scale in ((-1, 2), (1, 6)):
        ws = [Fraction(sign * mobius(t) * chi3(t), t) for t in ts]
        _sieved_sum(coeffs, A, ts, ws, fhat, scale, X, post=s3_3)
    tso = odd_smooth_squarefree(ctx, maxX // 2 if maxX >= 2 else 0)
    wso = [Fraction(mobius(t), t) for t in tso]
    _sieved_sum(coeffs, A, tso, wso, _lambda_hat, 2, X, post=half_i)
    return TrigPoly.of(coeffs, PF_ONE)


def sieve_rhs(identity_id: str, A: IntegerSet, ctx: SieveContext, X: int) -> TrigPoly:
    """Exact truncation of each identity's closed-form (sieved-out) side."""
    if identity_id not in IDENTITY_IDS:
        raise ValueError(f"unknown identity {identity_id!r}")
    if X < 1:
        raise ValueError("cutoff must be >= 1")
    coeffs: dict[int, ExactScalar] = {}
    if len(A) == 0:
        return TrigPoly.of({}, PF_ONE if identity_id == "final" else PF_PI_INV)
    if identity_id == "sec2_f":
        for m in A:
            for n in rough_integers(X // m, ctx.P - 1):
                _accumulate(coeffs, n * m, fhat(n))
                _accumulate(coeffs, -n * m, fhat(-n))
        return TrigPoly.of(coeffs, PF_PI_INV)
    if identity_id == "gamma_sieved":
        for m in A:
            for n in rough_integers(X // (2 * m), ctx.Q):
                _accumulate(coeffs, 2 * n * m, fhat(n))
                _accumulate(coeffs, -2 * n * m, fhat(-n))
        return TrigPoly.of(coeffs, PF_PI_INV)
    if identity_id == "lambda1":
        # (2/pi)[ (1/2)sin(2 pi m x) - (1/2)sin(6 pi m x)
        #         + sum_{n in (N1 u 3N1)\{1,3}} eta(n)/n sin(2 pi n m x) ]
        for m in A:
            for n, etav in _eta_support(ctx, X // m):
                c = ExactScalar.imag(Fraction(-2) * etav / n)
                _accumulate(coeffs, n * m, c)
                _accumulate(coeffs, -n * m, c.conjugate())
        return TrigPoly.of(coeffs, PF_PI_INV)
    rep = structure(A)
    B, eps = rep.symdiff, rep.epsilon
    if identity_id == "g1":
        # (2/pi) sum_{m in B} eps(m) sum_{n in N1} (1/n) sin(2 pi n m x)
        for m in B:
            for n in rough_integers(X // m, ctx.Q):
                c = ExactScalar.imag(Fraction(-eps[m], n))
                _accumulate(coeffs, n * m, c)
                _accumulate(coeffs, -n * m, c.conjugate())
        return TrigPoly.of(coeffs, PF_PI_INV)
    # final
    for m in B:
        if 2 * m <= X:
            _accumulate(coeffs, 2 * m, ExactScalar.of(eps[m]))
        for n in rough_integers(X // (2 * m), ctx.Q):
            if n == 1:
                continue
            chn = chi3(n)
            _accumulate(
                coeffs, 2 * n * m, ExactScalar.of(Fraction(eps[m] * (chn + 1), 2 * n))
            )
            _accumulate(
                coeffs, -2 * n * m, ExactScalar.of(Fraction(eps[m] * (chn - 1), 2 * n))
            )
    return TrigPoly.of(coeffs, PF_ONE)


def _eta_support(ctx: SieveContext, limit: int):
    """(n, eta-like weight) pairs: 1/2 on N1, -3/2 on 3*N1, up to limit."""
    out = [(n, Fraction(1, 2)) for n in rough_integers(limit, ctx.Q)]
    out += [(3 * n, Fraction(-3, 2)) for n in rough_integers(limit // 3, ctx.Q)]
    out.sort()
    return out


def verify_identity(identity_id: str, A: IntegerSet, ctx: SieveContext, X: int) -> dict:
    """Exact equality decision between the two sides; defect must be 0."""
    lhs = sieve_lhs(identity_id, A, ctx, X)
    rhs = sieve_rhs(identity_id, A, ctx, X)
    defect, witness = lhs.defect(rhs)
    return {
        "identity_id": identity_id,
        "Q": ctx.Q,
        "P": ctx.P,
        "X": X,
        "equal": defect.is_zero(),
        "defect": str(defect),
        "witness": witness,
    }


def _h(r: int) -> Fraction:
    """gamma(r) * sin(r pi / 6); rational because gamma kills even r."""
    if r % 2 == 0:
        return Fraction(0)
    sign = 1 if r % 4 == 1 else -1
    # sin(r pi/6) for odd r: +-1/2 when 3 does not divide r, +-1 otherwise
    sinv = {1: Fraction(1, 2), 5: Fraction(1, 2), 7: Fraction(-1, 2),
            11: Fraction(-1, 2), 3: Fraction(1), 9: Fraction(-1)}[r % 12]
    return sign * sinv


def inner_sum_decomposition(n: int, ctx: SieveContext) -> dict:
    """The three-way split of sum_{m in N2 odd, m | n} mu(m) gamma(n/m)
    sin((n/m) pi/6) by the power of 3 dividing n.

    Off (N1 u 3N1) u {1, 3} the total vanishes; on N1 it equals 1/2 and on
    3*N1 it equals -3/2, matching the eta weights.
    """
    if n < 1:
        raise ValueError("n must be positive")
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


def _step_functions(A: IntegerSet):
    one = Fraction(1)
    arcs1 = [(lo, hi, one) for lo, hi in OMEGA_1.arcs]
    arcs2 = [(lo, hi, one) for lo, hi in OMEGA_2.arcs]
    arcs2_neg = [(lo, hi, -one) for lo, hi in OMEGA_2.arcs]
    N = A.N
    G = weighted_count_function(A, arcs1 + arcs2).shift_const(Fraction(-N, 3))
    L = weighted_count_function(A, arcs1 + arcs2_neg)
    F1 = weighted_count_function(A, arcs1).shift_const(Fraction(-N, 6))
    F2 = weighted_count_function(A, arcs2).shift_const(Fraction(-N, 6))
    return G, L, F1, F2


def l1_lower_report(A: IntegerSet, ctx: SieveContext, mertens_bound: int = 10**4) -> dict:
    """Exact L1 norms of the aggregated step functions G_A, L_A, F_1, F_2,
    the Mertens mass of the smooth sieve, and the winning max >= L1/2 leg."""
    G, L, F1, F2 = _step_functions(A)
    norms = {
        "G": exact_l1(G),
        "L": exact_l1(L),
        "F1": exact_l1(F1),
        "F2": exact_l1(F2),
    }
    mass = sum(
        (Fraction(1, t) for t in smooth_squarefree(ctx, mertens_bound)), Fraction(0)
    )
    mertens_product = Fraction(1)
    for p in primes_upto(ctx.Q):
        mertens_product *= 1 + Fraction(1, p)
    winner = "F1" if norms["F1"] >= norms["F2"] else "F2"
    Fw = F1 if winner == "F1" else F2
    max_val, x_at = Fw.max_with_witness()
    frac = lambda q: [q.numerator, q.denominator]
    return {
        "N": A.N,
        "Q": ctx.Q,
        "l1": {k: frac(v) for k, v in norms.items()},
        "max_l1_GL": frac(max(norms["G"], norms["L"])),
        "mertens_mass": frac(mass),
        "mertens_product": frac(mertens_product),
        "winner": winner,
        "winner_max": frac(max_val),
        "winner_argmax": frac(x_at),
        "max_ge_half_l1": max_val >= norms[winner] / 2,
    }
