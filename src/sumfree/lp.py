"""Lacunary L1 growth diagnostics for the triadic sums sum_{j<n} e(3^j x).

The L1 norm of a unit-coefficient exponential sum over a frequency set is
measured on a grid (`exp_sum_l1`, certified error bar) while the degree
3^(n-1) fits GRID_DEGREE_LIMIT.  Past it, an exact-distribution Monte Carlo
scheme: for x uniform on [0,1) the orbit y_j = 3^j x mod 1 is sampled
backwards via y_{j-1} = (y_j + r_j)/3 with r_j uniform on {0,1,2}, which
reproduces the joint law without ever forming 3^j.

One chain serves every sampled size: it runs to the largest size and
reads each smaller size's (mean, 3-sigma bar) at its step.  It draws its
randomness in the order of a chain run to that size alone, so each row is
the one-size estimate.  Since 3*y_{j-1} = y_j + r_j, e(y_j) = e(y_{j-1})^3:
the chain evaluates e(.) once per group of at most four steps, from a table
and a Taylor step, and reaches the group's other states by cubing
(`_add_e`, whose docstring bounds the error).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, ResourceLimitError
from .fourier import grid_norms
from .sets import IntegerSet

GRID_DEGREE_LIMIT = 1 << 20
CHAIN_STEP_CAP = 4096  # the chain's time budget: about 2 ms a step, so about 8 s
_TABLE = 3**8
_CHUNK = 1 << 14
_GROUP = 4  # chain steps per e(.) evaluation; the other three are cubes
# cos and sin Taylor coefficients for the angle 2*pi*f/_TABLE, as powers of f
_TAYLOR = tuple((2 * math.pi / _TABLE) ** n / math.factorial(n) for n in (2, 4, 1, 3, 5))


def _add_e(total: np.ndarray, y: np.ndarray, table: np.ndarray, n: int = 1) -> None:
    """total += e(y) + e(3y) + e(9y) + ... (n terms) for 0 <= y <= 1, from
    table[d] = e(d/S), S = 3^8, and n - 1 cubings.

    With D = floor(S*y) and u = 2*pi*(S*y - D)/S < 9.6e-4, e(y) = T[D]*(c + is)
    where c = 1 - u^2/2 + u^4/24 and s = u - u^3/6 + u^5/120 miss cos u and
    sin u by less than u^6/720 < 1.1e-21.  S*y - D is exact, so rounding
    enters by S*y (an angle error below 2*pi*2^-53 < 7e-16), the table, the
    polynomials and the product: over 10^6 uniform y (seed 0) the largest
    distance from np.exp(2j*pi*y) is 1.64e-15.

    Each further term is the last one cubed, e(3^m y) = e(3^(m-1) y)^3, by
    two complex products.  A cube triples the angle error it inherits, so
    the fourth term carries about 27 times the first one's.  Against the
    exact fractional parts of 3^m y for y = k/2^53 (10^6 draws, seed 0), the
    sums of 1, 2, 3 and 4 terms err by at most 1.9e-15, 6.3e-15, 1.7e-14 and
    5.1e-14; the tests hold every n <= 4 to 1e-13.  In the chain, where
    3*y - r misses the state before y by one rounding that the cubes triple
    too, the default rows stay within 3e-15 of one evaluation per state.
    The chain's rounding of (y + 2)/3 can reach y = 1, hence the entry
    T[S] = 1.  Chunks keep temporaries in cache.
    """
    c2, c4, s1, s3, s5 = _TAYLOR
    for lo in range(0, len(y), _CHUNK):
        t = y[lo : lo + _CHUNK] * _TABLE
        D = np.floor(t)
        f = np.subtract(t, D, out=t)  # u = f*2*pi/S, folded into _TAYLOR
        v = f * f
        w = np.empty(len(f), dtype=complex)
        np.subtract(1, v * (c2 - v * c4), out=w.real)
        np.multiply(f, s1 - v * (s3 - v * s5), out=w.imag)
        w *= table[D.astype(np.intp)]
        out = total[lo : lo + _CHUNK]
        out += w
        sq = np.empty_like(w)
        for _ in range(n - 1):  # w = w^3, the next term
            np.multiply(w, w, out=sq)
            w *= sq
            out += w


def _triadic_chain(sizes, samples: int = 200_000, seed: int = 0) -> dict:
    """{n: (mean, 3-sigma bar)} estimates of ||sum_{j<n} e(3^j x)||_1 for each
    n in sizes, all read from one backward chain run to the largest n.

    The steps go in groups of at most _GROUP, and a group ends at each size.
    A group of g steps takes g - 1 steps, adds e(y) at the state reached and
    its g - 1 cubes, the e(.) of the states it passed (three times a state is
    the one before it plus r), and then takes its last step.  So the draws
    and the states are those of one e(.) evaluation per step.  The peak is
    about 33 bytes a sample: y, the complex total and one step's draw.
    """
    table = np.exp(2j * math.pi * np.arange(_TABLE + 1) / _TABLE)
    rng = np.random.default_rng(seed)
    y = rng.random(samples)
    total = np.zeros(samples, dtype=complex)
    estimates = {}
    step = 0
    for size in sorted(sizes):
        while step < size:
            g = min(_GROUP, size - step)
            for i in range(1, g + 1):
                if i == g:
                    _add_e(total, y, table, g)
                y += rng.integers(0, 3, samples)
                y /= 3.0
            step += g
        vals = np.abs(total)
        mean = float(vals.mean())
        vals -= mean  # vals.std(ddof=1)'s squares, in place
        vals *= vals
        var = float(vals.sum()) / (samples - 1)
        del vals  # not held beside the next step's draw
        estimates[size] = (mean, 3 * math.sqrt(var) / math.sqrt(samples))
    return estimates


def exp_sum_l1(A: IntegerSet, M: int | None = None) -> tuple[float, float]:
    """(value, error bar) for the L1 norm of sum_{a in A} e(ax), on a grid."""
    if max(A, default=0) > GRID_DEGREE_LIMIT:
        raise InputError(f"degree {max(A)} exceeds the grid limit {GRID_DEGREE_LIMIT}")
    return grid_norms(np.array(A.elements), np.ones(A.N), M=M)


def lacunary_l1_diagnostic(sizes: tuple[int, ...], seed: int = 0) -> dict:
    """log-log growth fit of ||sum_{j<n} e(3^j x)||_1 against n over the sizes.

    Sizes whose degree 3^(n-1) passes GRID_DEGREE_LIMIT share one chain.
    Returns the per-size table plus the least-squares slope and a worst-case
    slope over the error-bar box (bars pushed adversarially down at large n
    and up at small n).
    """
    if len(sizes) < 3 or len(set(sizes)) < 2:
        raise InputError("need at least 3 sizes, at least 2 of them distinct, to fit a slope")
    if min(sizes) < 1:
        raise InputError("the number of exponents must be >= 1")
    if max(sizes) > CHAIN_STEP_CAP:
        raise ResourceLimitError(f"size {max(sizes)} passes CHAIN_STEP_CAP = {CHAIN_STEP_CAP}")
    sampled = {n for n in sizes if 3 ** (n - 1) > GRID_DEGREE_LIMIT}
    chain = _triadic_chain(sampled, seed=seed) if sampled else {}
    rows = []
    for n in sizes:
        val, bar = chain[n] if n in chain else exp_sum_l1(IntegerSet.of([3**j for j in range(n)]))
        rows.append({"N": n, "l1": val, "l1_error": bar})
    xs = np.log([r["N"] for r in rows])
    ys = np.log([r["l1"] for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    mid = xs.mean()
    lo = np.log(
        [
            max(r["l1"] - r["l1_error"], 1e-300) if x > mid else r["l1"] + r["l1_error"]
            for r, x in zip(rows, xs)
        ]
    )
    worst_slope = float(np.polyfit(xs, lo, 1)[0])
    return {
        "rows": rows,
        "fitted_exponent": slope,
        "worst_case_exponent": worst_slope,
    }
