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
the one-size estimate.  e(y) comes from a table and a Taylor step (`_add_e`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, ResourceLimitError
from .fourier import grid_norms
from .sets import IntegerSet

GRID_DEGREE_LIMIT = 1 << 20
CHAIN_STEP_CAP = 4096  # the chain's time budget: about 4 ms a step, so 15-20 s
_TABLE = 3**8
_CHUNK = 1 << 14
# cos and sin Taylor coefficients for the angle 2*pi*f/_TABLE, as powers of f
_TAYLOR = tuple((2 * math.pi / _TABLE) ** n / math.factorial(n) for n in (2, 4, 1, 3, 5))


def _add_e(total: np.ndarray, y: np.ndarray, table: np.ndarray) -> None:
    """total += e(y) for 0 <= y <= 1, from table[d] = e(d/S), S = 3^8.

    With D = floor(S*y) and u = 2*pi*(S*y - D)/S < 9.6e-4, e(y) = T[D]*(c + is)
    where c = 1 - u^2/2 + u^4/24 and s = u - u^3/6 + u^5/120 miss cos u and
    sin u by less than u^6/720 < 1.1e-21.  S*y - D is exact, so rounding
    enters by S*y (an angle error below 2*pi*2^-53 < 7e-16), the table, the
    polynomials and the product: over 10^6 uniform y the largest distance
    from np.exp(2j*pi*y) is 1.94e-15.  The chain's rounding of (y + 2)/3 can
    reach y = 1, hence the entry T[S] = 1.  Chunks keep temporaries in cache.
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
        total[lo : lo + _CHUNK] += w


def _triadic_chain(sizes, samples: int = 200_000, seed: int = 0) -> dict:
    """{n: (mean, 3-sigma bar)} estimates of ||sum_{j<n} e(3^j x)||_1 for each
    n in sizes, all read from one backward chain run to the largest n."""
    table = np.exp(2j * math.pi * np.arange(_TABLE + 1) / _TABLE)
    rng = np.random.default_rng(seed)
    y = rng.random(samples)
    total = np.zeros(samples, dtype=complex)
    estimates = {}
    for step in range(1, max(sizes) + 1):
        _add_e(total, y, table)
        y += rng.integers(0, 3, samples)
        y /= 3.0
        if step in sizes:
            vals = np.abs(total)
            mean = float(vals.mean())
            stderr = float(vals.std(ddof=1)) / math.sqrt(samples)
            estimates[step] = (mean, 3 * stderr)
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
