"""Lacunary L1 growth diagnostics.

The L1 norm of a unit-coefficient exponential sum over a frequency set is
measured either on a grid (small degree, certified error bar) or — for
triadic geometric frequencies, whose degree can exceed any feasible grid —
by an exact-distribution Monte Carlo scheme: for x uniform on [0,1) the
orbit y_j = 3^j x mod 1 is sampled backwards via y_{j-1} = (y_j + r_j)/3
with r_j uniform on {0,1,2}, which reproduces the joint law without ever
forming 3^j.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .fourier import grid_norms
from .sets import IntegerSet

GRID_DEGREE_LIMIT = 1 << 20


def _is_triadic_powers(A: IntegerSet) -> bool:
    return all(a == 3 ** round(math.log(a, 3)) for a in A)


def triadic_l1_montecarlo(
    exponents: int, samples: int = 200_000, seed: int = 0
) -> tuple[float, float]:
    """(mean, 3-sigma bar) Monte Carlo estimate of ||sum_j e(3^j x)||_1 for
    j < exponents, using the exact backward orbit sampler."""
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


def exp_sum_l1(
    A: IntegerSet, seed: int = 0, M: int | None = None
) -> tuple[float, float]:
    """(value, error bar) for the L1 norm of sum_{a in A} e(ax)."""
    if max(A) <= GRID_DEGREE_LIMIT:
        return grid_norms({a: 1.0 for a in A}, "L1", M=M)
    if _is_triadic_powers(A):
        return triadic_l1_montecarlo(len(A), seed=seed)
    raise InputError(
        "set has infeasible degree and no triadic sampling structure"
    )


def lacunary_l1_diagnostic(family: list[IntegerSet], seed: int = 0) -> dict:
    """log-log growth fit of ||g||_1 against N over a family of sets.

    Returns the per-set table plus the least-squares slope and a worst-case
    slope over the error-bar box (bars pushed adversarially down at large N
    and up at small N).
    """
    if len(family) < 3 or len({A.N for A in family}) < 2:
        raise InputError("need at least 3 sets, of at least 2 sizes, to fit a slope")
    rows = []
    for A in family:
        val, bar = exp_sum_l1(A, seed=seed)
        rows.append({"N": A.N, "l1": val, "l1_error": bar})
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
