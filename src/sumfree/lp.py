"""Triadic block decomposition and lacunary L1 growth diagnostics.

Blocks are base-3 frequency ranges [3^k, 3^(k+1)).  The L1 norm of a unit-
coefficient exponential sum over a frequency set is measured either on a grid
(small degree, certified error bar) or — for triadic geometric frequencies,
whose degree can exceed any feasible grid — by an exact-distribution Monte
Carlo scheme: for x uniform on [0,1) the orbit y_j = 3^j x mod 1 is sampled
backwards via y_{j-1} = (y_j + r_j)/3 with r_j uniform on {0,1,2}, which
reproduces the joint law without ever forming 3^j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .fourier import TrigPoly, grid_norms, grid_size, sample_grid
from .sets import IntegerSet, triadic_index

GRID_DEGREE_LIMIT = 1 << 20


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: dict[int, TrigPoly]
    occupied: tuple[int, ...]


def decompose(g: TrigPoly) -> BlockDecomposition:
    """Partition a positive-frequency polynomial by triadic blocks."""
    if any(n <= 0 for n in g.coeffs):
        raise InputError("decompose expects positive frequencies only")
    buckets: dict[int, dict] = {}
    for n, c in g.coeffs.items():
        buckets.setdefault(triadic_index(n), {})[n] = c
    blocks = {
        k: TrigPoly.of(coeffs, g.prefactor) for k, coeffs in buckets.items()
    }
    return BlockDecomposition(blocks, tuple(sorted(blocks)))


def recompose(d: BlockDecomposition) -> TrigPoly:
    out = None
    for k in d.occupied:
        out = d.blocks[k] if out is None else out + d.blocks[k]
    if out is None:
        raise InputError("empty decomposition")
    return out


def square_function_lp(d: BlockDecomposition, p: float, M: int | None = None) -> tuple[float, float]:
    """Grid L^p norm of (sum_k |Delta_k|^2)^(1/2) with a certified bar.

    p = 2 is exact (Parseval: the square function and the full sum share an
    L2 norm).  Otherwise the bar combines the Riemann-sum error of S^p —
    bounded by the total variation over one grid cell, with Var(S) <=
    (sum_k ||Delta_k'||_2^2)^(1/2) — and the elementary |a^(1/p) - b^(1/p)|
    <= |a - b|^(1/p).
    """
    if p <= 1:
        raise InputError("p must exceed 1")
    deg = max(b.degree for b in d.blocks.values())
    if p == 2:
        total = 0.0
        for b in d.blocks.values():
            total += sum(abs(c) ** 2 for c in b.to_complex_coeffs().values())
        return math.sqrt(total), 0.0
    M = grid_size(deg, M)
    sq = np.zeros(M)
    deriv_sq = 0.0
    for b in d.blocks.values():
        cc = b.to_complex_coeffs()
        sq += np.abs(sample_grid(cc, M).samples) ** 2
        deriv_sq += sum((2 * math.pi * abs(n) * abs(c)) ** 2 for n, c in cc.items())
    S = np.sqrt(sq)
    value = float((S**p).mean()) ** (1 / p)
    var_bound = math.sqrt(deriv_sq)
    integral_bar = p * float(S.max()) ** (p - 1) * var_bound / M
    return value, integral_bar ** (1 / p)


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
        poly = TrigPoly.of({a: 1 for a in A})
        return grid_norms(poly, "L1", M=M)
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
