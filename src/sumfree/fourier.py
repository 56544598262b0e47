"""The grid layer: aligned frequency and coefficient arrays <-> samples on
M equispaced points, and grid norms of trigonometric polynomials with
certified error bars, sup norms bounded from the grid samples alone.

Conventions: frequencies are in cycles, e(t) = exp(2*pi*i*t), and arrays
(n, c) stand for sum_j c_j e(n_j x).  grid_norms takes its polynomial as a
table {n: c_n}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class GridFn:
    """Complex samples at the M equispaced points j/M, M a power of two."""

    samples: np.ndarray

    def __post_init__(self):
        M = len(self.samples)
        if M < 4 or M & (M - 1):
            raise InputError("grid size must be a power of two >= 4")

    @property
    def M(self) -> int:
        return len(self.samples)

    def coefficients(self) -> np.ndarray:
        """DFT coefficients c_n indexed by n mod M (c = fft(samples)/M)."""
        return np.fft.fft(self.samples) / self.M


def sample_grid(freqs: np.ndarray, coeffs: np.ndarray, M: int) -> GridFn:
    """Samples of sum_j coeffs[j] e(freqs[j] x) on the M-point grid, via an
    inverse FFT.  Frequencies fold mod M and equal ones add, so the samples
    are exact only when M exceeds the spread of the spectrum."""
    spec = np.zeros(M, dtype=complex)
    np.add.at(spec, freqs % M, coeffs)
    samples = np.fft.ifft(spec)
    samples *= M
    return GridFn(samples)


def sup_factor(lo: int, hi: int, M: int) -> float:
    """1/cos(pi*n/M), n = max(hi - c, c - lo), c = floor((lo + hi)/2): every f
    with spectrum in [lo, hi] has sup|f| <= this times max_j |f(j/M)| (van der
    Corput and Schaake; argument in the mps docstring).  InputError unless 2n < M."""
    c = (lo + hi) // 2
    n = max(hi - c, c - lo)
    if 2 * n >= M:
        raise InputError(f"grid {M} too coarse for spectrum [{lo}, {hi}]")
    return 1 / math.cos(math.pi * n / M)


def grid_norms(coeffs: dict[int, complex], which: str, M: int | None = None) -> tuple[float, float]:
    """(value, certified error bar) for L1 / L2 / Linf of the table {n: c_n}.

    L2 is exact via the coefficient table (Parseval, bar 0); L1 is a grid
    mean with bar ||g'||_2 / M (the Riemann-sum error of |g| is at most the
    total variation over one cell, and Var(|g|) <= ||g'||_1 <= ||g'||_2);
    Linf reports the grid max with bar closing the gap to the certified upper
    bound gridmax * sup_factor(lo, hi, M), [lo, hi] the table's spectrum.
    """
    if which not in ("L1", "L2", "Linf"):
        raise InputError("which must be L1, L2 or Linf")
    if which == "L2":
        return math.sqrt(sum(abs(c) ** 2 for c in coeffs.values())), 0.0
    d = max(map(abs, coeffs), default=0)
    if M is None:  # the least power of two >= max(8 * degree, 256)
        M = 1 << max(8, (8 * d - 1).bit_length())
    elif M < 8 * max(d, 1):
        raise InputError(f"grid {M} too coarse for degree {d}")
    freqs = np.fromiter(coeffs, np.int64, len(coeffs))
    values = np.fromiter(coeffs.values(), complex, len(coeffs))
    vals = np.abs(sample_grid(freqs, values, M).samples)
    if which == "L1":
        deriv_l2 = math.sqrt(
            sum((2 * math.pi * abs(n) * abs(c)) ** 2 for n, c in coeffs.items())
        )
        return float(vals.mean()), deriv_l2 / M
    gmax = float(vals.max())
    return gmax, gmax * (sup_factor(min(coeffs, default=0), max(coeffs, default=0), M) - 1)
