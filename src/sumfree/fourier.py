"""The grid layer: aligned frequency and coefficient arrays <-> samples on
M equispaced points, the grid L1 norm of a trigonometric polynomial with a
certified error bar, and sup norms bounded from the grid samples alone.

Conventions: frequencies are in cycles, e(t) = exp(2*pi*i*t), and arrays
(n, c) stand for sum_j c_j e(n_j x).  sample_grid and grid_norms both take
their polynomial as such aligned arrays; grid_norms wants the n_j distinct.
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


def grid_norms(freqs: np.ndarray, coeffs: np.ndarray, M: int | None = None):
    """(value, certified error bar) for the L1 norm of sum_j coeffs[j]
    e(freqs[j] x), the frequencies distinct and at least one: a grid mean
    with bar ||g'||_2 / M, as the Riemann-sum error of |g| is at most the
    total variation over one cell, and Var(|g|) <= ||g'||_1 <= ||g'||_2.
    """
    freqs, coeffs = np.asarray(freqs, np.int64), np.asarray(coeffs, complex)
    if not 0 < len(freqs) == len(coeffs) or len(np.unique(freqs)) < len(freqs):
        raise InputError("grid_norms needs aligned arrays of distinct frequencies, at least one")
    d = int(np.abs(freqs).max())
    if M is None:  # the least power of two >= max(8 * degree, 256)
        M = 1 << max(8, (8 * d - 1).bit_length())
    elif M < 8 * max(d, 1):
        raise InputError(f"grid {M} too coarse for degree {d}")
    vals = np.abs(sample_grid(freqs, coeffs, M).samples)
    deriv_l2 = math.sqrt(
        sum((2 * math.pi * n * abs(c)) ** 2 for n, c in zip(freqs.tolist(), coeffs.tolist()))
    )
    return float(vals.mean()), deriv_l2 / M
