"""Exact Fourier expansions of the balanced arc functions and a float grid
engine for norms of trigonometric polynomials.

Conventions: frequencies are in cycles, e(t) = exp(2*pi*i*t), and a TrigPoly
stores the exponential-form coefficient table {n: c_n} for sum c_n e(nx),
together with a shared symbolic prefactor (typically 1/pi) so that identity
checks compare pure algebraic numbers.

The balanced functions are
    f  = 1_(1/3,2/3) - 1/3      fhat(n)  = (-1)^n sin(n pi/3) / (pi n)
    f_t = 1_{Omega_t} - 1/6     fhat_t(n) = e(-(2t-1)n/4) sin(n pi/6) / (pi n)
with Omega_1 = (1/6,1/3), Omega_2 = (2/3,5/6), and Gamma = f1 + f2 (which
coincides with x -> f(2x)), Lambda = f1 - f2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arcs import OMEGA_21, OMEGA_1, OMEGA_2
from .errors import InputError
from .exactnum import (
    ExactScalar,
    Prefactor,
    PF_ONE,
    PF_PI_INV,
    ZERO,
    e_quarter,
    sin_pi3,
    sin_pi6,
)

SERIES_KINDS = ("f", "f1", "f2", "Gamma", "Lambda")


@dataclass(frozen=True)
class TrigPoly:
    """Sparse exact trigonometric polynomial: prefactor * sum c_n e(nx)."""

    coeffs: dict[int, ExactScalar] = field(hash=False)
    prefactor: Prefactor = PF_ONE

    @staticmethod
    def of(entries, prefactor: Prefactor = PF_ONE) -> "TrigPoly":
        coeffs = {}
        for n, c in dict(entries).items():
            if not isinstance(c, ExactScalar):
                c = ExactScalar.of(Fraction(c))
            if not c.is_zero():
                coeffs[int(n)] = c
        return TrigPoly(coeffs, prefactor)

    def coeff(self, n: int) -> ExactScalar:
        return self.coeffs.get(n, ZERO)

    @property
    def degree(self) -> int:
        return max((abs(n) for n in self.coeffs), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_prefactor(self, other: "TrigPoly") -> None:
        if other.prefactor != self.prefactor:
            raise InputError(f"prefactors differ: {self.prefactor} vs {other.prefactor}")

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        self._check_prefactor(other)
        coeffs = dict(self.coeffs)
        for n, c in other.coeffs.items():
            coeffs[n] = coeffs.get(n, ZERO) + c
        return TrigPoly.of(coeffs, self.prefactor)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + other.scale(ExactScalar.of(-1))

    def scale(self, s) -> "TrigPoly":
        if not isinstance(s, ExactScalar):
            s = ExactScalar.of(Fraction(s))
        return TrigPoly.of(
            {n: c * s for n, c in self.coeffs.items()}, self.prefactor
        )

    def defect(self, other: "TrigPoly") -> tuple[ExactScalar, int | None]:
        """(coefficient difference of largest float magnitude, witness freq)."""
        self._check_prefactor(other)
        worst, witness = ZERO, None
        for n in set(self.coeffs) | set(other.coeffs):
            d = self.coeff(n) - other.coeff(n)
            if not d.is_zero() and (
                witness is None or d.abs_upper() > worst.abs_upper()
            ):
                worst, witness = d, n
        return worst, witness

    def equals(self, other: "TrigPoly") -> bool:
        return self.defect(other)[0].is_zero()

    def to_complex_coeffs(self) -> dict[int, complex]:
        pf = self.prefactor.to_float()
        return {n: pf * c.to_complex() for n, c in self.coeffs.items()}

    def eval_float(self, x: float) -> complex:
        pf = self.prefactor.to_float()
        return pf * sum(
            c.to_complex() * cmath.exp(2j * math.pi * n * x)
            for n, c in self.coeffs.items()
        )


def fhat(n: int) -> ExactScalar:
    """Coefficient of e(nx) in f = 1_(1/3,2/3) - 1/3, in units of 1/pi.

    Equals (-1)^n sin(n pi/3)/n, i.e. -(sqrt3/2) chi(n)/n; zero at n = 0.
    """
    if n == 0:
        return ZERO
    sign = 1 if n % 2 == 0 else -1
    return sin_pi3(n).scale(Fraction(sign, n))


def fhat_t(n: int, t: int) -> ExactScalar:
    """Coefficient of e(nx) in f_t = 1_{Omega_t} - 1/6, in units of 1/pi.

    Equals e(-(2t-1)n/4) sin(n pi/6)/n; zero at n = 0.
    """
    if t not in (1, 2):
        raise InputError("t must be 1 or 2")
    if n == 0:
        return ZERO
    return (e_quarter(-(2 * t - 1) * n) * sin_pi6(n)).scale(Fraction(1, n))


def series_truncated(kind: str, X: int) -> TrigPoly:
    """Exact expansion of f / f1 / f2 / Gamma / Lambda up to frequency X.

    Gamma = f1 + f2 has support on even frequencies only (it is f dilated by
    2), so its terms sit at +-2n.  All series share the 1/pi prefactor.
    """
    if kind not in SERIES_KINDS:
        raise InputError(f"unknown series kind {kind!r}")
    if X < 1:
        raise InputError("cutoff must be >= 1")
    coeffs = {}
    for n in range(-X, X + 1):
        if n == 0:
            continue
        if kind == "f":
            c = fhat(n)
        elif kind == "f1":
            c = fhat_t(n, 1)
        elif kind == "f2":
            c = fhat_t(n, 2)
        elif kind == "Gamma":
            c = fhat_t(n, 1) + fhat_t(n, 2)
        else:
            c = fhat_t(n, 1) - fhat_t(n, 2)
        coeffs[n] = c
    return TrigPoly.of(coeffs, PF_PI_INV)


_REGIONS = {
    "f": (OMEGA_21, Fraction(1, 3)),
    "f1": (OMEGA_1, Fraction(1, 6)),
    "f2": (OMEGA_2, Fraction(1, 6)),
}


def eval_exact(kind: str, x) -> Fraction:
    """Indicator-based exact value; raises InputError at jump points."""
    if kind not in SERIES_KINDS:
        raise InputError(f"unknown series kind {kind!r}")
    x = Fraction(x) % 1
    if kind == "Gamma":
        return eval_exact("f1", x) + eval_exact("f2", x)
    if kind == "Lambda":
        return eval_exact("f1", x) - eval_exact("f2", x)
    O, mean = _REGIONS[kind]
    for lo, hi in O.arcs:
        if x == lo % 1 or x == hi % 1:
            raise InputError(f"{x} is a jump point of {kind}")
    return (1 if O.contains(x) else 0) - mean


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


def grid_size(degree: int, M: int | None = None) -> int:
    """M checked against the 8x-degree rule of the certified norms, or by
    default the least power of two >= max(8 * degree, 256)."""
    if M is None:
        return 1 << max(8, (8 * degree - 1).bit_length())
    if M < 8 * max(degree, 1):
        raise InputError(f"grid {M} too coarse for degree {degree}")
    return M


def sample_grid(p, M: int) -> GridFn:
    """Samples of a TrigPoly or an {n: complex} table on the M-point grid,
    via an inverse FFT.  Frequencies fold mod M, so the samples are exact
    only when M exceeds the spread of the spectrum."""
    coeffs = p.to_complex_coeffs() if isinstance(p, TrigPoly) else p
    spec = np.zeros(M, dtype=complex)
    for n, c in coeffs.items():
        spec[n % M] += c
    return GridFn(np.fft.ifft(spec) * M)


def grid_norms(p, which: str, M: int | None = None) -> tuple[float, float]:
    """(value, certified error bar) for L1 / L2 / Linf.

    For a TrigPoly: L2 is exact via the coefficient table (Parseval, bar 0);
    L1 is a grid mean with bar ||g'||_2 / M (the Riemann-sum error of |g| is
    at most the total variation over one cell, and Var(|g|) <= ||g'||_1 <=
    ||g'||_2); Linf reports the grid max with bar closing the gap to the
    certified upper bound gridmax / (1 - pi*degree/M), from the Bernstein
    derivative inequality.  For a bare GridFn only grid values are available
    and the bar is infinite (unknown degree).
    """
    if which not in ("L1", "L2", "Linf"):
        raise InputError("which must be L1, L2 or Linf")
    if isinstance(p, GridFn):
        vals = np.abs(p.samples)
        if which == "L1":
            return float(vals.mean()), math.inf
        if which == "L2":
            return float(math.sqrt((vals**2).mean())), math.inf
        return float(vals.max()), math.inf
    d = p.degree
    cc = p.to_complex_coeffs()
    if which == "L2":
        return math.sqrt(sum(abs(c) ** 2 for c in cc.values())), 0.0
    M = grid_size(d, M)
    vals = np.abs(sample_grid(cc, M).samples)
    if which == "L1":
        deriv_l2 = math.sqrt(
            sum((2 * math.pi * abs(n) * abs(c)) ** 2 for n, c in cc.items())
        )
        return float(vals.mean()), deriv_l2 / M
    gmax = float(vals.max())
    upper = gmax / (1 - math.pi * d / M)
    return gmax, upper - gmax
