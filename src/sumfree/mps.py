"""The bounded test-function machine witnessing L1 lower bounds.

Given frequencies B = {m_1 < ... < m_M} and weights w, an array aligned
with B, the construction builds Phi with a small certified sup norm whose
coefficients on B stay close to those of per-block Fejer-windowed phase sums
P_k, so that the pairing sum_j w(m_j) Phi-hat(m_j) dominates sum_j |w(m_j)|/j.

Blocks grow geometrically with base b (|B_k| = b^k, remainder in the last
block).  Per block, with C_k = width + 1:

    P_k-hat(m) = tau(m)/|B_k| * (C_k - |m - xi_k|)/C_k   for m in B_k,
    Q_k = FejerWindow( exp(-(u - i H[u])) ),  u = |Ptilde_k| on the grid,

where the exponential of the analytic completion has nonpositive spectrum,
so after an exact projection and the triangular window the support of
Q_k-hat lies in [-w_k, 0] exactly.  The recursion Phi_k = Q_k Phi_{k-1} +
P_k then keeps ||Phi||_inf below 10 because u/10 + exp(-u) <= 1 on [0, 1].

The per-block closeness tolerance and the pairing constant are functions of
the base:  eps(b) = 4 b^{-1/2} / ((1 - b^{-1/2})(1 - b^{-1})) and c(b) =
(1 - eps(b)) / (2b).

The sup bound is read off the build grid.  Products of samples are samples of
products, so the recursion's grid values are Phi(j/M); Phi's spectrum lies in
[-a, b], a = neg_span and b the largest frequency.  Shift by e(-cx), c =
floor((b - a)/2), to the spectrum [-n, n], n = max(b - c, a + c).  If |Phi|
peaks at x0 with phase theta, R = Re(e^{-i theta} e(-cx) Phi) is real of degree
n with |R| <= R(x0) = sup|Phi|, so R(x0 + h) >= sup|Phi| cos(2 pi n h) for |h|
<= 1/(2n) (van der Corput and Schaake, 1935).  The grid point nearest x0 gives
sup|Phi| <= max_j |Phi(j/M)| / cos(pi n/M), at most sqrt 2 times it (n <= M/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MEMORY_BUDGET, InputError, ResourceLimitError
from .fourier import GridFn, sample_grid, sup_factor
from .sets import IntegerSet

# Peak bytes of build_phi per grid point: 32 a block for the P_k and Q_k samples
# the grid phase holds, plus 160 for the rest, which tracemalloc put at 118 or
# less on the densest intervals each grid admits.  PHI_GRID_CAP: one block.
BYTES_PER_GRID_POINT = 160
BYTES_PER_BLOCK_POINT = 32
PHI_GRID_CAP = MEMORY_BUDGET // (BYTES_PER_GRID_POINT + BYTES_PER_BLOCK_POINT)


def epsilon_of_base(b: int) -> float:
    r = b ** -0.5
    return 4 * r / ((1 - r) * (1 - 1 / b))


def pairing_constant(b: int) -> float:
    return (1 - epsilon_of_base(b)) / (2 * b)


def hilbert(samples: np.ndarray) -> np.ndarray:
    """Conjugate-function multiplier -i sgn(n), applied by FFT to samples on
    the M-point grid.  Real samples take a real FFT and give real samples; the
    multiplier is real-linear, so complex samples transform part by part."""
    if np.iscomplexobj(samples):
        return hilbert(samples.real) + 1j * hilbert(samples.imag)
    spec = np.fft.rfft(samples)
    spec[0] = spec[-1] = 0  # the mean and the Nyquist frequency
    spec *= -1j
    return np.fft.irfft(spec, len(samples))


def block_bounds(M: int, b: int) -> list[tuple[int, int]]:
    """Index ranges [lo, hi) of the blocks of M frequencies: |B_0| = 1,
    |B_k| = b^k, remainder absorbed by the last block."""
    if b < 4:
        raise InputError("base must be >= 4")
    ends = [0]
    while b ** len(ends) < M:
        ends.append(ends[-1] + b ** (len(ends) - 1))
    return [(lo, hi) for lo, hi in zip(ends, ends[1:] + [M]) if hi > lo]


def check_grid(blocks: list[tuple[int, int]], M: int) -> int:
    """Phi's negative spectral span for blocks of these (first, last) frequencies,
    once M is checked: a power of two that holds Phi's spectrum alias-free and,
    for each block's Q_k, M >= 4*(b_k + w_k), else InputError; and a build
    within MEMORY_BUDGET, else ResourceLimitError.  No blocks: InputError."""
    if not blocks:
        raise InputError("no frequencies to build Phi on")
    widths = [max(b - a, 1) for a, b in blocks]
    neg_span = sum(widths) + len(widths)
    max_freq = blocks[-1][1]
    if M < 2 * (max_freq + neg_span) or M & (M - 1):
        raise InputError(f"grid {M} cannot hold spectrum [-{neg_span}, {max_freq}] alias-free")
    if any(M < 4 * (b + w) for (_, b), w in zip(blocks, widths)):
        raise InputError("grid too coarse for the block spectrum")
    if M * (BYTES_PER_GRID_POINT + BYTES_PER_BLOCK_POINT * len(blocks)) > MEMORY_BUDGET:
        raise ResourceLimitError(f"{len(blocks)} blocks on grid {M} exceed {MEMORY_BUDGET} bytes")
    return neg_span


def _fejer(d: np.ndarray, C: int) -> np.ndarray:
    """Triangular window weights (C - |d|)/C, for offsets |d| < C."""
    return (C - np.abs(d)) / C


def _width(blk: np.ndarray) -> int:
    """w_k = max(last - first, 1) for the block's sorted frequencies."""
    return max(int(blk[-1] - blk[0]), 1)


def build_pk(blk: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """P_k's coefficients at the block's frequencies blk: tau(m)/|B_k| times
    the triangular window about the centre, tau the block's slice of the
    unimodular phases."""
    window = _fejer(blk - (blk[0] + blk[-1]) // 2, _width(blk) + 1)
    return tau * window / len(blk)


def build_qk(blk: np.ndarray, tau: np.ndarray, M: int) -> np.ndarray:
    """Q_k's coefficients at the frequencies 0, -1, ..., -w_k, which hold its
    whole spectrum, on a grid M that passes check_grid."""
    u = np.abs(sample_grid(blk, tau / len(blk), M).samples)
    v = hilbert(u)
    spec = GridFn(np.exp(-(u - 1j * v))).coefficients()
    d = np.arange(_width(blk) + 1)
    return spec[-d % M] * _fejer(d, len(d))


def _grid_phase(
    blks: list, pks: list, qks: list, M: int
) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    """Sample every P_k and Q_k once; return Phi's samples from the recursion
    Phi_k = Q_k Phi_{k-1} + P_k, their DFT coefficients, the coefficients'
    largest distance from the explicit expansion Phi = sum_k (prod_{j>k} Q_j)
    P_k, and per block max(|P_k|/10 + |Q_k|) on the grid."""
    # One array for all the samples: once glibc's malloc has freed a block this
    # large, it keeps later builds' arrays in its heap instead of the kernel's.
    P, Q = PQ = np.empty((2, len(pks), M), dtype=complex)
    freqs = blks + [-np.arange(len(q)) for q in qks]
    for row, f, c in zip(PQ.reshape(-1, M), freqs, pks + qks):
        row[:] = sample_grid(f, c, M).samples
    phi = P[0]
    for k in range(1, len(P)):
        phi = Q[k] * phi + P[k]
    spec = GridFn(phi).coefficients()
    explicit = np.zeros(M, dtype=complex)
    for k in range(len(P)):
        term = P[k]
        for j in range(k + 1, len(P)):
            term = term * Q[j]
        explicit += term
    agreement = float(np.max(np.abs(GridFn(explicit).coefficients() - spec)))
    pq_sups = [float(np.max(np.abs(p) / 10 + np.abs(q))) for p, q in zip(P, Q)]
    return phi, spec, agreement, pq_sups


@dataclass(frozen=True)
class PhiCertificate:
    base: int
    grid: int
    widths: tuple[int, ...]
    sup_bound: float
    per_block: tuple[dict, ...]
    pairing_value: complex
    pairing_target: float
    pairing_constant: float
    explicit_agreement: float

    def to_json(self) -> dict:
        return {
            "base": self.base,
            "grid": self.grid,
            "widths": list(self.widths),
            "sup_bound": self.sup_bound,
            "per_block": list(self.per_block),
            "pairing": [self.pairing_value.real, self.pairing_value.imag],
            "pairing_target": self.pairing_target,
            "pairing_constant": self.pairing_constant,
            "explicit_agreement": self.explicit_agreement,
        }


def build_phi(B: IntegerSet, weights: np.ndarray, b: int, M: int):
    """Run the recursion and certify every step.

    Returns (Phi's samples on the M-point grid, PhiCertificate).  weights is
    a complex array aligned with B.elements, |w(m)| <= 1; tau(m) =
    conj(w(m))/|w(m)|, and 1 where w(m) = 0.
    """
    weights = np.asarray(weights, dtype=complex)
    if weights.shape != (B.N,):
        raise InputError(f"{weights.size} weights for {B.N} frequencies")
    bounds = block_bounds(B.N, b)
    neg_span = check_grid([(B.elements[lo], B.elements[hi - 1]) for lo, hi in bounds], M)
    freqs = np.array(B.elements)
    mods = np.abs(weights)
    tau = np.divide(weights.conj(), mods, out=np.ones_like(weights), where=mods != 0)
    blks = [freqs[lo:hi] for lo, hi in bounds]
    taus = [tau[lo:hi] for lo, hi in bounds]
    widths = tuple(_width(blk) for blk in blks)
    pks = [build_pk(blk, t) for blk, t in zip(blks, taus)]
    qks = [build_qk(blk, t, M) for blk, t in zip(blks, taus)]
    phi, spec, explicit_agreement, pq_sups = _grid_phase(blks, pks, qks, M)
    coeffs = spec[freqs % M]

    per_block = []
    for k, ((lo, hi), p, q) in enumerate(zip(bounds, pks, qks)):
        c = coeffs[lo:hi]
        ratios = np.abs(c - p) / np.abs(p)
        one_minus_q = q.copy()
        one_minus_q[0] -= 1
        per_block.append(
            {
                "k": k,
                "size": hi - lo,
                "width": widths[k],
                "l2_one_minus_q": float(np.linalg.norm(one_minus_q)),
                "l2_bound": 2 / math.sqrt(hi - lo),
                # q holds frequencies 0, -1, ..., 1 - len(q)
                "support_ok": len(q) <= widths[k] + 1,
                "closeness_ratio": float(np.max(ratios)),
                "coeff_l2": float(np.linalg.norm(c)),
                "pq_sup": pq_sups[k],
            }
        )

    cert = PhiCertificate(
        base=b,
        grid=M,
        widths=widths,
        sup_bound=float(np.max(np.abs(phi))) * sup_factor(-neg_span, max(B), M),
        per_block=tuple(per_block),
        pairing_value=complex(np.sum(weights * coeffs)),
        pairing_target=float(np.sum(mods / np.arange(1, B.N + 1))),
        pairing_constant=pairing_constant(b),
        explicit_agreement=explicit_agreement,
    )
    return phi, cert
