"""The bounded test-function machine witnessing L1 lower bounds.

Given frequencies B = {m_1 < ... < m_M} and weights w, the construction
builds Phi with a small certified sup norm whose coefficients on B stay
close to those of per-block Fejer-windowed phase sums P_k, so that the
pairing sum_j w(m_j) Phi-hat(m_j) dominates sum_j |w(m_j)|/j.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .fourier import GridFn, sample_grid
from .sets import IntegerSet


def epsilon_of_base(b: int) -> float:
    r = b ** -0.5
    return 4 * r / ((1 - r) * (1 - 1 / b))


def pairing_constant(b: int) -> float:
    return (1 - epsilon_of_base(b)) / (2 * b)


def hilbert(samples: np.ndarray) -> np.ndarray:
    """Conjugate-function multiplier -i sgn(n), applied by FFT to samples on
    the M-point grid."""
    M = len(samples)
    mult = np.zeros(M, dtype=complex)
    mult[1 : M // 2] = -1j
    mult[M // 2 + 1 :] = 1j
    return np.fft.ifft(np.fft.fft(samples) * mult)


@dataclass(frozen=True)
class BlockPartition:
    base: int
    blocks: tuple[tuple[int, ...], ...]

    @property
    def k0(self) -> int:
        return len(self.blocks) - 1

    def interval(self, k: int) -> tuple[int, int]:
        blk = self.blocks[k]
        return blk[0], blk[-1]

    def center(self, k: int) -> int:
        a, b = self.interval(k)
        return (a + b) // 2

    def width(self, k: int) -> int:
        a, b = self.interval(k)
        return max(b - a, 1)


def partition_blocks(B: IntegerSet, b: int) -> BlockPartition:
    """|B_0| = 1, |B_k| = b^k, remainder absorbed by the last block."""
    if b < 4:
        raise InputError("base must be >= 4")
    elems = list(B.elements)
    M = len(elems)
    k0 = 0
    while b ** (k0 + 1) < M:
        k0 += 1
    blocks = []
    pos = 0
    for k in range(k0):
        size = b**k
        blocks.append(tuple(elems[pos : pos + size]))
        pos += size
    blocks.append(tuple(elems[pos:]))
    if not blocks[-1]:
        blocks.pop()
    return BlockPartition(b, tuple(blocks))


def _fejer_weight(d: int, C: int) -> float:
    return max(0.0, (C - abs(d)) / C)


def build_pk(part: BlockPartition, k: int, tau) -> dict[int, complex]:
    """Coefficient table of P_k: tau(m)/|B_k| times the triangular window."""
    blk = part.blocks[k]
    xi = part.center(k)
    C = part.width(k) + 1
    return {
        m: tau(m) * _fejer_weight(m - xi, C) / len(blk) for m in blk
    }


def build_qk(part: BlockPartition, k: int, tau, M: int) -> dict[int, complex]:
    """Coefficient table of Q_k, supported exactly in [-w_k, 0]."""
    a, b = part.interval(k)
    if M < 4 * (b + part.width(k)):
        raise InputError("grid too coarse for the block spectrum")
    blk = part.blocks[k]
    u = np.abs(sample_grid({m: tau(m) / len(blk) for m in blk}, M).samples)
    v = hilbert(u).real
    spec = GridFn(np.exp(-(u - 1j * v))).coefficients()
    C = part.width(k) + 1
    out = {}
    for d in range(C):
        c = spec[-d % M] * _fejer_weight(d, C)
        if c != 0:
            out[-d] = complex(c)
    return out


def _unimodular_tau(w) -> callable:
    def tau(m):
        wm = w(m) if callable(w) else w.get(m, 0)
        return 1.0 if wm == 0 else (wm / abs(wm)).conjugate()

    return tau


@dataclass(frozen=True)
class PhiCertificate:
    base: int
    grid: int
    widths: tuple[int, ...]
    sup_bound: float
    coeff_table: dict[int, complex]
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
            "coeff_table": {
                str(m): [c.real, c.imag] for m, c in sorted(self.coeff_table.items())
            },
            "per_block": list(self.per_block),
            "pairing": [self.pairing_value.real, self.pairing_value.imag],
            "pairing_target": self.pairing_target,
            "pairing_constant": self.pairing_constant,
            "explicit_agreement": self.explicit_agreement,
        }


def build_phi(B: IntegerSet, w, b: int = 100, M: int = 1 << 17):
    """Run the recursion and certify every step.

    Returns (coefficient table of Phi, PhiCertificate).  w is a dict or
    callable of weights with |w(m)| <= 1; tau(m) = conj(w(m))/|w(m)|.
    """
    part = partition_blocks(B, b)
    widths = tuple(part.width(k) for k in range(part.k0 + 1))
    max_freq = max(B)
    neg_span = sum(widths) + len(widths)
    if M < 2 * (max_freq + neg_span) or M & (M - 1):
        raise InputError(
            f"grid {M} cannot hold spectrum [-{neg_span}, {max_freq}] alias-free"
        )
    tau = _unimodular_tau(w)
    pks = [build_pk(part, k, tau) for k in range(part.k0 + 1)]
    qks = [build_qk(part, k, tau, M) for k in range(part.k0 + 1)]

    # Recursion on the grid: Phi_k = Q_k * Phi_{k-1} + P_k.
    phi = sample_grid(pks[0], M).samples
    for k in range(1, part.k0 + 1):
        phi = sample_grid(qks[k], M).samples * phi + sample_grid(pks[k], M).samples
    spec = GridFn(phi).coefficients()

    # Explicit expansion: Phi = sum_k (prod_{j>k} Q_j) P_k.
    explicit = np.zeros(M, dtype=complex)
    for k in range(part.k0 + 1):
        term = sample_grid(pks[k], M).samples
        for j in range(k + 1, part.k0 + 1):
            term = term * sample_grid(qks[j], M).samples
        explicit += term
    explicit_agreement = float(
        np.max(np.abs(GridFn(explicit).coefficients() - spec))
    )

    coeff_table = {m: complex(spec[m % M]) for m in B}

    per_block = []
    for k in range(part.k0 + 1):
        blk = part.blocks[k]
        l2_one_minus_q = math.sqrt(
            abs(1 - qks[k].get(0, 0)) ** 2
            + sum(abs(c) ** 2 for d, c in qks[k].items() if d != 0)
        )
        support_ok = all(-part.width(k) <= d <= 0 for d in qks[k])
        ratios = [
            abs(coeff_table[m] - pks[k][m]) / abs(pks[k][m]) for m in blk
        ]
        p_abs = np.abs(sample_grid(pks[k], M).samples)
        pq_sup = float(np.max(p_abs / 10 + np.abs(sample_grid(qks[k], M).samples)))
        per_block.append(
            {
                "k": k,
                "size": len(blk),
                "width": part.width(k),
                "l2_one_minus_q": l2_one_minus_q,
                "l2_bound": 2 / math.sqrt(len(blk)),
                "support_ok": support_ok,
                "closeness_ratio": max(ratios),
                "pq_sup": pq_sup,
            }
        )

    # Certified sup bound on an oversampled grid.
    degree = max(max_freq, neg_span)
    M2 = M
    while math.pi * degree / M2 > 0.05:
        M2 *= 2
    nz = {int(n if n < M // 2 else n - M): complex(c)
          for n, c in enumerate(spec) if abs(c) > 1e-14}
    sup_grid = float(np.max(np.abs(sample_grid(nz, M2).samples)))
    sup_bound = sup_grid / (1 - math.pi * degree / M2)

    elems = list(B.elements)
    wt = lambda m: (w(m) if callable(w) else w.get(m, 0))
    pairing_value = sum(wt(m) * coeff_table[m] for m in elems)
    target = sum(abs(wt(m)) / (j + 1) for j, m in enumerate(elems))
    cert = PhiCertificate(
        base=b,
        grid=M,
        widths=widths,
        sup_bound=sup_bound,
        coeff_table=coeff_table,
        per_block=tuple(per_block),
        pairing_value=complex(pairing_value),
        pairing_target=target,
        pairing_constant=pairing_constant(b),
        explicit_agreement=explicit_agreement,
    )
    return nz, cert
