"""Hilbert transform and the Phi test-function build."""

import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from reference import build_phi_per_block, qk_per_block

from sumfree.cli import RunConfig, run
from sumfree.errors import InputError, ResourceLimitError
from sumfree.fourier import GridFn, sample_grid
from sumfree.mps import (
    BYTES_PER_BLOCK_POINT,
    BYTES_PER_GRID_POINT,
    Q_ONE,
    block_bounds,
    build_phi,
    build_pk,
    build_qk,
    check_grid,
    epsilon_of_base,
    hilbert,
    pairing_constant,
)
from sumfree.sets import IntegerSet, generate


def test_hilbert_multiplier():
    M = 64
    h = hilbert(sample_grid(np.array([1, -1]), np.ones(2), M).samples)
    spec = np.fft.fft(h) / M
    # H(2cos) = 2sin: coefficients -i at n=1, +i at n=-1, nothing else
    assert spec[1] == pytest.approx(-1j)
    assert spec[-1] == pytest.approx(1j)
    assert np.allclose(np.delete(spec, [1, M - 1]), 0, atol=1e-12)
    assert np.allclose(hilbert(np.full(M, 5.0)), 0, atol=1e-12)


def test_hilbert_grid_matches_poly():
    n, c = np.array([-3, -1, 2, 5]), np.ones(4)
    M = 128
    grid_h = hilbert(sample_grid(n, c, M).samples)
    poly_h = sample_grid(n, -1j * np.sign(n) * c, M)
    assert np.allclose(grid_h, poly_h.samples, atol=1e-10)


@pytest.mark.parametrize("seed", range(20))
def test_hilbert_real_fft_matches_complex_multiplier(seed):
    rng = np.random.default_rng(seed)
    M = 1 << int(rng.integers(2, 13))
    x = rng.standard_normal(M)
    mult = np.zeros(M, dtype=complex)
    mult[1 : M // 2] = -1j
    mult[M // 2 + 1 :] = 1j
    h = hilbert(x)
    assert not np.iscomplexobj(h)
    assert np.allclose(h, np.fft.ifft(np.fft.fft(x) * mult), rtol=0, atol=1e-12)


def test_hilbert_writes_into_out():
    rng = np.random.default_rng(3)
    for x in (rng.standard_normal((2, 64)), rng.standard_normal(64) + 1j * rng.standard_normal(64)):
        out = np.empty_like(x)
        assert hilbert(x, out=out) is out
        assert np.array_equal(out, hilbert(x))


def test_constants():
    eps = epsilon_of_base(100)
    assert eps == pytest.approx(0.4489, abs=5e-4)
    assert pairing_constant(100) == pytest.approx((1 - eps) / 200)


def test_pairing_constant_turns_positive_at_base_27():
    # a phi certificate below base 27 states a constant that proves nothing
    assert pairing_constant(26) <= 0 < pairing_constant(27)
    assert all(pairing_constant(b) <= 0 for b in range(4, 27))


def test_partition_blocks():
    B = IntegerSet.of(range(1, 51))
    bounds = block_bounds(B.N, 4)
    sizes = [len(B.elements[lo:hi]) for lo, hi in bounds]
    # |B_0| = 1, |B_1| = 4, remainder goes to the last block
    assert sizes == [1, 4, 45]
    assert len(bounds) - 1 == 2


def test_pk_support_and_mass():
    B = IntegerSet.of(range(1, 51))
    lo, hi = block_bounds(B.N, 4)[2]
    blk = np.array(B.elements[lo:hi])
    pk = build_pk(blk, np.ones(len(blk), dtype=complex))
    # one coefficient per frequency of the block, all inside its interval
    assert len(pk) == len(blk)
    assert all(blk[0] <= m <= blk[-1] for m in blk)
    # center weight is 1/|B_k| by construction
    center = (blk[0] + blk[-1]) // 2
    assert abs(pk[np.searchsorted(blk, center)]) == pytest.approx(1 / len(blk))


def test_qk_support():
    B = IntegerSet.of(range(1, 51))
    lo, hi = block_bounds(B.N, 4)[1]
    blk = np.array(B.elements[lo:hi])
    qk = build_qk([blk], [np.ones(len(blk), dtype=complex)], np.empty((2, 1, 2048), complex))[0]
    width = max(blk[-1] - blk[0], 1)
    # qk holds the coefficients at the frequencies 0, -1, -2, ...
    assert all(-width <= n <= 0 for n in -np.arange(len(qk)))


def test_build_phi_small():
    B = IntegerSet.of(range(1, 51))
    w = np.ones(B.N)
    samples, cert = build_phi(B, w, b=4, M=4096)
    assert cert.sup_bound < 10
    assert cert.explicit_agreement < 1e-8
    # at base 4 the pairing constant is negative, so the bound is weak but
    # must still hold with the recorded constant
    assert cert.pairing_value.real >= cert.pairing_constant * cert.pairing_target
    for row in cert.per_block:
        assert row["support_ok"]
        assert row["l2_one_minus_q"] <= row["l2_bound"] + 1e-6
    # sum_m w(m) Phi-hat(m), Phi-hat read off the returned samples, reproduces
    # the recorded value
    coeffs = GridFn(samples).coefficients()
    pairing = np.sum(w * coeffs[np.array(B.elements) % 4096])
    assert pairing == pytest.approx(cert.pairing_value, rel=1e-9)


def test_build_phi_random_weights():
    B = IntegerSet.of(range(1, 51))
    rng = np.random.default_rng(9)
    w = np.exp(2j * math.pi * rng.random(B.N))
    _, cert = build_phi(B, w, b=4, M=4096)
    assert cert.sup_bound < 10
    assert cert.pairing_value.real >= cert.pairing_constant * cert.pairing_target


@pytest.mark.parametrize("seed", range(10))
def test_coeff_l2_is_the_norm_of_each_block_of_phi_hat(seed):
    rng = np.random.default_rng(seed)
    B = generate("interval", n=int(rng.integers(20, 301)))
    w = rng.random(B.N) * np.exp(2j * math.pi * rng.random(B.N))
    samples, cert = build_phi(B, w, 4, 4096)
    spec = np.fft.fft(samples) / 4096
    blocks = [B.elements[lo:hi] for lo, hi in block_bounds(B.N, 4)]
    assert len(cert.per_block) == len(blocks)
    for row, blk in zip(cert.per_block, blocks):
        assert row["coeff_l2"] == pytest.approx(np.linalg.norm(spec[np.array(blk) % 4096]), rel=1e-12)


def test_default_phi_report_holds_no_per_frequency_table():
    report = run(RunConfig(command="phi"))
    assert len(json.dumps(report, indent=2)) < 16 * 1024


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


def test_build_phi_samples_each_block_once(monkeypatch):
    # every block's P_k, Q_k and the unwindowed phase sum behind Q_k are rows
    # of one transform chain per phase, so the FFT count is the same at any
    # number of blocks: one sampling, Hilbert step and forward FFT for the Q
    # phase, one sampling and two forward FFTs (Phi, explicit) for the grid
    tallies = []
    for size, M in [(50, 4096), (8000, 1 << 16)]:
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, _counting(calls, name, getattr(np.fft, name)))
        B = generate("interval", n=size)
        _, cert = build_phi(B, np.ones(B.N), b=4, M=M)
        monkeypatch.undo()
        tallies.append((len(cert.per_block), Counter(calls)))
    assert tallies == [(blocks, Counter(fft=3, ifft=2, rfft=1, irfft=1)) for blocks in (3, 7)]


def test_phi_profile_samples_only_in_build_phi(monkeypatch):
    calls = []
    monkeypatch.setattr("sumfree.mps.sample_grid", _counting(calls, "sample_grid", sample_grid))
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, _counting(calls, name, getattr(np.fft, name)))
    B = generate("interval", n=50)
    build_phi(B, np.ones(B.N), 4, 4096)
    in_build, calls[:] = list(calls), []
    run(RunConfig(command="report", kind="phi_profile", size=50, base=4, grid=4096))
    assert calls == in_build


@pytest.mark.parametrize("seed", range(40))
def test_sup_bound_covers_fine_grid_max(seed):
    rng = np.random.default_rng(seed)
    B = generate("interval", n=int(rng.integers(20, 301)))
    w = np.exp(2j * math.pi * rng.random(B.N))
    samples, cert = build_phi(B, w, 4, 4096)
    # Phi's spectrum lies in (-2048, 2048); zero-pad it onto 2^18 points
    spec = GridFn(samples).coefficients()
    fine = np.zeros(1 << 18, dtype=complex)
    fine[:2048], fine[-2048:] = spec[:2048], spec[2048:]
    fine_max = float(np.max(np.abs(np.fft.ifft(fine)))) * (1 << 18)
    assert fine_max <= cert.sup_bound <= 10


def _least_grid(B, base):
    """The coarsest grid that check_grid admits for B at this base."""
    blocks = [(B.elements[lo], B.elements[hi - 1]) for lo, hi in block_bounds(B.N, base)]
    M = 4
    while True:
        try:
            check_grid(blocks, M)
            return M
        except InputError:
            M *= 2


def _assert_bitwise_equal(B, w, base, M):
    samples, cert = build_phi(B, w, base, M)
    want_samples, want = build_phi_per_block(B, w, base, M)
    assert np.array_equal(samples, want_samples)
    assert cert.to_json() == want.to_json()


@pytest.mark.parametrize("seed", range(21))
def test_build_phi_bitwise_equals_the_per_block_build(seed):
    # seed % 7 + 1 blocks, which need base**(blocks - 1) < size <= base**blocks:
    # sizes up to 3000, but seven blocks take over 4**6 = 4096 even at base 4
    rng = np.random.default_rng(seed)
    blocks = seed % 7 + 1
    top = 100 if blocks < 3 else max(4, int(3000 ** (1 / (blocks - 1))))
    base = int(rng.integers(4, top + 1))
    lo = base ** (blocks - 1) + 1 if blocks > 1 else 1
    size = int(rng.integers(lo, min(base**blocks, max(3000, lo + 900)) + 1))
    span = size * int(rng.integers(1, 4))
    B = IntegerSet.of((rng.choice(span, size, replace=False) + 1).tolist())
    kind = seed % 3
    w = np.ones(B.N) if kind == 0 else rng.random(B.N) * np.exp(2j * math.pi * rng.random(B.N))
    if kind == 2:
        w[rng.random(B.N) < 0.3] = 0
    M = _least_grid(B, base) << int(rng.integers(0, 2))
    assert len(block_bounds(B.N, base)) == blocks
    _assert_bitwise_equal(B, w, base, M)


@pytest.mark.parametrize("weights", ["unit", "random"])
def test_build_phi_bitwise_equals_the_per_block_build_at_the_defaults(weights):
    B = generate("interval", n=10101)
    rng = np.random.default_rng(5)
    w = np.ones(B.N) if weights == "unit" else np.exp(2j * math.pi * rng.random(B.N))
    _assert_bitwise_equal(B, w, 100, 1 << 17)


@pytest.mark.parametrize("seed", range(8))
def test_one_block_builds_equal_the_per_block_build(seed):
    # B = {m} is one block of one frequency, so the Q phase has no transform
    # rows; 2 <= N <= base is one block of all N frequencies, which runs the
    # transform chain and must not take the one-frequency closed form
    rng = np.random.default_rng(seed)
    base = int(rng.integers(4, 101))
    single = IntegerSet.of([int(rng.integers(1, 10**4))])
    N = int(rng.integers(2, base + 1))
    block = IntegerSet.of((rng.choice(3 * N, N, replace=False) + 1).tolist())
    for B in (single, block):
        assert block_bounds(B.N, base) == [(0, B.N)]
        w = rng.random(B.N) * np.exp(2j * math.pi * rng.random(B.N))
        w[rng.random(B.N) < 0.3] = 0
        _assert_bitwise_equal(B, w, base, _least_grid(B, base))
    # the closed form would read 1 - 1/e here, 0.632; the block's own chain 0.48
    _, cert = build_phi(IntegerSet.of([1, 2]), np.ones(2), 4, 64)
    assert abs(cert.per_block[0]["l2_one_minus_q"] - (1 - math.exp(-1))) > 0.1


def test_one_frequency_q_is_the_closed_form():
    # the transform chain's Q_k for a block of one frequency m: tau e(mx) has
    # modulus 1, so u = 1, H[u] = 0 and Q_k = [1/e, 0] up to rounding, for
    # unimodular tau and for tau = 1, the phase of a zero weight
    rng = np.random.default_rng(33)
    for _ in range(240):
        M = 1 << int(rng.integers(3, 18))
        m = int(rng.integers(1, 2**40))
        tau = np.exp(2j * math.pi * rng.random(1)) if rng.random() < 0.7 else np.ones(1, complex)
        q = qk_per_block(np.array([m]), tau, M)
        assert np.max(np.abs(q - Q_ONE)) <= 1e-15, (M, m, tau)


@pytest.mark.parametrize(
    "size, base, M", [(10101, 100, 1 << 17), (8000, 4, 1 << 16), (16385, 4, 1 << 17)]
)
def test_build_phi_peak_within_bytes_per_grid_point(size, base, M):
    B = generate("interval", n=size)
    w = np.ones(B.N)
    tracemalloc.start()
    try:
        _, cert = build_phi(B, w, base, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = len(cert.per_block)
    assert peak <= (BYTES_PER_GRID_POINT + BYTES_PER_BLOCK_POINT * blocks) * M, peak / M


def test_build_phi_refuses_an_empty_set():
    with pytest.raises(InputError):
        build_phi(IntegerSet(()), np.ones(0), 4, 64)


@pytest.mark.parametrize("n", [49, 51])
def test_build_phi_refuses_weights_of_the_wrong_length(n):
    B = IntegerSet.of(range(1, 51))
    with pytest.raises(InputError):
        build_phi(B, np.ones(n), 4, 4096)


def test_build_phi_refuses_oversized_grid_before_allocating():
    B = IntegerSet.of(range(1, 51))
    w = np.ones(B.N)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            build_phi(B, w, 4, 1 << 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
