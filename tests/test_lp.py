"""Exponential-sum L1 norms and lacunary L1 diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest

from reference import lacunary_rows_per_chain
from sumfree.errors import InputError, ResourceLimitError
from sumfree.lp import CHAIN_STEP_CAP, _add_e, _triadic_chain, exp_sum_l1, lacunary_l1_diagnostic
from sumfree.sets import IntegerSet


def test_montecarlo_single_frequency():
    mean, bar = _triadic_chain({1}, 20000, 1)[1]
    assert mean == pytest.approx(1.0, abs=1e-9)


def test_montecarlo_matches_grid():
    # |e(x) + e(3x)| has L1 = 4/pi; both engines must agree
    freqs = IntegerSet.of([1, 3])
    grid_value, grid_bar = exp_sum_l1(freqs)
    mc, mc_bar = _triadic_chain({2}, 200000, 2)[2]
    assert abs(grid_value - 4 / math.pi) <= grid_bar + 1e-6
    assert abs(mc - grid_value) <= mc_bar + grid_bar


def test_exp_sum_l1_refuses_an_empty_set():
    # the grid needs at least one frequency
    with pytest.raises(InputError, match="at least one"):
        exp_sum_l1(IntegerSet.of([]))


def test_lacunary_diagnostic():
    d = lacunary_l1_diagnostic((8, 16, 32), seed=3)
    assert len(d["rows"]) == 3
    for row in d["rows"]:
        assert row["l1"] > 0
        assert row["l1_error"] > 0
    assert d["worst_case_exponent"] <= d["fitted_exponent"] + 0.5
    assert d["fitted_exponent"] > 1 / 3


def test_lacunary_needs_three_sets():
    with pytest.raises(InputError):
        lacunary_l1_diagnostic((2, 3))
    # three sets of one size leave the slope undetermined
    with pytest.raises(InputError):
        lacunary_l1_diagnostic((1, 1, 1))


def test_lacunary_refuses_an_empty_set():
    # size 0 is the empty family member {3^j : j < 0}
    with pytest.raises(InputError):
        lacunary_l1_diagnostic((0, 1, 2))


def test_lacunary_refuses_a_chain_past_its_step_cap(monkeypatch):
    def no_sampling(seed):
        raise AssertionError("sampled before the budget check")

    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    with pytest.raises(ResourceLimitError, match=str(CHAIN_STEP_CAP)):
        lacunary_l1_diagnostic((16, 32, CHAIN_STEP_CAP + 1))


@pytest.mark.parametrize("sizes", [(16, 32, 64), (8, 16, 32), (9, 14, 17, 23)])
@pytest.mark.parametrize("seed", [0, 1, 7, 42, 909])
def test_shared_chain_matches_one_chain_per_size(sizes, seed):
    # (8, 16, 32) mixes a grid row with two sampled rows; (9, 14, 17, 23)
    # does too, and its sampled sizes cut the chain's groups of four steps short
    rows = lacunary_l1_diagnostic(sizes, seed=seed)["rows"]
    for row, ref in zip(rows, lacunary_rows_per_chain(sizes, seed=seed)):
        assert row["N"] == ref["N"]
        assert row["l1"] == pytest.approx(ref["l1"], rel=1e-12, abs=0)
        assert row["l1_error"] == pytest.approx(ref["l1_error"], rel=1e-12, abs=0)


def test_shared_chain_draws_once_per_step(monkeypatch):
    # one chain per size draws 16 + 32 + 64 = 112 times
    class Counting:
        def __init__(self, rng):
            self.rng = rng
            self.draws = 0

        def random(self, n):
            return self.rng.random(n)

        def integers(self, *args):
            self.draws += 1
            return self.rng.integers(*args)

    made = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        made.append(Counting(default_rng(seed)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    lacunary_l1_diagnostic((16, 32, 64), seed=5)
    assert [rng.draws for rng in made] == [64]


def test_table_exponential_matches_np_exp():
    d = np.arange(3**8 + 1) / 3**8
    table = np.exp(2j * math.pi * d)
    y = np.concatenate(
        [
            np.random.default_rng(11).random(10**6),
            d,
            np.nextafter(d[1:], 0),
            np.nextafter(d[:-1], 1),
        ]
    )
    total = np.zeros(len(y), dtype=complex)
    _add_e(total, y, table)
    assert np.max(np.abs(total - np.exp(2j * math.pi * y))) <= 1e-14


@pytest.mark.parametrize("terms", [1, 2, 3, 4])
def test_cubed_terms_match_exact_fractional_parts(terms):
    # y = k/2^53 makes the fractional part of 3^m*y exactly (3^m*k mod 2^53)/2^53
    table = np.exp(2j * math.pi * np.arange(3**8 + 1) / 3**8)
    k = np.random.default_rng(0).integers(0, 2**53, 10**6)
    want = sum(np.exp(2j * math.pi * ((3**m * k) % 2**53) / 2.0**53) for m in range(terms))
    total = np.ones(len(k), dtype=complex)
    _add_e(total, k / 2.0**53, table, terms)
    assert np.max(np.abs(total - 1 - want)) <= 1e-13


def test_chain_peak_within_33_bytes_a_sample():
    # y, the complex total and one step's draw, however many steps and sizes
    samples = 200_000
    _triadic_chain({1}, 1000)  # numpy's first-call allocations are not the chain's
    tracemalloc.start()
    try:
        _triadic_chain({16, 32, 64}, samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 33 * samples
