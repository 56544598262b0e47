"""Triadic block decomposition and lacunary L1 diagnostics."""

import math

import pytest

from sumfree.errors import InputError
from sumfree.exactnum import ExactScalar, PF_ONE
from sumfree.fourier import TrigPoly
from sumfree.lp import (
    decompose,
    exp_sum_l1,
    lacunary_l1_diagnostic,
    recompose,
    square_function_lp,
    triadic_l1_montecarlo,
)
from sumfree.sets import IntegerSet, triadic_index


def _unit_poly(freqs):
    return TrigPoly.of({n: ExactScalar.of(1) for n in freqs}, PF_ONE)


def test_decompose_blocks():
    p = _unit_poly([1, 2, 4, 9, 10, 30, 81])
    d = decompose(p)
    assert d.occupied == (0, 1, 2, 3, 4)
    for k, block in d.blocks.items():
        for n in block.coeffs:
            assert triadic_index(n) == k


def test_decompose_rejects_nonpositive():
    with pytest.raises(ValueError):
        decompose(_unit_poly([-1, 2]))


def test_recompose_round_trip():
    p = _unit_poly([1, 3, 5, 11, 27, 40])
    assert recompose(decompose(p)).equals(p)


def test_square_function_l2_is_parseval():
    p = _unit_poly([1, 2, 9, 28])
    value, bar = square_function_lp(decompose(p), 2)
    assert bar == 0.0
    assert value == pytest.approx(2.0)  # sqrt(4 unit coefficients)


def test_square_function_lp_monotone():
    p = _unit_poly([1, 4, 10, 28, 81])
    d = decompose(p)
    l2, _ = square_function_lp(d, 2)
    l4, bar4 = square_function_lp(d, 4)
    assert l4 + bar4 >= l2 - 1e-9


def test_montecarlo_single_frequency():
    mean, bar = triadic_l1_montecarlo(1, samples=20000, seed=1)
    assert mean == pytest.approx(1.0, abs=1e-9)


def test_montecarlo_matches_grid():
    # |e(x) + e(3x)| has L1 = 4/pi; both engines must agree
    freqs = IntegerSet.of([1, 3])
    grid_value, grid_bar = exp_sum_l1(freqs)
    mc, mc_bar = triadic_l1_montecarlo(2, samples=200000, seed=2)
    assert abs(grid_value - 4 / math.pi) <= grid_bar + 1e-6
    assert abs(mc - grid_value) <= mc_bar + grid_bar


def test_lacunary_diagnostic():
    family = [IntegerSet.of([3**j for j in range(n)]) for n in (8, 16, 32)]
    d = lacunary_l1_diagnostic(family, seed=3)
    assert len(d["rows"]) == 3
    for row in d["rows"]:
        assert row["l1"] > 0
        assert row["l1_error"] > 0
    assert d["worst_case_exponent"] <= d["fitted_exponent"] + 0.5
    assert d["fitted_exponent"] > 1 / 3


def test_lacunary_needs_three_sets():
    family = [IntegerSet.of([1, 3]), IntegerSet.of([1, 3, 9])]
    with pytest.raises(InputError):
        lacunary_l1_diagnostic(family)
    # three sets of one size leave the slope undetermined
    with pytest.raises(InputError):
        lacunary_l1_diagnostic([IntegerSet.of([1])] * 3)
