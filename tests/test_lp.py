"""Exponential-sum L1 norms and lacunary L1 diagnostics."""

import math

import pytest

from sumfree.errors import InputError
from sumfree.lp import exp_sum_l1, lacunary_l1_diagnostic, triadic_l1_montecarlo
from sumfree.sets import IntegerSet


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
