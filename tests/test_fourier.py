"""The closed-form Fourier references and the grid norm engine."""

import math
from fractions import Fraction

import numpy as np
import pytest

from reference import ZERO, eval_exact, fhat, fhat_t, series_truncated, to_complex
from sumfree.errors import InputError
from sumfree.fourier import grid_norms, sample_grid, sup_factor


def _eval(coeffs, x):
    """sum c_n e(nx) of a float table."""
    ns = np.array(list(coeffs))
    cs = np.array(list(coeffs.values()))
    return complex(np.sum(cs * np.exp(2j * np.pi * ns * x)))


def _arrays(table):
    """The aligned frequency and coefficient arrays of a table {n: c_n}."""
    return np.array(list(table)), np.array(list(table.values()))


def _sample(table, M):
    return sample_grid(*_arrays(table), M)


def test_fhat_values():
    assert fhat(0).is_zero()
    assert fhat(3).is_zero()
    # fhat(1) = -sqrt3/2 in 1/pi units, i.e. -sqrt3/(2 pi)
    assert fhat(1).to_complex() == pytest.approx(-math.sqrt(3) / 2)
    assert fhat(-1).to_complex() == pytest.approx(-math.sqrt(3) / 2)


def test_fhat_conjugate_symmetry():
    for n in range(1, 50):
        assert fhat(-n).to_complex() == pytest.approx(
            fhat(n).to_complex().conjugate()
        )
        assert fhat_t(-n, 1).to_complex() == pytest.approx(
            fhat_t(n, 1).to_complex().conjugate()
        )


def test_fhat_t_values():
    # e(-(2t-1) n/4) sin(n pi/6)/n in 1/pi units
    assert fhat_t(1, 1).to_complex() == pytest.approx(-0.5j)
    assert fhat_t(6, 2).is_zero()
    assert fhat_t(2, 2).to_complex() == pytest.approx(-math.sqrt(3) / 4)


def test_fhat_matches_quadrature():
    # independent numeric oracle: integrate f(x) e(-nx) over [0,1)
    M = 1 << 14
    xs = (np.arange(M) + 0.5) / M
    f = ((xs > 1 / 3) & (xs < 2 / 3)).astype(float) - 1 / 3
    for n in (1, 2, 4, 5, 7):
        num = np.mean(f * np.exp(-2j * np.pi * n * xs))
        assert abs(num - fhat(n).to_complex() / math.pi) < 1e-3


def test_fhat_t_matches_quadrature():
    M = 1 << 14
    xs = (np.arange(M) + 0.5) / M
    f1 = ((xs > 1 / 6) & (xs < 1 / 3)).astype(float) - 1 / 6
    f2 = ((xs > 2 / 3) & (xs < 5 / 6)).astype(float) - 1 / 6
    for n in (1, 2, 3, 5):
        for t, f in ((1, f1), (2, f2)):
            num = np.mean(f * np.exp(-2j * np.pi * n * xs))
            assert abs(num - fhat_t(n, t).to_complex() / math.pi) < 1e-3


def test_series_coefficients():
    f = series_truncated("f", 10)
    assert 3 not in f
    assert f[1].to_complex() == pytest.approx(-math.sqrt(3) / 2)
    gamma = series_truncated("Gamma", 10)
    # Gamma(x) = f(2x): frequency 2n carries fhat(n)
    assert gamma[2].to_complex() == pytest.approx(fhat(1).to_complex())
    assert 1 not in gamma


def test_gamma_is_f_of_2x():
    f = series_truncated("f", 50)
    gamma = series_truncated("Gamma", 100)
    assert gamma == {2 * n: c for n, c in f.items()}


def test_gamma_lambda_from_f1_f2():
    X = 60
    f1 = series_truncated("f1", X)
    f2 = series_truncated("f2", X)
    for sign, kind in ((1, "Gamma"), (-1, "Lambda")):
        combined = {n: f1.get(n, ZERO) + f2.get(n, ZERO).scale(sign) for n in f1 | f2}
        nonzero = {n: c for n, c in combined.items() if not c.is_zero()}
        assert nonzero == series_truncated(kind, X)


def test_lambda_sin_coefficient():
    lam = to_complex(series_truncated("Lambda", 1))
    c1, cm1 = lam[1], lam[-1]
    # sin(2 pi x) coefficient = i(c_1 - c_{-1}); quadrature oracle gives 2/pi
    M = 1 << 14
    xs = (np.arange(M) + 0.5) / M
    f1 = ((xs > 1 / 6) & (xs < 1 / 3)).astype(float) - 1 / 6
    f2 = ((xs > 2 / 3) & (xs < 5 / 6)).astype(float) - 1 / 6
    target = 2 * np.mean((f1 - f2) * np.sin(2 * np.pi * xs))
    value = 1j * (c1 - cm1)
    assert value.imag == pytest.approx(0.0, abs=1e-12)
    assert value.real == pytest.approx(target, abs=1e-3)
    assert value.real == pytest.approx(2 / math.pi)


def test_eval_exact():
    assert eval_exact("f", Fraction(1, 2)) == Fraction(2, 3)
    assert eval_exact("f", Fraction(1, 10)) == Fraction(-1, 3)
    # 1/4 lies inside Omega_1 = (1/6, 1/3)
    assert eval_exact("Gamma", Fraction(1, 4)) == Fraction(2, 3)
    assert eval_exact("Lambda", Fraction(1, 4)) == Fraction(1)
    assert eval_exact("Lambda", Fraction(1, 2)) == Fraction(0)
    with pytest.raises(InputError):
        eval_exact("f", Fraction(1, 3))


def test_series_converges_to_eval():
    # partial sums approach the exact step values away from the jumps
    p = to_complex(series_truncated("f", 3000))
    for x in (Fraction(1, 2), Fraction(1, 10), Fraction(3, 7)):
        assert abs(_eval(p, float(x)) - eval_exact("f", x)) < 0.02


def test_grid_norm_constant():
    value, bar = grid_norms(np.array([0]), np.ones(1))
    assert value == pytest.approx(1.0)
    assert bar == pytest.approx(0.0, abs=1e-12)


def test_grid_norm_cosine():
    cos2 = np.array([1, -1]), np.ones(2)
    value, bar = grid_norms(*cos2)
    assert abs(value - 4 / math.pi) <= bar + 1e-9


def test_linf_bound_is_upper():
    p = to_complex(series_truncated("f", 40))
    grid_max = float(np.max(np.abs(_sample(p, 512).samples)))
    xs = np.linspace(0, 1, 100001)
    brute = max(abs(_eval(p, x)) for x in xs[::100])
    assert grid_max * sup_factor(min(p), max(p), 512) >= brute - 1e-9


@pytest.mark.parametrize("n, c, M", [(5, 0, 64), (40, 17, 512), (100, -60, 2048), (64, 3, 256)])
def test_sup_factor_covers_shifted_dirichlet(n, c, M):
    # e(cx) * sum_{|k| <= n} e(k(x - x0)) has sup 2n + 1 at x0, half a cell
    # from the nearest grid point
    x0 = 1 / (2 * M)
    kernel = {c + k: complex(np.exp(-2j * np.pi * k * x0)) for k in range(-n, n + 1)}
    grid_max = float(np.max(np.abs(_sample(kernel, M).samples)))
    assert grid_max < 2 * n + 1 - 1e-6
    assert grid_max * sup_factor(c - n, c + n, M) >= 2 * n + 1
    with pytest.raises(InputError):
        sup_factor(c - n, c + n, 2 * n)


def test_resolution_error():
    p = to_complex(series_truncated("f", 100))
    with pytest.raises(InputError):
        grid_norms(*_arrays(p), M=64)


def test_grid_norms_refuses_misaligned_arrays():
    # repeated frequencies would add on the grid, and the error bar's
    # derivative norm would count them apart
    with pytest.raises(InputError):
        grid_norms(np.array([1, 2, 1]), np.ones(3))
    with pytest.raises(InputError):
        grid_norms(np.array([1, 2, 3]), np.ones(2))
    with pytest.raises(InputError):
        grid_norms(np.array([], dtype=int), np.ones(0))


def test_grid_round_trip():
    want = to_complex(series_truncated("Lambda", 30))
    g = _sample(want, 512)
    back = g.coefficients()  # indexed by n mod M
    for n, c in want.items():
        assert abs(back[n % 512] - c) < 1e-10


def test_sample_grid_folds_frequencies_mod_M():
    M = 64
    folded = sample_grid(np.array([1, 1 + M]), np.array([1.0, 2.0]), M).samples
    assert np.allclose(folded, sample_grid(np.array([1]), np.array([3.0]), M).samples, atol=1e-12)
