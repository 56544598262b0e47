"""Characters, Mobius function, and smooth/rough integer classes."""

from fractions import Fraction

import pytest

from reference import (
    chi3,
    eta,
    factorize,
    is_strictly_rough,
    mobius,
    odd_smooth_squarefree,
    rough_integers,
    sin_pi3,
    smooth_squarefree,
)
from sumfree.arith import PRIME_TEST_BOUND, SieveContext, gamma4, is_prime, primes_upto
from sumfree.errors import InputError

CTX5 = SieveContext(Q=5, P=101)


def test_chi3_values():
    assert chi3(1) == 1
    assert chi3(5) == -1
    assert chi3(6) == 0


def test_chi3_multiplicative():
    for m in range(1, 100):
        for n in range(1, 100):
            assert chi3(m * n) == chi3(m) * chi3(n)


def test_gamma4_values():
    assert gamma4(1) == 1
    assert gamma4(3) == -1
    assert gamma4(2) == 0


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1


def test_mobius_divisor_sum():
    # sum_{d|n} mu(d) = [n == 1]
    for n in range(1, 300):
        s = sum(mobius(d) for d in range(1, n + 1) if n % d == 0)
        assert s == (1 if n == 1 else 0)


def test_primes_upto_matches_trial_division():
    # every limit up to 130, and squares of primes, where the sieve's last
    # crossing-out prime is exactly isqrt(limit)
    for limit in [*range(131), 960, 961, 962, 10201]:
        assert primes_upto(limit) == [p for p in range(limit + 1) if _trial_prime(p)], limit


def _trial_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == _trial_prime(n) for n in range(10**5 + 1))


def test_is_prime_refuses_strong_pseudoprimes():
    # the least strong pseudoprimes to every prime base up to 2, 7, 31 and 37
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(10000000000000061)
    with pytest.raises(InputError):
        is_prime(PRIME_TEST_BOUND)


def test_smooth_squarefree_enumeration():
    assert smooth_squarefree(SieveContext(Q=3, P=101), 10) == [1, 2, 3, 6]
    assert smooth_squarefree(CTX5, 30) == [1, 2, 3, 5, 6, 10, 15, 30]
    assert smooth_squarefree(SieveContext(Q=3, P=101), 1) == [1]


def test_odd_smooth_squarefree():
    assert odd_smooth_squarefree(CTX5, 30) == [1, 3, 5, 15]


def test_rough_meets_smooth_only_at_one():
    smooth = set(smooth_squarefree(CTX5, 500))
    rough = set(rough_integers(500, CTX5.Q))
    assert smooth & rough == {1}


def test_rough_integers_matches_strict_predicate():
    rough = rough_integers(300, CTX5.Q)
    for n in range(1, 301):
        assert (n in rough) == is_strictly_rough(n, CTX5)


def test_rough_integers_prime_bound_and_full_range():
    # bound P - 1 strikes every prime below P, as the sec2_f right side needs
    rough = rough_integers(20000, 100)
    ctx97 = SieveContext(Q=97, P=101)
    assert rough == [n for n in range(1, 20001) if is_strictly_rough(n, ctx97)]
    # the whole requested range is sieved, with no cap below it
    assert rough_integers(2 * 10**6, 5)[-1] == 1999999


def test_eta_values():
    assert eta(7, CTX5) == Fraction(1, 2)
    assert eta(21, CTX5) == Fraction(-3, 2)
    assert eta(1, CTX5) == Fraction(1, 2)
    with pytest.raises(ValueError):
        eta(10, CTX5)


def test_character_identity():
    # (-1)^n sin(n pi/3) = -chi(n) * (sqrt3/2), as exact sqrt3-multiples
    for n in range(1, 1001):
        lhs = sin_pi3(n).scale(Fraction((-1) ** n))
        assert lhs.c == Fraction(-chi3(n), 2)
        assert lhs.a == lhs.b == lhs.d == 0


def test_context_validation():
    with pytest.raises(ValueError):
        SieveContext(Q=4, P=101)
    with pytest.raises(ValueError):
        SieveContext(Q=5, P=100)
