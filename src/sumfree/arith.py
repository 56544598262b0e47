"""Primes, the character gamma mod 4, and the sieve thresholds.

The sieving machinery works with two complementary families parametrised by a
prime threshold Q:

* the smooth side N2 = squarefree integers all of whose prime factors are
  <= Q (this includes Q itself), and
* the rough side N1 = integers all of whose prime factors are > Q.

With Q prime these intersect exactly in {1}, and the Mobius sum
sum_{t in N2, t | n} mu(t) is the indicator of n in N1, which is what makes
the coefficientwise sieve identities exact.  Both classes, with the Mobius
signs of N2, are read off one numpy table in sieve.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import isqrt

from .errors import InputError


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases up to 41, exact below PRIME_TEST_BOUND
    (Sorenson and Webster 2015); InputError at or above it."""
    if n >= PRIME_TEST_BOUND:
        raise InputError(f"primality is decided below {PRIME_TEST_BOUND}, got {n}")
    if n < 2 or any(n % b == 0 for b in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in _BASES:
        x = pow(a, d, n)
        if x != 1 and n - 1 not in (pow(x, 1 << r, n) for r in range(s)):
            return False
    return True


@dataclass(frozen=True)
class SieveContext:
    """Thresholds for the sieving pipeline.

    Q is the smooth/rough cut; P is the (independent) threshold used by the
    balanced-function sieve with index set of squarefree integers generated
    by primes strictly below P.  The two are deliberately not reconciled.
    """

    Q: int = 5
    P: int = 101

    def __post_init__(self):
        if self.Q < 3 or not is_prime(self.Q):
            raise InputError(f"Q must be a prime >= 3, got {self.Q}")
        if not is_prime(self.P):
            raise InputError(f"P must be prime, got {self.P}")


def gamma4(n: int) -> int:
    """Multiplicative character mod 4: 1, -1, 0 for n = 1, 3, even (mod 4)."""
    r = n % 4
    return 1 if r == 1 else (-1 if r == 3 else 0)


def primes_upto(limit: int) -> list[int]:
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), sieve))


def next_prime_at_least(n: int) -> int:
    p = max(n, 2)
    while not is_prime(p):
        p += 1
    return p
