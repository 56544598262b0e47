"""Multiplicative characters, the Mobius function, and smooth/rough classes.

The sieving machinery works with two complementary families parametrised by a
prime threshold Q:

* the smooth side N2 = squarefree integers all of whose prime factors are
  <= Q (this includes Q itself), and
* the rough side N1 = integers all of whose prime factors are > Q.

With Q prime these intersect exactly in {1}, and the Mobius sum
sum_{t in N2, t | n} mu(t) is the indicator of n in N1, which is what makes
the coefficientwise sieve identities exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import isqrt

from .errors import InputError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
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


def factorize(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization, (prime, exponent) pairs in order."""
    if n < 1:
        raise InputError(f"positive integer required, got {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def mobius(n: int) -> int:
    if n < 1:
        raise InputError(f"positive integer required, got {n}")
    if n == 1:
        return 1
    m = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        m = -m
    return m


def primes_upto(limit: int) -> list[int]:
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), sieve))


def squarefree_smooth(primes: list[int], limit: int) -> list[int]:
    """Sorted squarefree products of the given primes, capped at `limit`."""
    out = [1]
    for p in primes:
        out.extend([v * p for v in out if v * p <= limit])
    return sorted(v for v in out if v <= limit)


def smooth_squarefree(ctx: SieveContext, limit: int) -> list[int]:
    """N2 intersected with [1, limit]: squarefree with all prime factors <= Q."""
    return squarefree_smooth(primes_upto(ctx.Q), limit)


def odd_smooth_squarefree(ctx: SieveContext, limit: int) -> list[int]:
    """Odd members of N2 up to `limit` (the index set of the Lambda sieve)."""
    return squarefree_smooth([p for p in primes_upto(ctx.Q) if p > 2], limit)


@lru_cache(maxsize=None)
def next_prime_at_least(n: int) -> int:
    p = max(n, 2)
    while not is_prime(p):
        p += 1
    return p
