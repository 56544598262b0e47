"""Set ingestion, structure analysis, the (k,l) domain, sum checks and the interval family."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import MEMORY_BUDGET, InputError, ResourceLimitError

# fold_sums holds at most 5 big ints at once (reach, cur, nxt, a shifted cur
# and the new nxt), and is_kl_sumfree one more, its first fold_sums result
LIVE_SUM_BITSETS = 6


@dataclass(frozen=True)
class IntegerSet:
    """Sorted distinct elements, each exactly an int >= 1 (no bool, float or numpy int)."""

    elements: tuple[int, ...]

    def __post_init__(self):
        elems = self.elements
        if bad := [e for e in elems if type(e) is not int or e < 1]:
            raise InputError(f"elements must be positive integers, got {bad[0]!r}")
        if any(elems[i] >= elems[i + 1] for i in range(len(elems) - 1)):
            raise InputError("elements must be strictly increasing")

    @staticmethod
    def of(values) -> "IntegerSet":
        # keyed by type too, so that no True or 1.0 merges unseen into an equal int
        try:
            return IntegerSet(tuple(sorted({(type(v), v): v for v in values}.values())))
        except TypeError as exc:  # unhashable, unorderable or not iterable
            raise InputError(f"elements must be positive integers: {exc}") from exc

    @property
    def N(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class StructureReport:
    symdiff: tuple[int, ...]
    epsilon: dict[int, int] = field(hash=False)
    cover_indices: tuple[int, ...]
    lacunary_exponent: float
    geometric: bool


def load_set(raw: bytes | str, format: str = "lines") -> IntegerSet:
    """Parse newline-separated decimals or a JSON array; IntegerSet admits
    the values."""
    try:
        text = raw.decode() if isinstance(raw, bytes) else raw
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not UTF-8 text: {exc}") from exc
    if format == "json":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise InputError(f"invalid JSON input: {exc}") from exc
        if not isinstance(data, list):
            raise InputError("JSON input must be an array of integers")
        values = data
    elif format == "lines":
        values = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            tok = line.strip()
            if not tok:
                continue
            try:
                values.append(int(tok))
            except ValueError as exc:
                raise InputError(f"line {lineno}: not an integer: {tok!r}") from exc
    else:
        raise InputError(f"unknown format {format!r}")
    if not values:
        raise InputError("empty input set")
    return IntegerSet.of(values)


def triadic_index(a: int) -> int:
    """The unique k with 3**k <= a < 3**(k+1)."""
    k = 0
    t = 3
    while t <= a:
        t *= 3
        k += 1
    return k


def structure(A: IntegerSet, threshold_exponent: Fraction = Fraction(1, 2)) -> StructureReport:
    """Symmetric difference with 3*A, epsilon labels, triadic cover, and the
    geometric label k = |A sym 3*A| <= ceil(N**(p/q)), exact in integers: an
    integer k is at most ceil(x) iff k - 1 < x, so iff k = 0 or (k-1)**q < N**p."""
    aset = set(A.elements)
    tripled = {3 * a for a in A.elements}
    sym = sorted(aset.symmetric_difference(tripled))
    epsilon = {m: (1 if m in aset else -1) for m in sym}
    cover = tuple(sorted({triadic_index(a) for a in A.elements}))
    n = A.N
    exponent = math.log(len(cover)) / math.log(n) if n >= 2 else 0.0
    p, q = Fraction(threshold_exponent).as_integer_ratio()
    k = len(sym)
    return StructureReport(
        symdiff=tuple(sym),
        epsilon=epsilon,
        cover_indices=cover,
        lacunary_exponent=exponent,
        geometric=k == 0 or (k - 1) ** q < n**p,
    )


def fold_sums(values, fold: int) -> int:
    """Bitset (as int) of all sums of exactly `fold` elements, repetition allowed."""
    reach = 0
    for v in values:
        reach |= 1 << v
    cur = reach
    for _ in range(fold - 1):
        nxt = 0
        for v in values:
            nxt |= cur << v
        cur = nxt
    return cur


def check_kl(k: int, l: int) -> None:
    """InputError unless 1 <= k != l, the domain of every (k,l) question but one arc's."""
    if k < 1 or l < 1 or k == l:
        raise InputError(f"(k,l) needs k, l >= 1 and k != l, got ({k},{l})")


def check_folds(X: IntegerSet, k: int, l: int) -> None:
    """Raise unless (k,l) passes check_kl and the fold_sums bitsets of X, up
    to max(k,l)*max(X) bits each, fit in MEMORY_BUDGET."""
    check_kl(k, l)
    bits = max(k, l) * max(X.elements, default=0)
    if LIVE_SUM_BITSETS * bits // 8 > MEMORY_BUDGET:
        raise ResourceLimitError(f"{bits}-bit sum bitsets exceed the {MEMORY_BUDGET}-byte budget")


def reduced(X: IntegerSet) -> tuple[IntegerSet, int]:
    """(X/g, g) for g = gcd(X), and g = 1 for the empty set.  A subset of X is
    (k,l)-sum-free iff its quotient by g is: every sum is g times a sum of
    the quotient."""
    g = math.gcd(*X.elements) or 1
    return (X, 1) if g == 1 else (IntegerSet(tuple(e // g for e in X.elements)), g)


def is_kl_sumfree(X: IntegerSet, k: int, l: int) -> bool:
    """No k-fold sum of X (repetition allowed) equals an l-fold sum, decided
    on X/gcd(X), whose bitsets are gcd(X) times shorter."""
    X, _ = reduced(X)
    check_folds(X, k, l)
    return fold_sums(X.elements, k) & fold_sums(X.elements, l) == 0


def generate(kind: str, n: int) -> IntegerSet:
    """The interval family {1, ..., n}, the only kind."""
    if kind != "interval":
        raise InputError(f"unknown generator kind {kind!r}")
    if n < 1:
        raise InputError("interval size must be >= 1")
    return IntegerSet(tuple(range(1, n + 1)))
