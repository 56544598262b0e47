"""Exhaustive maximum (k,l)-sum-free subset search for small instances.

Branch and bound over descending element order (large elements constrain
sums the most), include-first, pruning branches that cannot beat the best
size found so far.  Each candidate subset is checked from scratch: the
bitsets of its k-fold and l-fold sums are rebuilt from the whole subset at
every node and must not meet.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dilation import extract_certified
from .errors import CertificationError, ResourceLimitError
from .sets import IntegerSet, check_folds, fold_sums, is_kl_sumfree

SIZE_CAP = 22


@dataclass(frozen=True)
class OracleResult:
    best_size: int
    witness: IntegerSet
    explored: int

    def to_json(self) -> dict:
        return {
            "best_size": self.best_size,
            "witness": list(self.witness.elements),
            "explored": self.explored,
        }


def max_sumfree_exact(A: IntegerSet, k: int, l: int) -> OracleResult:
    """Exact maximum; witness is the first optimum found in descending
    include-first order (ties never replace an earlier optimum)."""
    check_folds(A, k, l)  # every subset's sum bitsets are at most A's
    if A.N > SIZE_CAP:
        raise ResourceLimitError(f"instance size {A.N} exceeds cap {SIZE_CAP}")
    elems = sorted(A.elements, reverse=True)
    n = len(elems)
    best: list = [0, ()]
    explored = [0]

    def feasible(chosen: tuple) -> bool:
        if not chosen:
            return True
        return fold_sums(chosen, k) & fold_sums(chosen, l) == 0

    def dfs(i: int, chosen: tuple):
        explored[0] += 1
        if len(chosen) + (n - i) <= best[0]:
            return
        if i == n:
            if len(chosen) > best[0]:
                best[0], best[1] = len(chosen), chosen
            return
        with_e = chosen + (elems[i],)
        if feasible(with_e):
            dfs(i + 1, with_e)
        dfs(i + 1, chosen)

    dfs(0, ())
    witness = IntegerSet.of(best[1])
    if not is_kl_sumfree(witness, k, l):
        raise CertificationError(f"oracle witness {witness.elements} is not ({k},{l})-sum-free")
    return OracleResult(best[0], witness, explored[0])


def compare(A: IntegerSet, k: int, l: int) -> dict:
    """Oracle vs extractor; the dilation method is a lower-bound device, so
    the gap is always >= 0."""
    oracle = max_sumfree_exact(A, k, l)
    cert = extract_certified(A, k, l)
    gap = oracle.best_size - cert.count
    if gap < 0:
        raise CertificationError("extractor exceeded the exhaustive optimum")
    return {
        "oracle": oracle.to_json(),
        "extractor": cert.to_json(),
        "gap": gap,
    }
