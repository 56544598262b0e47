"""Exhaustive maximum (k,l)-sum-free subset search for small instances.

Branch and bound over descending element order (large elements constrain
sums the most), include-first, pruning branches that cannot beat the best
size found so far.  Each DFS frame carries folds[j], the bitset of the j-fold
sums of its chosen subset for j <= L = max(k, l) (folds[0] = 1, the empty
sum).  Adding e updates them incrementally, new[j] = folds[j] | new[j-1] << e,
which is the OR over t <= j of folds[j-t] << t*e, and the candidate is
feasible iff new[k] & new[l] == 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dilation import extract_certified
from .errors import MEMORY_BUDGET, CertificationError, ResourceLimitError
from .sets import IntegerSet, check_folds, is_kl_sumfree

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
    L = max(k, l)
    # the DFS stack holds up to N + 1 frames of L + 1 bitsets of L*max(A) bits
    if (A.N + 1) * (L + 1) * L * max(A.elements, default=0) // 8 > MEMORY_BUDGET:
        raise ResourceLimitError(f"the search's sum bitsets exceed the {MEMORY_BUDGET}-byte budget")
    elems = sorted(A.elements, reverse=True)
    n = len(elems)
    best: list = [0, ()]
    explored = [0]

    def dfs(i: int, chosen: tuple, folds: list):
        explored[0] += 1
        if len(chosen) + (n - i) <= best[0]:
            return
        if i == n:
            if len(chosen) > best[0]:
                best[0], best[1] = len(chosen), chosen
            return
        e = elems[i]
        new = [1]
        for f in folds[1:]:
            new.append(f | new[-1] << e)
        if new[k] & new[l] == 0:
            dfs(i + 1, chosen + (e,), new)
        dfs(i + 1, chosen, folds)

    dfs(0, (), [1] + [0] * L)
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
