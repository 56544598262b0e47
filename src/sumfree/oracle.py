"""Exhaustive maximum (k,l)-sum-free subset search for small instances.

Forward-checked branch and bound over descending element order (large
elements constrain sums the most), include-first.  Each DFS frame carries
folds, the bitsets F_j of the j-fold sums of its chosen subset for
j = 1, ..., L = max(k, l) (folds[j - 1] = F_j), and its candidates: the
remaining elements, in descending order, each of which the subset admits.
Adding e updates the bitsets incrementally, F'_j = F_j | F'_{j-1} << e with
F'_0 = 1 (the empty sum), which is the OR over t <= j of F_{j-t} << t*e, and
e is admitted iff F'_k & F'_l == 0.  Including the first candidate keeps
only the later ones the grown subset admits; excluding it drops it.

A frame is pruned when len(chosen) + len(candidates) <= best, which drops
only subtrees that hold no strict improvement.  The witness is still the
first optimum in descending include-first order: an element a subset does
not admit is refused by every superset too, so dropping it only skips the
failed includes of a search that tries every remaining element, in the same
order.  Every element of that first optimum is a candidate all along its
path, so the bound never prunes the path before best reaches its size.

The search runs on A/gcd(A): sums of A are gcd(A) times sums of the
quotient, so its trace, best size and node count are the same, and the
witness is scaled back.

Memory: the DFS stack holds up to N + 1 frames of L bitsets of at most
L*max(A/gcd(A)) bits (candidates are plain ints), one admission test at a time
builds L more, and each fold update holds one shifted temporary; so
(N + 2)(L + 1) such bitsets are checked against the budget before the search
starts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dilation import extract_certified
from .errors import MEMORY_BUDGET, CertificationError, ResourceLimitError
from .sets import IntegerSet, check_folds, is_kl_sumfree, reduced

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
    A, g = reduced(A)
    check_folds(A, k, l)  # every subset's sum bitsets are at most A's
    if A.N > SIZE_CAP:
        raise ResourceLimitError(f"instance size {A.N} exceeds cap {SIZE_CAP}")
    L = max(k, l)
    # N + 1 stack frames and one admission test, each L bitsets of L*max(A)
    # bits and a shifted temporary
    if (A.N + 2) * (L + 1) * L * max(A.elements, default=0) // 8 > MEMORY_BUDGET:
        raise ResourceLimitError(f"the search's sum bitsets exceed the {MEMORY_BUDGET}-byte budget")
    best: list = [0, ()]
    explored = [0]

    def grow(folds: list, e: int) -> list:
        new, prev = [], 1
        for f in folds:
            prev = f | prev << e
            new.append(prev)
        return new

    def dfs(chosen: tuple, folds: list, cands: list):
        explored[0] += 1
        if len(chosen) + len(cands) <= best[0]:
            return
        if not cands:
            best[0], best[1] = len(chosen), chosen
            return
        e, rest = cands[0], cands[1:]
        new = grow(folds, e)
        admitted = []
        for c in rest:
            g = grow(new, c)
            if g[k - 1] & g[l - 1] == 0:
                admitted.append(c)
        dfs(chosen + (e,), new, admitted)
        dfs(chosen, folds, rest)

    # k != l, so the empty subset admits every element
    dfs((), [0] * L, sorted(A.elements, reverse=True))
    witness = IntegerSet.of(g * e for e in best[1])
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
