"""Exhaustive maximum sum-free subset oracle."""

import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from reference import max_sumfree_forward_rebuild, max_sumfree_rebuild
from sumfree.dilation import extract_certified
from sumfree.errors import CertificationError, ResourceLimitError
from sumfree.oracle import OracleResult, compare, max_sumfree_exact
from sumfree.sets import IntegerSet, check_folds, is_kl_sumfree


def test_oracle_small():
    r = max_sumfree_exact(IntegerSet.of([1, 2, 3]), 2, 1)
    assert isinstance(r, OracleResult)
    assert r.best_size == 2
    assert r.witness.elements == (2, 3)
    assert r.to_json() == {"best_size": 2, "witness": [2, 3], "explored": r.explored}


def test_oracle_interval():
    r = max_sumfree_exact(IntegerSet.of(range(1, 6)), 2, 1)
    assert r.best_size == 3
    assert r.witness.elements == (3, 4, 5)


def test_oracle_rejects_equal_kl():
    with pytest.raises(ValueError):
        max_sumfree_exact(IntegerSet.of([1, 2]), 2, 2)


def test_oracle_cap():
    with pytest.raises(ResourceLimitError):
        max_sumfree_exact(IntegerSet.of(range(1, 30)), 2, 1)


def test_witness_verifies():
    rng = random.Random(31)
    for _ in range(20):
        A = IntegerSet.of(sorted(rng.sample(range(1, 80), rng.randint(3, 12))))
        r = max_sumfree_exact(A, 2, 1)
        assert is_kl_sumfree(r.witness, 2, 1)
        assert r.witness.N == r.best_size


def test_extractor_never_beats_oracle():
    rng = random.Random(37)
    for _ in range(20):
        A = IntegerSet.of(sorted(rng.sample(range(1, 100), rng.randint(3, 12))))
        report = compare(A, 2, 1)
        assert report["gap"] >= 0
        assert report["extractor"]["count"] <= report["oracle"]["best_size"]


def test_extractor_never_beats_oracle_24():
    rng = random.Random(41)
    for _ in range(10):
        A = IntegerSet.of(sorted(rng.sample(range(1, 100), rng.randint(4, 12))))
        oracle = max_sumfree_exact(A, 2, 4)
        cert = extract_certified(A, 2, 4)
        assert cert.count <= oracle.best_size


def test_extractor_never_beats_oracle_for_every_k_l():
    # (k,l) outside (2,1) and (2m,4m): the certificate re-verifies, its
    # surplus is >= 0 and its count is at most the exhaustive optimum
    rng = random.Random(43)
    for k, l in ((3, 1), (1, 2), (3, 2), (5, 2)):
        for _ in range(50):
            A = IntegerSet.of(rng.sample(range(1, 121), rng.randint(6, 16)))
            cert = extract_certified(A, k, l)
            assert cert.reverify(A) and cert.surplus >= 0
            assert cert.count <= max_sumfree_exact(A, k, l).best_size, (k, l, A.elements)


@pytest.mark.parametrize("check", [is_kl_sumfree, max_sumfree_exact])
def test_sum_bitsets_over_budget_raise_before_allocating(check):
    # the 2-fold sums of 10**12 need 2*10**12-bit bitsets
    A = IntegerSet.of([3, 10**12])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            check(A, 2, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@pytest.mark.parametrize("kl", [(2, 1), (2, 4), (3, 1), (4, 8), (1, 2)])
def test_incremental_search_matches_rebuild(kl):
    # the forward-checked search's exact trace, and the plain branch and
    # bound's optimum and witness in no fewer nodes
    rng = random.Random(f"oracle{kl}")
    for _ in range(100):
        A = IntegerSet.of(rng.sample(range(1, 121), rng.randint(8, 22)))
        r = max_sumfree_exact(A, *kl)
        assert (r.best_size, r.witness, r.explored) == max_sumfree_forward_rebuild(A, *kl)
        best_size, witness, explored = max_sumfree_rebuild(A, *kl)
        assert (r.best_size, r.witness) == (best_size, witness)
        assert r.explored <= explored


def test_search_stack_over_budget_raises_before_allocating():
    # 23 frames of 3 bitsets of 2*10**9 bits: check_folds admits the set,
    # the search's stack does not fit
    A = IntegerSet.of([*range(1, 22), 10**9])
    check_folds(A, 2, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            max_sumfree_exact(A, 2, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_failed_certificates_raise(monkeypatch):
    A = IntegerSet.of([1, 2, 3])
    cert = extract_certified(A, 2, 1)
    monkeypatch.setattr("sumfree.oracle.extract_certified", lambda *args: replace(cert, count=3))
    with pytest.raises(CertificationError):
        compare(A, 2, 1)
    monkeypatch.setattr("sumfree.oracle.is_kl_sumfree", lambda *args: False)
    with pytest.raises(CertificationError):
        max_sumfree_exact(A, 2, 1)


def test_common_factor_leaves_the_search_unchanged():
    # the search runs on A/gcd(A): {10**6 * i} walks the tree of {1..22}
    base = max_sumfree_exact(IntegerSet.of(range(1, 23)), 2, 1)
    start = time.perf_counter()
    scaled = max_sumfree_exact(IntegerSet.of(10**6 * i for i in range(1, 23)), 2, 1)
    assert time.perf_counter() - start < 0.1
    assert (scaled.best_size, scaled.explored) == (base.best_size, base.explored) == (11, 1179)
    assert scaled.witness.elements == tuple(10**6 * e for e in base.witness.elements)


def test_compare_ignores_a_common_factor():
    # the extraction beside the search runs on A/gcd(A) too: 10**6 * {1..22}
    # costs what {1..22} does, and both witnesses are 10**6 times theirs
    base = compare(IntegerSet.of(range(1, 23)), 2, 1)
    start = time.perf_counter()
    scaled = compare(IntegerSet.of(10**6 * i for i in range(1, 23)), 2, 1)
    assert time.perf_counter() - start < 0.1
    want, got = base["oracle"], scaled["oracle"]
    assert (got["best_size"], got["explored"]) == (want["best_size"], want["explored"])
    assert got["witness"] == [10**6 * e for e in want["witness"]]
    want, got = base["extractor"], scaled["extractor"]
    assert got["count"] == want["count"] and got["subset"] == [10**6 * e for e in want["subset"]]
    assert Fraction(*got["x_star"]) == Fraction(*want["x_star"]) / 10**6
    assert scaled["gap"] == base["gap"]
