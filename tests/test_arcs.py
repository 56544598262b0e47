"""Exact arcs on the torus: canonical systems, pullbacks, sum-freeness."""

import time
from fractions import Fraction

import pytest

from reference import longest_sumfree_arcs
from sumfree.arcs import (
    ARC_CAP,
    ArcSet,
    OMEGA_1,
    OMEGA_2,
    OMEGA_21,
    canonical_omega,
    is_arc_kl_sumfree,
    pullback,
)
from sumfree.dilation import extract_certified, orbit_subset
from sumfree.errors import InputError, ResourceLimitError
from sumfree.sets import IntegerSet, fold_sums


def F(a, b):
    return Fraction(a, b)


def test_canonical_21():
    O = canonical_omega(2, 1)
    assert O.arcs == ((F(1, 3), F(2, 3)),)
    assert O.measure == F(1, 3)


def test_canonical_24_variants():
    # the paper's two systems Omega_1 and Omega_2 = -Omega_1 are the two arcs of (2,4)
    assert canonical_omega(2, 4).arcs == ((F(1, 6), F(1, 3)), (F(2, 3), F(5, 6)))
    assert OMEGA_1.arcs == ((F(1, 6), F(1, 3)),)
    assert OMEGA_2.arcs == ((F(2, 3), F(5, 6)),)
    assert ArcSet.of([(1 - hi, 1 - lo) for lo, hi in OMEGA_1.arcs]).arcs == OMEGA_2.arcs


def test_canonical_48():
    O = canonical_omega(4, 8)
    assert O.arcs == (
        (F(1, 12), F(1, 6)), (F(1, 3), F(5, 12)), (F(7, 12), F(2, 3)), (F(5, 6), F(11, 12)),
    )
    assert O.measure == F(1, 3)


def test_canonical_unsupported():
    for k, l in ((0, 0), (0, 1), (1, 0), (3, 3)):
        with pytest.raises(InputError):
            canonical_omega(k, l)


def test_canonical_refuses_past_the_arc_cap_before_building():
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        canonical_omega(10**5000, 1)
    assert time.perf_counter() - start < 1
    # the rule extract_certified prices its arcs by: (|k - l| + 1)//2 > ARC_CAP
    assert len(canonical_omega(2 * ARC_CAP + 1, 1).arcs) == 2 * ARC_CAP
    A = IntegerSet.of([1, 2, 3])
    for k in (2 * ARC_CAP + 2, 2 * ARC_CAP + 3):
        with pytest.raises(ResourceLimitError):
            canonical_omega(k, 1)
        with pytest.raises(ResourceLimitError):
            extract_certified(A, 1, k)


def test_canonical_family_for_every_k_l():
    # |k - l| arcs of measure 1/(k + l), each sum-free, the family closed
    # under x -> -x and the same for (l, k); and no other arc of that
    # length on a grid three times finer than the arcs' endpoints is sum-free
    for k in range(1, 13):
        for l in range(1, 13):
            if k == l:
                continue
            O = canonical_omega(k, l)
            assert len(O.arcs) == abs(k - l) and O == canonical_omega(l, k)
            for piece in O.singletons():
                assert piece.measure == F(1, k + l) and is_arc_kl_sumfree(piece, k, l)
            assert ArcSet.of([(1 - hi, 1 - lo) for lo, hi in O.arcs]) == O
            assert longest_sumfree_arcs(k, l) == O.singletons(), (k, l)


def test_pullback_examples():
    assert pullback(OMEGA_21, 1).arcs == OMEGA_21.arcs
    assert pullback(OMEGA_1, 2).arcs == (
        (F(1, 12), F(1, 6)), (F(7, 12), F(2, 3)),
    )
    assert pullback(OMEGA_21, 3).arcs == (
        (F(1, 9), F(2, 9)), (F(4, 9), F(5, 9)), (F(7, 9), F(8, 9)),
    )


def test_pullback_preserves_measure():
    for O in (OMEGA_21, OMEGA_1, OMEGA_2):
        for m in range(1, 13):
            assert pullback(O, m).measure == O.measure


def test_pullback_composition():
    for a, b in ((2, 3), (3, 2), (4, 5)):
        assert pullback(pullback(OMEGA_1, a), b).arcs == pullback(OMEGA_1, a * b).arcs


def test_contains():
    # membership is orbit_subset's row for A = {1}: x is read mod 1 and
    # the endpoints are open
    def holds(O, x):
        return orbit_subset(IntegerSet.of([1]), O, x).elements == (1,)

    assert holds(OMEGA_21, F(1, 2))
    assert not holds(OMEGA_21, F(1, 3))
    assert holds(OMEGA_21, F(3, 2))  # mod-1 reduction
    assert not holds(OMEGA_21, F(4, 3))  # reduces to the open endpoint 1/3
    # an arc of length 1 misses its own endpoint, also when that endpoint
    # is not 0 and the arc is written as two pieces
    assert not holds(ArcSet.of([(0, 1)]), 0)
    O = ArcSet.of([(F(1, 3), 1), (0, F(1, 3))])
    assert O.arcs == ((0, F(1, 3)), (F(1, 3), 1)) and O.measure == 1
    assert not holds(O, F(1, 3)) and holds(O, F(1, 2)) and holds(O, F(1, 4))
    with pytest.raises(InputError):
        ArcSet.of([(F(1, 3), F(3, 2))])


def test_arc_sumfree():
    assert is_arc_kl_sumfree(OMEGA_21, 2, 1)
    assert is_arc_kl_sumfree(OMEGA_1, 2, 4)
    assert is_arc_kl_sumfree(OMEGA_2, 2, 4)
    assert not is_arc_kl_sumfree(ArcSet.of([(F(0, 1), F(1, 2))]), 2, 1)
    # one arc only: not a union, not an empty system, not the two pieces of
    # an arc through 0
    for O in (canonical_omega(4, 8), ArcSet.of([]), ArcSet.of([(0, F(1, 6)), (F(5, 6), 1)])):
        with pytest.raises(InputError):
            is_arc_kl_sumfree(O, 2, 1)


def test_arc_sumfree_matches_integer_grid():
    # Endpoints in (1/12)Z put any integer t of the collision interval
    # (k*lo - l*hi, k*hi - l*lo) at least 1/12 inside it.  With N = 12(k+l)
    # and S the integers in N*(lo, hi), the k-fold minus l-fold sums of S
    # take every integer of N times that interval shrunk by k+l = N/12 at
    # each end, N*t among them; so the grid collides mod N exactly when the
    # arc collides mod 1.
    def sums_mod(S, fold, N):
        bits, residues = fold_sums(S, fold), 0
        while bits:
            residues |= bits & ((1 << N) - 1)
            bits >>= N
        return residues

    for k in range(1, 5):
        for l in range(1, 9):
            if k == l:
                continue
            N = 12 * (k + l)
            for a in range(12):
                for b in range(a + 1, 13):
                    S = range(a * (k + l) + 1, b * (k + l))
                    grid_free = sums_mod(S, k, N) & sums_mod(S, l, N) == 0
                    O = ArcSet.of([(F(a, 12), F(b, 12))])
                    assert is_arc_kl_sumfree(O, k, l) == grid_free, (a, b, k, l)


def test_canonical_self_consistency():
    # the union of the arcs is not itself sum-free (sums mixing different
    # arcs collide), so the guarantee is per arc; for (2m,4m) the arcs are
    # the Omega_1 system pulled back by m and its mirror, the Omega_2 system
    for k, l in ((2, 1), (2, 4), (4, 8), (6, 12), (3, 1), (1, 2)):
        O = canonical_omega(k, l)
        for piece in O.singletons():
            assert is_arc_kl_sumfree(piece, k, l) and piece.measure == F(1, k + l)
        for m in (2, 3, 5):
            assert pullback(O, m).measure == O.measure
        if l == 2 * k and k % 2 == 0:
            systems = [pullback(base, k // 2) for base in (OMEGA_1, OMEGA_2)]
            assert sorted(a for S in systems for a in S.arcs) == list(O.arcs)


@pytest.mark.parametrize(
    "raw",
    [
        [(F(1, 2), F(1, 3))],
        [(F(1, 3), F(1, 3))],
        [(F(1, 6), F(1, 2)), (F(1, 3), F(2, 3))],
        [(F(-1, 4), F(1, 4))],
        [(F(1, 2), F(3, 2))],
        [(F(1, 3), F(4, 3))],
        [(F(-1, 6), F(1, 6))],
        [(float("nan"), 0.5)],
        [(0, float("inf"))],
        [("1/3", F(2, 3))],
        [(0, 1, 2)],
        [("a",)],
        [1],
        5,
    ],
    ids=[
        "reversed", "empty", "overlapping", "lo-below-0", "hi-above-1", "wraps-past-1",
        "wraps-below-0", "nan", "inf", "string", "three-endpoints", "one-endpoint",
        "not-a-pair", "not-a-list",
    ],
)
def test_arcset_refusals(raw):
    # an arc is 0 <= lo < hi <= 1 with finite endpoints, disjoint from the
    # others; an arc through 0 is written as its two pieces, never reduced mod 1
    with pytest.raises(InputError):
        ArcSet.of(raw)


def test_json_round_trip():
    O = pullback(OMEGA_2, 2)
    assert ArcSet.from_json(O.to_json()).arcs == O.arcs


@pytest.mark.parametrize(
    "data",
    [[[1, 0, 1, 2]], [[1, 3, 2]], [[1, 3, 2, 3.5]], [[1, 3, 2, 3, 5]], [[True, 3, 2, 3]], [3], {}],
    ids=[
        "zero-denominator", "three-ints", "float", "five-ints", "bool", "not-a-list", "not-arcs",
    ],
)
def test_malformed_arc_json_raises_input_error(data):
    with pytest.raises(InputError):
        ArcSet.from_json(data)
