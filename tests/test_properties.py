"""Property-based checks across modules."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from reference import (
    balanced_function,
    chi3,
    count_function,
    exact_l1,
    is_strictly_rough,
    mobius,
    weighted_count_function,
)
from sumfree.arcs import OMEGA_1, OMEGA_2, OMEGA_21, ArcSet, pullback
from sumfree.arith import SieveContext, gamma4
from sumfree.dilation import orbit_subset
from sumfree.sets import IntegerSet, structure

small_sets = st.sets(st.integers(1, 200), min_size=1, max_size=10).map(sorted)


@given(st.integers(1, 5000), st.integers(1, 5000))
def test_characters_multiplicative(m, n):
    assert chi3(m * n) == chi3(m) * chi3(n)
    assert gamma4(m * n) == gamma4(m) * gamma4(n)


@given(st.integers(1, 2000), st.integers(1, 50))
def test_mobius_vanishes_on_squares(n, d):
    if d > 1:
        assert mobius(n * d * d) == 0


@given(small_sets)
@settings(max_examples=50, deadline=None)
def test_balanced_integral_zero(elems):
    A = IntegerSet.of(elems)
    assert balanced_function(A, OMEGA_21).integral() == 0
    assert count_function(A, OMEGA_21).integral() == Fraction(A.N, 3)


@given(st.sets(st.integers(1, 300), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_reflection_behind_the_l1_report(elems):
    # Omega_2 = -Omega_1, so F_2(x) = F_1(-x) has F_1's L1 norm and maximum;
    # Omega_1 u Omega_2 is the preimage of (1/3, 2/3) under the measure-
    # preserving x -> 2x, so Gamma swept on both systems has F's L1 norm
    A = IntegerSet.of(elems)
    F1, F2 = balanced_function(A, OMEGA_1), balanced_function(A, OMEGA_2)
    assert exact_l1(F2) == exact_l1(F1)
    assert F2.max_with_witness()[0] == F1.max_with_witness()[0]
    gamma = weighted_count_function(A, [(OMEGA_1, 1), (OMEGA_2, 1)]).shift_const(Fraction(-A.N, 3))
    assert exact_l1(gamma) == exact_l1(balanced_function(A, OMEGA_21))


# Denominators up to 10^15 push n*d past the int64 bound of the sweep, so
# both its int64 and its Python-int arrays are drawn.
endpoints = st.fractions(min_value=0, max_value=1, max_denominator=10**15)


@given(small_sets, st.integers(1, 10**6), endpoints, endpoints)
@settings(max_examples=50, deadline=None)
def test_count_matches_orbit(elems, num, e1, e2):
    assume(e1 != e2)
    A = IntegerSet.of(elems)
    O = ArcSet.of([(min(e1, e2), max(e1, e2))])
    x = Fraction(num, 10**6 + 1)
    assume(all((n * x - e).denominator > 1 for n in A for e in (e1, e2)))
    f = count_function(A, O)
    assert f.eval(x) == orbit_subset(A, O, x).N
    assert f.integral() == A.N * O.measure


@given(small_sets)
@settings(max_examples=50, deadline=None)
def test_symdiff_even(elems):
    rep = structure(IntegerSet.of(elems))
    assert len(rep.symdiff) % 2 == 0
    assert sum(rep.epsilon.values()) == 0


@given(st.integers(1, 40))
def test_pullback_measure(m):
    for O in (OMEGA_21, OMEGA_1):
        assert pullback(O, m).measure == O.measure


@given(st.integers(1, 5000))
def test_rough_partition(n):
    ctx = SieveContext(Q=5, P=101)
    # every n factors uniquely as smooth * rough about the Q cut
    rough_part = n
    for p in (2, 3, 5):
        while rough_part % p == 0:
            rough_part //= p
    assert is_strictly_rough(rough_part, ctx)
