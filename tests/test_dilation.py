"""Dilation counting, exact L1 norms, and certified extraction."""

import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import (
    PiecewiseConstantFn,
    balanced_function,
    count_function,
    exact_l1,
    extract_every_arc,
    in_arcs,
    orbit_subset_fractions,
    weighted_count_function,
)
from sumfree import dilation
from sumfree.arcs import OMEGA_1, OMEGA_2, OMEGA_21, ArcSet, canonical_omega, pullback
from sumfree.dilation import (
    ARC_CAP,
    ExtractionCertificate,
    _maximize_by_buckets,
    _maximize_by_markov,
    engine,
    extract_certified,
    l1_and_max,
    maximize_count,
    orbit_subset,
)
from sumfree.errors import CertificationError, InputError, ResourceLimitError
from sumfree.sets import IntegerSet, is_kl_sumfree


def F(a, b=1):
    return Fraction(a, b)


def test_orbit_subset():
    A = IntegerSet.of([1, 2, 3])
    assert orbit_subset(A, OMEGA_21, F(1, 2)).elements == (1, 3)
    assert orbit_subset(A, OMEGA_21, F(0)).elements == ()
    assert orbit_subset(A, OMEGA_21, F(1, 5)).elements == (2, 3)


def test_count_function_singleton():
    g = count_function(IntegerSet.of([1]), OMEGA_21)
    assert g.eval(F(1, 2)) == 1
    assert g.eval(F(1, 4)) == 0
    assert g.integral() == F(1, 3)


def test_count_function_dilate_two():
    g = count_function(IntegerSet.of([2]), OMEGA_21)
    for lo, hi in pullback(OMEGA_21, 2).arcs:
        assert g.eval((lo + hi) / 2) == 1
    assert g.eval(F(1, 2)) == 0
    assert g.integral() == F(1, 3)


def test_count_function_integral():
    g = count_function(IntegerSet.of([1, 2, 3]), OMEGA_21)
    assert g.integral() == 1


def test_count_function_matches_orbit():
    rng = random.Random(5)
    A = IntegerSet.of(sorted(rng.sample(range(1, 200), 10)))
    g = count_function(A, OMEGA_21)
    for _ in range(200):
        x = F(rng.randrange(1, 10**6), 10**6)
        assert g.eval(x) == orbit_subset(A, OMEGA_21, x).N


def test_count_function_float_ties():
    # denominators n*10^12 overflow the int64 sweep; a float order with a
    # (numerator, denominator) tie-break misplaced 2992 breakpoints here and
    # integrated to 2992.67 instead of 2/3 - 2*10^-12
    A = IntegerSet.of([10000, 20000])
    O = ArcSet.of([(F(1, 10**12), F(1, 3))])
    assert count_function(A, O).integral() == A.N * O.measure


def test_weighted_count_exact_on_every_piece():
    # breakpoints that differ but share a double: x lies about 10^-33 below
    # 1/3 (Python-int sweep); u < v are Farey neighbours 1/(9*10^18) apart
    # with denominators near 3*10^9 (int64 sweep, edges listed out of order)
    x = F(10**16, 3 * 10**16 + 1)
    u, v = F(999999999, 2999999998), F(10**9, 3 * 10**9 + 1)
    assert float(x) == 1 / 3 and float(u) == float(v)

    def arc(lo, hi):
        return ArcSet.of([(lo, hi)])

    cases = [
        (range(1, 20), [(arc(x, F(1, 3)), 1)]),
        (range(1, 20), [(arc(F(1, 7), x), 3), (arc(F(1, 3), F(1, 2)), -2)]),
        ([1], [(arc(v, F(1, 2)), 1), (arc(F(1, 7), u), 1)]),
    ]
    for elems, arcs in cases:
        A = IntegerSet.of(elems)
        g = weighted_count_function(A, arcs).shift_const(F(-1, 3))
        ends = [F(int(p), int(q)) for p, q in g.breakpoints] + [F(1)]
        integral = l1 = 0
        for lo, hi in zip(ends, ends[1:]):
            mid = (lo + hi) / 2
            value = sum(w for n in A for O, w in arcs if in_arcs(O, n * mid)) - F(1, 3)
            assert g.eval(mid) == value
            with pytest.raises(ValueError):
                g.eval(lo + 1)  # a breakpoint, taken mod 1
            integral += value * (hi - lo)
            l1 += abs(value) * (hi - lo)
        assert g.integral() == integral
        assert integral == A.N * sum(w * O.measure for O, w in arcs) - F(1, 3)
        assert exact_l1(g) == l1
    # weights are integers: a Fraction, even a whole one, is refused
    for w in (F(1, 2), F(3)):
        with pytest.raises(InputError):
            weighted_count_function(IntegerSet.of([1]), [(OMEGA_21, w)])


def test_count_function_edges_at_zero_and_one():
    A = IntegerSet.of([1, 2, 5])
    for O in (ArcSet.of([(F(1, 2), F(1))]), ArcSet.of([(F(0), F(1, 4))]),
              ArcSet.of([(F(0), F(1))]), ArcSet.of([(F(0), F(1, 3)), (F(1, 3), F(1))])):
        g = count_function(A, O)
        assert g.integral() == A.N * O.measure
        for x in (F(1, 100), F(1, 7), F(5, 7), F(99, 100)):
            assert g.eval(x) == orbit_subset(A, O, x).N


def test_l1_and_max_matches_the_step_function():
    # random integer weights on Omega_1 and Omega_2 and random rational
    # shifts; arcs with denominators near 10^15 take the Python-int sweep
    # and the Python-int integral
    rng = random.Random(71)
    for case in range(300):
        A = IntegerSet.of(rng.sample(range(1, rng.choice((20, 300, 3000))), rng.randint(1, 12)))
        if case % 10:
            arcs = [(O, rng.randint(-3, 3)) for O in (OMEGA_1, OMEGA_2)]
        else:
            A = IntegerSet.of(rng.sample(range(1, 40), rng.randint(1, 5)))
            ends = sorted(F(rng.randrange(10**15), 10**15 - rng.randrange(10)) for _ in range(4))
            arcs = [(ArcSet.of([ends[i : i + 2]]), rng.randint(-3, 3)) for i in (0, 2)]
        shift = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        g = weighted_count_function(A, arcs).shift_const(shift)
        want = (exact_l1(g), *g.max_with_witness())
        assert l1_and_max(A, arcs, shift) == want, (A.elements, arcs, shift)
    # the same weight rule as the step function's
    with pytest.raises(InputError):
        l1_and_max(IntegerSet.of([1]), [(OMEGA_21, F(1, 2))], 0)


def test_piecewise_constant_needs_one_row_per_piece():
    with pytest.raises(ValueError):
        PiecewiseConstantFn(np.array([[0, 1], [1, 2]]), np.array([0, 1, 2]))
    with pytest.raises(ValueError):
        PiecewiseConstantFn(np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64))


def test_breakpoint_cap_raises_before_allocating():
    A = IntegerSet.of([10**9])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            count_function(A, OMEGA_21)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_bucket_budget_raises_before_allocating():
    # 2^39 buckets of 24 bytes; the breakpoint cap no longer binds maximize_count,
    # and gcd 1 leaves the set as it is
    A = IntegerSet.of([10**12, 10**12 + 1])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            maximize_count(A, OMEGA_21)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_maximize_count():
    x, c = maximize_count(IntegerSet.of([1, 2, 3]), OMEGA_21)
    assert c == 2
    x, c = maximize_count(IntegerSet.of([1]), OMEGA_21)
    assert (x, c) == (F(1, 2), 1)


def test_maximize_count_divides_by_the_gcd():
    # the engines run on A/g and scale the witness back: {10**12} is {1} at
    # once, and a common factor changes no maximum and divides the witness
    start = time.perf_counter()
    assert maximize_count(IntegerSet.of([10**12]), OMEGA_21) == (F(1, 2 * 10**12), 1)
    assert time.perf_counter() - start < 0.1
    rng = random.Random(61)
    sets = [rng.sample(range(1, 60), rng.randint(1, 8)) for _ in range(30)]
    sets += [_triadic_chain([1, 2], 100), _triadic_chain([1, 5, 7], 200)]
    for elems in sets:
        A, c = IntegerSet.of(elems), rng.choice((2, 3, 5, 6, 10**4))
        for O in (OMEGA_21, OMEGA_1):
            x, count = maximize_count(A, O)
            assert maximize_count(IntegerSet.of(c * n for n in A), O) == (x / c, count)
    # {66, 198} would take the Markov engine, but its quotient {11, 33},
    # which is what runs, takes the buckets
    assert engine(IntegerSet.of([11, 33]), OMEGA_21) == "balanced-arcs"
    assert engine(IntegerSet.of([66, 198]), OMEGA_21) == "balanced-arcs"


def test_maximize_count_matches_full_sweep():
    # bucket bounds against the full step function, on (max, witness); small
    # grids make long runs and pieces that cross bucket edges, and M = 1 is a
    # single run from bucket 0
    rng = random.Random(23)
    sets = [rng.sample(range(1, rng.choice((30, 300, 3000))), rng.randint(2, 12)) for _ in range(8)]
    sets += [[s * 3**j for s in starts for j in range(9) if s * 3**j <= 10**4]
             for starts in ((1,), (1, 2), (2, 4), (5, 10))]
    sets += [range(1, 31), [1], [2], [7], [1, 2], [3, 6, 12, 24], [2, 4, 8, 16, 32]]
    arcs = [OMEGA_21, ArcSet.of([(0, F(1, 3))]), ArcSet.of([(F(2, 3), 1)])]
    arcs += [O for base in (OMEGA_1, OMEGA_2) for m in (1, 2)
             for O in pullback(base, m).singletons()]
    for elems in sets:
        A = IntegerSet.of(elems)
        for O in arcs:
            best, x = count_function(A, O).max_with_witness()
            for M in (None, 1, 16, 1024):
                got = maximize_count(A, O) if M is None else _maximize_by_buckets(A, O, M)
                assert got == (x, best), (A.elements, O.arcs, M)
    # an arc ending at 1, whose pullback by 2 closes at 1: the run from
    # bucket 0 enters at level 0, not at the weight the edge at 1 closes
    for M in (1, 2, 16):
        got = _maximize_by_buckets(IntegerSet.of([2]), ArcSet.of([(F(2, 3), 1)]), M)
        assert got == (F(5, 12), 1)


def _triadic_chain(starts, limit=10**4):
    return [s * 3**j for s in starts for j in range(20) if s * 3**j <= limit]


def test_half_circle_matches_full_sweep():
    # (1/3, 2/3) is its own mirror, so maximize_count bounds and sweeps only
    # [0, 1/2]; it must return the full step function's (witness, maximum)
    rng = random.Random(41)
    sets = [[1], [1, 3], [1, 3, 5], [3, 5], [1, 5, 7, 11]]
    sets += [rng.sample(range(1, 41), rng.randint(1, 12)) for _ in range(1500)]
    sets += [rng.sample(range(1, 41, 2), rng.randint(1, 10)) for _ in range(200)]
    sets += [rng.sample(range(1, 10**4 + 1), rng.randint(1, 3)) for _ in range(200)]
    starts = [s for s in range(1, 41) if s % 3]
    sets += [_triadic_chain(rng.sample(starts, rng.randint(1, 3)), 3**rng.randint(3, 8))
             for _ in range(100)]
    at_half = 0
    for elems in sets:
        A = IntegerSet.of(elems)
        best, x = count_function(A, OMEGA_21).max_with_witness()
        assert maximize_count(A, OMEGA_21) == (x, best), A.elements
        at_half += x == F(1, 2) and sum(A) >= 4
    # the maximum often sits on the piece around 1/2, cut by the half sweep
    assert at_half > 100
    # A = {1} sums to 1: M = 1 keeps the full circle; on a forced half grid
    # the maximizing piece (1/3, 2/3) still reads its midpoint 1/2
    for elems, want in (([1], (F(1, 2), 1)), ([1, 3], (F(1, 2), 2))):
        for M in (1, 2, 4, 16):
            assert _maximize_by_buckets(IntegerSet.of(elems), OMEGA_21, M) == want


def _random_arcs(rng, den):
    # disjoint arcs with ends in [0, 1], so some touch 0 or 1
    ends = sorted(rng.sample(range(den + 1), 2 * rng.randint(1, 3)))
    return ArcSet.of([(Fraction(ends[i], den), Fraction(ends[i + 1], den))
                      for i in range(0, len(ends), 2)])


def test_orbit_subset_matches_fractions():
    rng = random.Random(31)
    for case in range(2000):
        A = IntegerSet.of(rng.sample(range(1, 10**6), rng.randint(1, 20)))
        den = rng.choice((12, 10**3, 10**18 - rng.randrange(10**6), 10**18 + 9))
        O = rng.choice((OMEGA_21, pullback(OMEGA_2, 2), _random_arcs(rng, den)))
        if case % 2:
            # n*x lands exactly on an endpoint, which the open arc excludes
            n, (lo, hi) = rng.choice(A.elements), rng.choice(O.arcs)
            x = (rng.choice((lo, hi)) + rng.randrange(-3, n + 3)) / n
            assert n not in orbit_subset(A, O, x).elements
        else:
            q = rng.choice((10**18 - rng.randrange(10**6), 10**18 + 7, 2 * 3**37))
            x = Fraction(rng.randrange(-q, 3 * q), q)
        assert orbit_subset(A, O, x).elements == orbit_subset_fractions(A, O, x).elements


def _mirror(O):
    ((lo, hi),) = O.arcs
    return ArcSet.of([(1 - hi, 1 - lo)])


@given(st.sets(st.integers(1, 300), min_size=1, max_size=20),
       st.sampled_from([(2, 1), (2, 4), (4, 8), (6, 12), (3, 1), (3, 2)]))
@settings(max_examples=60, deadline=None)
def test_mirror_intervals_tie(elems, kl):
    # arc j of the family mirrors arc d-1-j and ties its maximum, so a later
    # arc never wins: extraction over one arc of each mirror pair gives the
    # certificate of extraction over every longest sum-free arc
    A, (k, l) = IntegerSet.of(elems), kl
    arcs = canonical_omega(k, l).singletons()
    assert [_mirror(O) for O in reversed(arcs)] == arcs
    for O in arcs:
        assert maximize_count(A, _mirror(O))[1] == maximize_count(A, O)[1]
    assert extract_certified(A, k, l).to_json() == extract_every_arc(A, k, l).to_json()


def test_balanced_function():
    g = balanced_function(IntegerSet.of([1]), OMEGA_21)
    assert g.eval(F(1, 2)) == F(2, 3)
    assert g.eval(F(1, 10)) == F(-1, 3)
    assert g.integral() == 0
    assert balanced_function(IntegerSet.of([1, 2, 5]), OMEGA_21).integral() == 0


def test_exact_l1():
    assert exact_l1(balanced_function(IntegerSet.of([1]), OMEGA_21)) == F(4, 9)
    # A = {1, 2}: x and 2x never land in (1/3, 2/3) together, so the count
    # is {0, 1}-valued and the balanced L1 is (2/3)(1/3) + (1/3)(2/3) = 4/9.
    g = balanced_function(IntegerSet.of([1, 2]), OMEGA_21)
    assert exact_l1(g) == F(4, 9)
    # Riemann-sum cross-check of the same quantity.
    M = 10**5
    approx = sum(abs(g.eval(F(2 * j + 1, 2 * M))) for j in range(M)) / M
    assert abs(approx - F(4, 9)) < F(1, 1000)


def test_l1_dilation_invariance():
    base = exact_l1(balanced_function(IntegerSet.of([1]), OMEGA_21))
    for t in (2, 3, 5):
        assert exact_l1(balanced_function(IntegerSet.of([t]), OMEGA_21)) == base


def test_max_at_least_half_l1():
    rng = random.Random(17)
    for _ in range(20):
        A = IntegerSet.of(sorted(rng.sample(range(1, 300), rng.randint(2, 12))))
        g = balanced_function(A, OMEGA_21)
        mx, _ = g.max_with_witness()
        assert mx >= exact_l1(g) / 2


def test_extract_21():
    cert = extract_certified(IntegerSet.of(range(1, 31)), 2, 1)
    assert cert.count >= 11
    assert cert.surplus >= 1
    assert cert.sumfree_checked
    assert is_kl_sumfree(cert.subset, 2, 1)


def test_extract_singleton():
    cert = extract_certified(IntegerSet.of([1]), 2, 1)
    assert cert.count == 1
    assert cert.surplus == F(2, 3)


def test_extract_24():
    cert = extract_certified(IntegerSet.of(range(1, 61)), 2, 4)
    assert cert.count >= 10
    assert is_kl_sumfree(cert.subset, 2, 4)


def test_certificate_round_trip():
    A = IntegerSet.of(range(1, 31))
    cert = extract_certified(A, 2, 1)
    back = ExtractionCertificate.from_json(cert.to_json())
    assert back.x_star == cert.x_star
    assert back.subset.elements == cert.subset.elements
    assert back.count == cert.count
    assert back.surplus == cert.surplus
    assert back.reverify(A)


def test_reverify_checks_the_surplus():
    A = IntegerSet.of(range(1, 31))
    cert = extract_certified(A, 2, 1)
    assert cert.reverify(A)
    assert not replace(cert, surplus=Fraction(1000)).reverify(A)
    assert not replace(cert, surplus=cert.surplus + F(1, 3)).reverify(A)


def _certificate_json(**changes):
    data = extract_certified(IntegerSet.of(range(1, 31)), 2, 1).to_json()
    data.update(changes)
    return data


@pytest.mark.parametrize(
    "data",
    [
        {key: v for key, v in _certificate_json().items() if key != "surplus"},
        _certificate_json(x_star=[1, 0]),
        _certificate_json(x_star=[1, 2, 3]),
        _certificate_json(surplus=0.5),
        _certificate_json(count="15"),
        _certificate_json(sumfree_checked=1),
        _certificate_json(subset=[True, 2]),
        _certificate_json(subset=5),
        _certificate_json(arc_used=[[1, 0, 1, 2]]),
        [],
        _certificate_json(arc_used=[[1, 3, 5, 3]]),
        _certificate_json(k=0, l=0),
        _certificate_json(k=-1, l=1),
        _certificate_json(k=2, l=2),
    ],
    ids=[
        "missing-key", "zero-denominator", "three-ints", "float-rational", "string-count",
        "int-flag", "bool-element", "non-iterable-subset", "bad-arc", "not-an-object",
        "arc-past-1", "zero-k-and-l", "negative-k", "k-equals-l",
    ],
)
def test_malformed_certificate_json_raises_input_error(data):
    with pytest.raises(InputError):
        ExtractionCertificate.from_json(data)


def test_extract_refuses_a_certificate_that_does_not_reverify(monkeypatch):
    A = IntegerSet.of(range(1, 31))
    # a maximizer that reports one more than the subset it names, and then
    # a sum-freeness check that fails: each must stop the extraction
    real = dilation.maximize_count

    def one_too_many(A, O):
        x, count = real(A, O)
        return x, count + 1

    monkeypatch.setattr(dilation, "maximize_count", one_too_many)
    with pytest.raises(CertificationError, match="does not re-verify"):
        extract_certified(A, 2, 1)
    monkeypatch.undo()
    monkeypatch.setattr(dilation, "is_kl_sumfree", lambda X, k, l: False)
    with pytest.raises(CertificationError, match="does not re-verify"):
        extract_certified(A, 2, 1)


def test_extract_21_triadic_chains():
    # for starts {2, 4} and {5, 10} the maximizing piece used to straddle a
    # point where an opening and a closing edge cancel, and its midpoint
    # landed on that point
    for starts in ((1, 2), (2, 4), (5, 10)):
        A = IntegerSet.of(s * 3**j for s in starts for j in range(9) if s * 3**j <= 10**4)
        cert = extract_certified(A, 2, 1)
        assert ExtractionCertificate.from_json(cert.to_json()).reverify(A)


def test_markov_and_bucket_engines_agree():
    # each engine forced on every case: the same maximum and the same lowest
    # maximizing midpoint, exactly; random sets, triadic chains from one to
    # three starts, and sparse s*3**v
    rng = random.Random(47)
    sets = [rng.sample(range(1, 201), rng.randint(1, 16)) for _ in range(150)]
    starts = [s for s in range(1, 30) if s % 3]
    sets += [_triadic_chain(rng.sample(starts, rng.randint(1, 3)), 30 * 3**rng.randint(0, 5))
             for _ in range(150)]
    sets += [{rng.randint(1, 30) * 3**rng.randint(0, 6) for _ in range(rng.randint(1, 8))}
             for _ in range(120)]
    arcs = [OMEGA_21, OMEGA_1, OMEGA_2, ArcSet.of([(0, F(1, 3))]), ArcSet.of([(F(2, 3), 1)])]
    cases = 0
    for A in map(IntegerSet.of, sets):
        M = 1 << max(sum(A) // 2, 1).bit_length() - 1
        for O in arcs:
            assert _maximize_by_markov(A, O) == _maximize_by_buckets(A, O, M), (A.elements, O.arcs)
            cases += 1
    assert cases >= 2000


def test_engine_follows_the_cost_rule():
    chains = IntegerSet.of(s * 3**j for s in (1, 2) for j in range(5))
    mixed = IntegerSet.of((1, 2, 5, 7, 12, 19, 23, 31, 40, 58, 77, 101))
    assert engine(chains, OMEGA_1) == "lacunary" and engine(chains, OMEGA_21) == "lacunary"
    assert engine(mixed, OMEGA_1) == "balanced-arcs" and engine(mixed, OMEGA_21) == "balanced-arcs"
    # {1, 3}: 2 steps of 3 cells against a sum of 4
    assert engine(IntegerSet.of([1, 3]), OMEGA_21) == "balanced-arcs"
    # cells of 1/2 do not map onto runs of cells under x -> 3x
    assert engine(IntegerSet.of([1, 3, 9, 27]), ArcSet.of([(0, F(1, 2))])) == "balanced-arcs"
    assert maximize_count(chains, OMEGA_1) == (F(55, 1944), 3)


def test_markov_maximizes_long_triadic_chains():
    # elements near 3**400, far past every sweep: five chains of length 400
    A = IntegerSet.of(s * 3**j for s in (1, 2, 4, 5, 7) for j in range(400))
    start = time.perf_counter()
    results = {O: maximize_count(A, O) for O in (OMEGA_21, OMEGA_1)}
    assert time.perf_counter() - start < 1
    for O, (x, count) in results.items():
        assert engine(A, O) == "lacunary"
        assert len(orbit_subset(A, O, x)) == count
    # x = 1/2 puts every odd element, the chains of 1, 5 and 7, in (1/3, 2/3)
    assert results[OMEGA_21][1] == 1200


def test_markov_budget_raises_before_allocating():
    # 3 * 10**12 partition points from one core
    A = IntegerSet.of([10**12 + 1, 3 * (10**12 + 1)])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            _maximize_by_markov(A, OMEGA_21)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_extract_prices_the_arcs_before_building_them():
    A = IntegerSet.of([1, 2, 3, 5, 8, 13])
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        extract_certified(A, 10**6 + 1, 1)
    assert time.perf_counter() - start < 1
    # 2 * ARC_CAP + 1 arcs, one of each mirror pair and the middle one
    with pytest.raises(ResourceLimitError):
        extract_certified(A, 2 * ARC_CAP + 2, 1)
    with pytest.raises(InputError):
        extract_certified(A, 0, 10**7)
    assert extract_certified(A, 21, 1).reverify(A)


def test_split3_takes_out_every_factor_of_three():
    for s in (1, 2, 5, 10**20 + 1):
        for v in range(0, 700, 7):
            assert dilation._split3(s * 3**v) == (s, v)


def test_markov_peak_within_its_bytes_per_cell():
    rng = random.Random(59)
    sets = [rng.sample(range(1, 2000), 30), [s * 3**j for s in range(1, 100, 3) for j in range(20)]]
    for A in map(IntegerSet.of, sets):
        for O in (OMEGA_21, OMEGA_1):
            _, _, L, R = dilation._markov_shape(A, O)
            tracemalloc.start()
            try:
                _maximize_by_markov(A, O)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= R * (dilation.BYTES_PER_CELL + L * dilation.BYTES_PER_CELL_STEP)
