"""Mobius sieve identities and the inner-sum decomposition."""

import dataclasses
import json
import math
import random
import time
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

import reference
from reference import (
    ONE,
    UNITS,
    ZERO,
    ExactScalar,
    _table,
    chi3,
    eta,
    fhat,
    is_strictly_rough,
    l1_report_four_sweeps,
    lambda_hat,
    mobius,
    odd_smooth_squarefree,
    rough_integers,
    sec2_sieve_set,
    sieve_lhs,
    sieve_rhs,
    sin_pi6,
    smooth_squarefree,
)
from sumfree import dilation, sieve
from sumfree.arith import SieveContext, gamma4, next_prime_at_least
from sumfree.errors import ResourceLimitError
from sumfree.sets import IntegerSet, generate, structure
from sumfree.sieve import (
    IDENTITY_IDS,
    SIEVE_CUTOFF_CAP,
    inner_sum_decomposition,
    l1_lower_report,
    verify_identity,
)

CTX = SieveContext(Q=5, P=101)


def test_identities_exact_small():
    A = IntegerSet.of([1, 2, 5])
    for identity_id in IDENTITY_IDS:
        r = verify_identity(identity_id, A, CTX, 300)
        assert r["equal"], (identity_id, r["defect"], r["witness"])
        assert str(r["defect"]) == "0"


def test_identities_exact_random():
    rng = random.Random(23)
    for q in (3, 5):
        ctx = SieveContext(Q=q, P=101)
        for _ in range(3):
            A = IntegerSet.of(sorted(rng.sample(range(1, 30), rng.randint(2, 6))))
            for identity_id in IDENTITY_IDS:
                r = verify_identity(identity_id, A, ctx, 200)
                assert r["equal"], (identity_id, q, A.elements, r["witness"])


def test_sides_have_matching_prefactors():
    A = IntegerSet.of([1, 4])
    for identity_id in IDENTITY_IDS:
        lhs = sieve_lhs(identity_id, A, CTX, 100)
        rhs = sieve_rhs(identity_id, A, CTX, 100)
        assert (lhs.pi_exp, lhs.unit) == (rhs.pi_exp, rhs.unit)


def _reference_lhs(identity_id, A, ctx, X):
    """The sieved triple sum over (m, t, n), term by term in Q(i, sqrt3)."""
    out = {}

    def add(ts, weight, hat, scale, post=ONE):
        for m in A:
            for t in ts:
                for n in range(1, X // (scale * t * m) + 1):
                    for s in (1, -1):
                        F = s * scale * t * n * m
                        out[F] = out.get(F, ZERO) + hat(s * n).scale(weight(t)) * post

    mu_chi = lambda t: Fraction(mobius(t) * chi3(t), t)
    mu = lambda t: Fraction(mobius(t), t)
    if identity_id == "sec2_f":
        add(sec2_sieve_set(ctx, X), mu_chi, fhat, 1)
    elif identity_id == "gamma_sieved":
        add(smooth_squarefree(ctx, X), mu_chi, fhat, 2)
    elif identity_id in ("lambda1", "g1"):
        add(odd_smooth_squarefree(ctx, X), mu, lambda_hat, 1)
    else:
        s3_3 = ExactScalar.sqrt3(Fraction(1, 3))
        add(smooth_squarefree(ctx, X), lambda t: -mu_chi(t), fhat, 2, s3_3)
        add(smooth_squarefree(ctx, X), mu_chi, fhat, 6, s3_3)
        add(odd_smooth_squarefree(ctx, X), mu, lambda_hat, 2, ExactScalar.imag(Fraction(1, 2)))
    return out


def _reference_rhs(identity_id, A, ctx, X):
    """Each closed-form side, term by term in Q(i, sqrt3)."""
    out = {}

    def add(F, c):
        out[F] = out.get(F, ZERO) + c

    rep = structure(A)
    for m in A:
        if identity_id == "sec2_f":
            for n in rough_integers(X // m, ctx.P - 1):
                add(n * m, fhat(n)), add(-n * m, fhat(-n))
        elif identity_id == "gamma_sieved":
            for n in rough_integers(X // (2 * m), ctx.Q):
                add(2 * n * m, fhat(n)), add(-2 * n * m, fhat(-n))
        elif identity_id == "lambda1":
            for n in range(1, X // m + 1):
                if is_strictly_rough(n, ctx) or (n % 3 == 0 and is_strictly_rough(n // 3, ctx)):
                    c = Fraction(-2) * eta(n, ctx) / n
                    add(n * m, ExactScalar.imag(c)), add(-n * m, ExactScalar.imag(-c))
    for m in rep.symdiff if identity_id in ("g1", "final") else ():
        eps = rep.epsilon[m]
        if identity_id == "g1":
            for n in rough_integers(X // m, ctx.Q):
                add(n * m, ExactScalar.imag(Fraction(-eps, n)))
                add(-n * m, ExactScalar.imag(Fraction(eps, n)))
        else:
            for n in rough_integers(X // (2 * m), ctx.Q):
                add(2 * n * m, ExactScalar.of(Fraction(eps * (chi3(n) + 1), 2 * n)))
                add(-2 * n * m, ExactScalar.of(Fraction(eps * (chi3(n) - 1), 2 * n)))
    return out


def test_tables_match_term_by_term_reference():
    rng = random.Random(41)
    for q in (3, 5, 7):
        for _ in range(2):
            A = IntegerSet.of(rng.sample(range(1, 41), rng.randint(1, 7)))
            ctx = SieveContext(Q=q, P=rng.choice((5, 11, 101)))
            X = rng.choice((120, 300))
            for identity_id in IDENTITY_IDS:
                for build, ref in ((sieve_lhs, _reference_lhs), (sieve_rhs, _reference_rhs)):
                    table = build(identity_id, A, ctx, X)
                    expected = ref(identity_id, A, ctx, X)
                    unit = UNITS[table.unit]
                    assert len(table.coeffs) == sum(not c.is_zero() for c in expected.values())
                    for n in range(-X, X + 1):
                        got = unit.scale(table.coeff(n))
                        assert got == expected.get(n, ZERO), (identity_id, q, n)


def test_kappa_tables_give_the_series_coefficients():
    # kappa is 12-periodic, so n = 1..240 covers every residue class, both signs
    for n in range(1, 241):
        for s in (1, -1):
            F = s * n
            assert UNITS["*sqrt3"].scale(Fraction(int(sieve._KAPPA_F[F % 12]), 2 * F)) == fhat(F)
            assert UNITS["i"].scale(Fraction(int(sieve._KAPPA_L[F % 12]), 2 * F)) == lambda_hat(F)


def _bump_side(monkeypatch, side, deltas):
    """Move one side's numerator at each signed frequency F by deltas[F];
    side is "_lhs_side" or "_rhs_side".

    A side is bumped where a dilation scatters it: the reference's dilated
    adds deltas to the side whose table it dilates, and verify_identity's
    _dilate adds +-deltas where it dilates the left side's table, which it
    does exactly once a call, as its buffer holds left minus right.  The
    left table is told apart by a weak reference to what _lhs_table built.
    """
    left = [lambda: None]
    real_table, real_dilate, real_dilated = sieve._lhs_table, sieve._dilate, reference.dilated

    def bump(num, sign):
        for F, delta in deltas.items():
            num[int(F < 0), abs(F)] += sign * delta

    def tagged(identity_id, r):
        table = real_table(identity_id, r)
        left[0] = weakref.ref(table)
        return table

    def dilate(out, table, *args):
        real_dilate(out, table, *args)
        if table is left[0]():
            bump(out, 1 if side == "_lhs_side" else -1)

    def dilated(identity_id, table, *args):
        num = real_dilated(identity_id, table, *args)
        if (table is left[0]()) == (side == "_lhs_side"):
            bump(num, 1)
        return num

    monkeypatch.setattr(sieve, "_lhs_table", tagged)
    monkeypatch.setattr(sieve, "_dilate", dilate)
    monkeypatch.setattr(reference, "dilated", dilated)


@pytest.mark.parametrize("identity_id", ["gamma_sieved", "lambda1", "final"])  # sqrt3, i, 1
def test_mismatch_reports_the_exact_defect(monkeypatch, identity_id):
    A = IntegerSet.of([1, 2, 5])
    rhs = sieve_rhs(identity_id, A, CTX, 300)
    real = sieve_lhs(identity_id, A, CTX, 300)
    unit = UNITS[real.unit]
    rows = real.coeffs.copy()
    rows[7, 1] += 5  # one altered numerator
    rows[-3, 1] += 1  # a smaller |delta / F| elsewhere
    altered = dataclasses.replace(real, coeffs=rows)
    F = int(rows[7, 0])
    _bump_side(monkeypatch, "_lhs_side", {F: 5, int(rows[-3, 0]): 1})
    assert np.array_equal(sieve_lhs(identity_id, A, CTX, 300).coeffs, rows)
    r = sieve.verify_identity(identity_id, A, CTX, 300)
    assert r["equal"] is False
    assert r["witness"] == F
    expected = unit.scale(altered.coeff(F)) - unit.scale(rhs.coeff(F))
    assert r["defect"] == str(expected) != "0"
    # a row missing from one side is a difference too
    dropped = dataclasses.replace(real, coeffs=real.coeffs[1:])
    G = int(real.coeffs[0, 0])
    assert dropped.defect(rhs) == (-rhs.coeff(G), G)


@pytest.mark.parametrize("builder", ["_lhs_side", "_rhs_side"])
@pytest.mark.parametrize("identity_id", IDENTITY_IDS)
def test_one_bumped_numerator_is_the_defect(monkeypatch, identity_id, builder):
    # one numerator of either side off by one, at a frequency the side holds
    # and at a random one: verify reports SieveTable.defect's witness and defect
    A, X = IntegerSet.of([2, 3, 7]), 400
    rng = random.Random(f"{identity_id} {builder}")
    side = sieve_lhs if builder == "_lhs_side" else sieve_rhs
    rows = side(identity_id, A, CTX, X).coeffs
    for F in (int(rng.choice(rows)[0]), rng.choice((1, -1)) * rng.randint(1, X)):
        with monkeypatch.context() as m:
            _bump_side(m, builder, {F: 1})
            r = verify_identity(identity_id, A, CTX, X)
            lhs, rhs = sieve_lhs(identity_id, A, CTX, X), sieve_rhs(identity_id, A, CTX, X)
        defect, witness = lhs.defect(rhs)
        assert r["equal"] is False
        assert r["witness"] == witness == F
        assert defect == Fraction(1 if side is sieve_lhs else -1, 2 * F)
        assert r["defect"] == f"{defect}{lhs.unit}"


def test_verify_matches_the_separately_dilated_sides(monkeypatch):
    # verify dilates S - R once where both sides run over A; its report must
    # equal SieveTable.defect on the reference's sides, each dilated on its
    # own, with the true kappa tables and with one kappa residue wrong, which
    # makes the buffer nonzero
    rng = random.Random(71)
    unequal = 0
    for draw in range(500):
        A = IntegerSet.of(rng.sample(range(1, 41), rng.randint(1, 6)))
        ctx = SieveContext(Q=rng.choice((3, 5, 7, 11)), P=rng.choice((2, 5, 11, 101)))
        X = rng.randint(1, 250)
        for corrupt in (False, True):
            with monkeypatch.context() as m:
                if corrupt:
                    name = rng.choice(("_KAPPA_F", "_KAPPA_L"))
                    kappa = getattr(sieve, name).copy()
                    kappa[rng.randrange(12)] += rng.choice((-2, -1, 1, 2))
                    m.setattr(sieve, name, kappa)
                for identity_id in IDENTITY_IDS:
                    r = verify_identity(identity_id, A, ctx, X)
                    lhs, rhs = sieve_lhs(identity_id, A, ctx, X), sieve_rhs(identity_id, A, ctx, X)
                    defect, witness = lhs.defect(rhs)
                    assert r["equal"] is (witness is None), (draw, identity_id, corrupt)
                    assert r["witness"] == witness, (draw, identity_id, corrupt)
                    assert r["defect"] == (f"{defect}{lhs.unit}" if defect else "0")
                    unequal += witness is not None
                    assert corrupt or witness is None, (draw, identity_id)
    # each identity reads one kappa table or both, so a wrong residue shows
    # in about two fifths of the corrupted reports
    assert unequal > 800, unequal


def test_defect_read_off_the_buffer_matches_the_tables():
    # verify reads the defect off the signed buffer; SieveTable.defect finds
    # it from the rows of the same buffer against an empty table
    X = 10**5
    empty = _table("sec2_f", np.zeros((2, X + 1), np.int64))
    # d1/F1 - d2/F2 = 1/(F1*F2): equal as doubles, settled in Python ints
    F1, F2, d1, d2 = 99999, 99997, 99999000049999, 99997000049998
    assert d1 / F1 == d2 / F2 and d1 * F2 - d2 * F1 == 1
    near = np.zeros((2, X + 1), np.int64)
    near[1, F2], near[0, F1] = d2, d1
    # exact ties: the smallest signed F wins
    ties = np.zeros((2, X + 1), np.int64)
    ties[0, 5], ties[1, 5], ties[0, 10] = 3, -3, 6
    rng = random.Random(8)
    bufs = [near, ties]
    for _ in range(50):
        buf = np.zeros((2, X + 1), np.int64)
        for _ in range(rng.randint(1, 6)):
            buf[rng.randint(0, 1), rng.randint(1, X)] = rng.choice((1, -1)) * rng.randint(1, 10**14)
        bufs.append(buf)
    for buf in bufs:
        assert sieve._defect(buf) == _table("sec2_f", buf).defect(empty)
    assert sieve._defect(near) == (Fraction(d1, 2 * F1), F1)
    assert sieve._defect(ties) == (Fraction(3, 10), -5)


def test_arith_table_matches_the_enumerations():
    # the smooth sets, Mobius signs and rough integers read off the numpy
    # table against the reference's list enumerations
    rng = random.Random(57)
    A = IntegerSet.of([1])  # scale 1 for both ids below, so the table runs to X
    for trial in range(30):
        ctx = SieveContext(Q=rng.choice((3, 5, 7)), P=rng.choice((5, 11, 101, 907)))
        X = trial + 1 if trial < 3 else rng.randint(1, 10**4)
        # sec2_f's bound is P - 1, lambda1's is Q
        for identity_id, bound, smooth in (
            ("sec2_f", ctx.P - 1, sec2_sieve_set),
            ("lambda1", ctx.Q, smooth_squarefree),
        ):
            r = sieve._arith(identity_id, A, ctx, X)
            ts, mu = sieve._smooth(r)
            assert ts.tolist() == smooth(ctx, X), (identity_id, ctx, X)
            assert mu.tolist() == [mobius(t) for t in ts.tolist()]
            assert np.flatnonzero(r == 1).tolist() == rough_integers(X, bound)
        odd, mu = sieve._smooth(r, odd=True)
        assert odd.tolist() == odd_smooth_squarefree(ctx, X)
        assert mu.tolist() == [mobius(t) for t in odd.tolist()]


def test_verify_peak_memory_within_budget(monkeypatch):
    # the equal path, then a mismatch, one numerator bumped, whose defect is
    # read off the buffer
    A, X = IntegerSet.of([1, 2, 3]), 2 * 10**6
    for bumped in (False, True):
        for identity_id in IDENTITY_IDS:
            with monkeypatch.context() as m:
                if bumped:
                    _bump_side(m, "_lhs_side", {-7: 1})
                tracemalloc.start()
                try:
                    r = verify_identity(identity_id, A, CTX, X)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert r["equal"] is not bumped, identity_id
            assert r["witness"] == (-7 if bumped else None), identity_id
            assert peak <= sieve.BYTES_PER_CUTOFF * X, (identity_id, bumped, peak / X)


def test_cutoff_cap_raises_before_allocating():
    A = IntegerSet.of([1, 2])
    tracemalloc.start()
    try:
        for identity_id in IDENTITY_IDS:
            with pytest.raises(ValueError):
                verify_identity(identity_id, A, CTX, SIEVE_CUTOFF_CAP + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_verify_large_cutoff():
    A = IntegerSet.of(random.Random(30).sample(range(1, 301), 30))
    ctx = SieveContext(Q=5, P=next_prime_at_least(A.N**2))
    assert ctx.P == 907
    start = time.perf_counter()
    results = [verify_identity(identity_id, A, ctx, 10**5) for identity_id in IDENTITY_IDS]
    elapsed = time.perf_counter() - start
    assert all(r["equal"] and r["defect"] == "0" for r in results), results
    assert elapsed < 60, elapsed


def _inner_sum_numeric(n, ctx):
    # brute-force oracle: sum over odd t in N2 dividing n of
    # mu(t) gamma(n/t) sin((n/t) pi/6)
    total = 0.0
    for t in odd_smooth_squarefree(ctx, n):
        if n % t == 0:
            r = n // t
            total += mobius(t) * gamma4(r) * math.sin(r * math.pi / 6)
    return total


def test_inner_sum_examples():
    r1 = inner_sum_decomposition(1, CTX)
    assert r1["total"] == Fraction(1, 2)
    r3 = inner_sum_decomposition(3, CTX)
    assert r3["total"] == Fraction(-3, 2)
    for n in (2, 4, 6, 10, 12, 35):
        assert inner_sum_decomposition(n, CTX)["total"] == 0


def _inner_sum_exact(n, ctx):
    # the same sum in Fractions: gamma kills even n/t, and sin((n/t) pi/6) is
    # rational at odd n/t
    return sum(
        (
            mobius(t) * gamma4(n // t) * sin_pi6(n // t).a
            for t in odd_smooth_squarefree(ctx, n)
            if n % t == 0
        ),
        Fraction(0),
    )


def test_inner_sum_matches_brute_force():
    # two large n: many odd squarefree smooth numbers below them, and all the
    # odd primes up to 23 dividing the second
    for Q in (3, 5, 7, 11, 101):
        ctx = SieveContext(Q=Q, P=101)
        for n in range(1, 400):
            r = inner_sum_decomposition(n, ctx)
            assert r["total"] == r["I1"] + r["I2"] + r["I3"]
            assert abs(float(r["total"]) - _inner_sum_numeric(n, ctx)) < 1e-9
            assert r["total"] == _inner_sum_exact(n, ctx), (n, Q)
        for n in (3 * 10**9, 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23):
            r = inner_sum_decomposition(n, ctx)
            assert r["total"] == r["I1"] + r["I2"] + r["I3"]
            assert r["total"] == _inner_sum_exact(n, ctx), (n, Q)


def test_inner_sum_support():
    # nonzero exactly on N1 (value 1/2) and 3*N1 (value -3/2)
    for n in range(1, 400):
        total = inner_sum_decomposition(n, CTX)["total"]
        if is_strictly_rough(n, CTX):
            assert total == Fraction(1, 2)
        elif n % 3 == 0 and is_strictly_rough(n // 3, CTX):
            assert total == Fraction(-3, 2)
        else:
            assert total == 0


def test_l1_lower_report():
    rep = l1_lower_report(IntegerSet.of([1, 2, 5, 9]), CTX)
    assert rep["max_ge_half_l1"]
    num, den = rep["max_l1_GL"]
    assert Fraction(num, den) > 0
    assert rep["winner"] in ("G", "L", "F1", "F2")


def test_l1_report_at_a_large_threshold_serializes():
    # every number in the report stays small however many primes are <= Q
    rep = l1_lower_report(IntegerSet.of([1, 2, 5]), SieveContext(Q=100003, P=100019))
    json.dumps(rep)


def test_l1_report_checks_its_budget_before_any_sweep(monkeypatch):
    # L_A's sweep has the largest budget bound (72,036,001 breakpoints at
    # N = 6000), so it runs first and is refused before G_A's and F_1's run
    calls = []
    real = dilation._sweep

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dilation, "_sweep", counted)
    with pytest.raises(ResourceLimitError):
        l1_lower_report(generate("interval", n=6000), CTX)
    assert len(calls) == 1


def test_l1_report_matches_four_sweeps():
    # three sweeps by the reflections give the four-sweep report key by key
    rng = random.Random(12)
    sets = [range(1, 31), range(1, 101)]
    sets += [rng.sample(range(1, 401), rng.randint(1, 30)) for _ in range(200)]
    # and a few at other thresholds, for the Mertens mass read off the table
    runs = [(elems, CTX) for elems in sets]
    runs += [(elems, SieveContext(Q=Q, P=101)) for Q in (3, 7, 101) for elems in sets[:4]]
    for elems, ctx in runs:
        A = IntegerSet.of(elems)
        rep, ref = l1_lower_report(A, ctx), l1_report_four_sweeps(A, ctx)
        assert list(rep) == list(ref) and list(rep["l1"]) == list(ref["l1"])
        for key in ref:
            assert rep[key] == ref[key], (key, A.elements)
