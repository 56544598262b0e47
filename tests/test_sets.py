"""Set ingestion, structure reports, and sum-freeness checks."""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from sumfree.cli import main
from sumfree.errors import InputError, ResourceLimitError, magnitude
from sumfree.sets import (
    IntegerSet,
    check_kl,
    generate,
    is_kl_sumfree,
    load_set,
    structure,
    triadic_index,
)


def test_load_lines():
    assert load_set("3\n1\n3\n").elements == (1, 3)


def test_load_json():
    assert load_set("[9,1,3]", format="json").elements == (1, 3, 9)


def test_load_rejects_nonpositive():
    with pytest.raises(InputError):
        load_set("0\n")
    with pytest.raises(InputError):
        load_set("2\nx\n")


@pytest.mark.parametrize(
    "values",
    [["a", 1], [[1], 2], [True, 2], [1, True], [1.0], [2, 2.0], [0], [-3, 1], [None], 5],
    ids=[
        "str", "list", "bool", "bool-after-equal-int", "float", "float-after-equal-int",
        "zero", "negative", "none", "not-iterable",
    ],
)
def test_integer_set_admits_only_positive_ints(values):
    with pytest.raises(InputError):
        IntegerSet.of(values)


@pytest.mark.parametrize("elements", [("a",), (True, 2), (1.0,), (0, 1), (np.int64(3),)])
def test_integer_set_elements_are_exactly_int(elements):
    with pytest.raises(InputError, match="elements must be positive integers"):
        IntegerSet(elements)


@pytest.mark.parametrize("text, format", [("[true, 2]", "json"), ("[1, true]", "json"),
                                          ("[2.0]", "json"), ("0\n", "lines")])
def test_load_leaves_the_element_rule_to_integer_set(text, format, tmp_path):
    with pytest.raises(InputError, match="elements must be positive integers"):
        load_set(text, format)
    path = tmp_path / "a"
    path.write_text(text)
    assert main(["analyze", "--input", str(path), "--format", format]) == 2


def test_load_rejects_non_text():
    with pytest.raises(InputError):
        load_set(b"\xff\xfe1\n")
    with pytest.raises(InputError):
        load_set("[" + "9" * 5000 + "]", format="json")


def test_membership():
    A = IntegerSet.of([2, 3, 5, 7, 11])
    assert all(n in A for n in (2, 3, 5, 7, 11))
    assert not any(n in A for n in (0, 1, 4, 6, 12, -3))
    assert 1 not in IntegerSet.of([])


def test_structure_geometric():
    r = structure(IntegerSet.of([1, 3, 9]))
    assert r.symdiff == (1, 27)
    assert r.epsilon == {1: 1, 27: -1}
    assert r.cover_indices == (0, 1, 2)
    assert r.geometric


def test_structure_not_geometric():
    r = structure(IntegerSet.of([1, 2]))
    assert r.symdiff == (1, 2, 3, 6)
    assert not r.geometric


def test_structure_threshold_is_exact(tmp_path, capsys):
    # 243**0.4 is 9, but the float power reads 9.000000000000002, whose
    # ceiling 10 would admit this set's |A sym 3A| = 10
    chains = ((1, 49), (2, 49), (4, 49), (5, 48), (7, 48))
    A = IntegerSet.of(s * 3**j for s, length in chains for j in range(length))
    assert A.N == 243 and len(structure(A).symdiff) == 10
    assert structure(A).geometric
    assert not structure(A, Fraction(2, 5)).geometric
    path = tmp_path / "chains.txt"
    path.write_text("".join(f"{n}\n" for n in A))
    assert main(["analyze", "--input", str(path), "--threshold-exp", "0.4"]) == 0
    assert json.loads(capsys.readouterr().out)["stages"]["structure"]["geometric"] is False


def _least_root(N, p, q):
    """The least b >= 0 with b**q >= N**p, ceil(N**(p/q)), by bisection."""
    lo, hi = 0, max(N, 1)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mid**q >= N**p else (mid + 1, hi)
    return lo


def _chains(N, t):
    """N elements in t chains s*3**j, 3 not dividing s: each chain meets 3A
    in all but its first element, so |A sym 3A| = 2t."""
    starts = [s for s in range(1, 3 * t) if s % 3][:t]
    lengths = [N // t + (i < N % t) for i in range(t)]
    return IntegerSet.of(s * 3**j for s, n in zip(starts, lengths) for j in range(n))


def test_structure_geometric_label_matches_the_least_root():
    # |A sym 3A| <= ceil(N**theta) against a bisected least root, on N <= 200
    # and theta = a/b with b <= 1000; half the cases put |A sym 3A| next to
    # the bound
    rng = random.Random(29)
    ends = [Fraction(0), Fraction(1)]
    cases = [(N, theta) for N in (0, 1) for theta in ends + [Fraction(1, 2)]]
    cases += [(rng.randint(0, 200), theta) for theta in ends for _ in range(20)]
    for _ in range(10**4):
        b = rng.randint(1, 1000)
        cases.append((rng.randint(0, 200), Fraction(rng.randint(0, b), b)))
    for N, theta in cases:
        bound = _least_root(N, *theta.as_integer_ratio())
        near = bound // 2 + rng.randint(0, 1)
        t = min(N, max(1, near if rng.random() < 0.5 else rng.randint(1, N or 1)))
        rep = structure(_chains(N, t) if t else IntegerSet.of([]), theta)
        assert len(rep.symdiff) == 2 * t
        assert rep.geometric == (2 * t <= bound), (N, theta, t)


def test_structure_singleton():
    r = structure(IntegerSet.of([5]))
    assert r.symdiff == (5, 15)
    assert r.cover_indices == (1,)
    assert r.lacunary_exponent == 0


def test_symdiff_cardinality():
    rng = random.Random(7)
    for _ in range(100):
        A = sorted(rng.sample(range(1, 400), rng.randint(1, 25)))
        r = structure(IntegerSet.of(A))
        inter = len(set(A) & {3 * a for a in A})
        assert len(r.symdiff) == 2 * len(A) - 2 * inter


def test_triadic_cover_partition():
    rng = random.Random(3)
    for _ in range(50):
        A = sorted(rng.sample(range(1, 10**4), 20))
        r = structure(IntegerSet.of(A))
        ks = set(r.cover_indices)
        for a in A:
            assert triadic_index(a) in ks
        for k in ks:
            assert any(3**k <= a < 3 ** (k + 1) for a in A)


def test_is_kl_sumfree_examples():
    assert not is_kl_sumfree(IntegerSet.of([1, 2, 3]), 2, 1)
    assert is_kl_sumfree(IntegerSet.of([2, 3]), 2, 1)
    assert not is_kl_sumfree(IntegerSet.of([1, 2]), 2, 4)


def _naive_sumfree(X, k, l):
    ks = {sum(t) for t in itertools.product(X, repeat=k)}
    ls = {sum(t) for t in itertools.product(X, repeat=l)}
    return not (ks & ls)


def test_is_kl_sumfree_matches_naive():
    rng = random.Random(11)
    for _ in range(40):
        X = sorted(rng.sample(range(1, 50), rng.randint(1, 6)))
        for k, l in ((2, 1), (2, 4), (3, 1)):
            assert is_kl_sumfree(IntegerSet.of(X), k, l) == _naive_sumfree(X, k, l)


def test_is_kl_sumfree_divides_by_the_gcd():
    # sums of c*X are c times sums of X; the bitsets are built for X alone,
    # so 2*10**12 * {1, 2, 3} needs no 4*10**12-bit bitsets
    rng = random.Random(13)
    for _ in range(20):
        X = sorted(rng.sample(range(1, 40), rng.randint(1, 5)))
        c = rng.choice((2, 3, 7, 10**6))
        for k, l in ((2, 1), (2, 4)):
            want = is_kl_sumfree(IntegerSet.of(X), k, l)
            assert is_kl_sumfree(IntegerSet.of(c * x for x in X), k, l) == want
    assert not is_kl_sumfree(IntegerSet.of(2 * 10**12 * x for x in (1, 2, 3)), 2, 1)
    assert is_kl_sumfree(IntegerSet.of(()), 2, 1)


def test_refused_sum_check_prints_a_short_message():
    # the refused bit count, 2 * 3**9999, has 4771 digits, past Python's
    # int-to-str limit; the message prints its order of magnitude
    with pytest.raises(ResourceLimitError) as refusal:
        is_kl_sumfree(IntegerSet.of(3**j for j in range(10000)), 2, 1)
    assert "10^4771" in str(refusal.value) and len(str(refusal.value)) < 200


def test_check_kl_prints_huge_k_and_l_as_magnitudes():
    # str() of an int over 4300 digits raises ValueError, so the message
    # prints such a k or l as its order of magnitude
    for k, l in ((10**5000, 10**5000), (0, 10**5000), (-(10**5000), 2)):
        with pytest.raises(InputError) as refusal:
            check_kl(k, l)
        assert "10^5000" in str(refusal.value) and len(str(refusal.value)) < 100
    with pytest.raises(InputError, match=r"got \(3,3\)"):
        check_kl(3, 3)


def test_magnitude_is_the_order_of_ten():
    rng = random.Random(17)
    counts = [1, 9, 10, 11, 99, 100] + [10**e + s for e in range(1, 60) for s in (-1, 0, 1)]
    counts += [rng.randrange(1, 10 ** rng.randint(1, 4000)) for _ in range(200)]
    for n in counts:
        assert magnitude(n) == f"10^{len(str(n)) - 1}", n


def test_sumfree_hereditary():
    X = [5, 6, 7, 8, 9]
    assert is_kl_sumfree(IntegerSet.of(X), 2, 1)
    for r in range(1, len(X)):
        for sub in itertools.combinations(X, r):
            assert is_kl_sumfree(IntegerSet.of(sub), 2, 1)


def test_generate_kinds():
    # the interval is the one family; a misspelled keyword is not swallowed
    assert generate("interval", n=4).elements == (1, 2, 3, 4)
    for kind, n in (("random", 4), ("interval", 0)):
        with pytest.raises(InputError):
            generate(kind, n)
    with pytest.raises(TypeError):
        generate("interval", size=4)
