"""The dilation machine: exact sweeps of counting step functions, their L1
norms, and certified sum-free subset extraction.

For a set A and an arc system O, x -> |{n in A : n*x mod 1 in O}| is a step
function whose breakpoints are the points (e + j)/n for endpoints e of O.
Breakpoints are integer pairs p/q and levels are integers, both in numpy
arrays, and the breakpoints are ordered exactly; maximization happens at
piece midpoints, where the function is constant, so every result is exact.
Maximization either bounds the count on a grid of buckets and then sweeps
exactly only the runs of buckets where the maximum can be, or, for sets
close to 3A, runs a max-plus recursion on the x -> 3x Markov partition;
one cost rule (`engine`) on A/gcd(A) picks the cheaper and names the route.

Memory budget: errors.MEMORY_BUDGET = 4 GiB per computation, checked before
the large allocation, which raises ResourceLimitError instead.
- A sweep of all of [0, 1] (l1_and_max, and so the L1 reports) peaks at
  BYTES_PER_BREAKPOINT = 80 bytes per int64 breakpoint, 2*sum(A) per arc,
  and at most 256 plus one byte per bit of the largest denominator on the
  Python ints that _kind picks for larger products; the L1 norm is then
  summed on the sweep's own arrays.
- maximize_count, and so extraction, uses BYTES_PER_BUCKET = 24 bytes per
  bucket (the bound, and the copy and index array of its top-bucket
  selection) for at most sum(A)/2 buckets, plus one chunk of BOUND_CHUNK
  bound numerators at the breakpoint rate; its exact sweep of the runs is
  counted at the breakpoint rate too, and sum(A) = 10^8 certifies in about
  0.6 GB.
- The Markov engine holds R <= d * (sum of the distinct cores) partition
  points at BYTES_PER_CELL = 256 bytes each (the points, their exact
  order and the image of each cell) and BYTES_PER_CELL_STEP = 32 bytes per
  cell and step for its L steps (the weights W, their bincounts and the
  back-pointers); tracemalloc read 0.45-0.74 of R*(256 + 32*L) on random
  sets, sparse s*3**v and triadic chains with R from 2*10**4 to 6*10**5.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import compress
from math import lcm

import numpy as np

from .arcs import ARC_CAP, ArcSet, canonical_omega, rational  # ARC_CAP: extraction's budget
from .errors import MEMORY_BUDGET, CertificationError, InputError, ResourceLimitError, magnitude
from .sets import IntegerSet, check_kl, is_kl_sumfree, reduced

BYTES_PER_BREAKPOINT = 80
BYTES_PER_BUCKET = 24
BYTES_PER_CELL = 256
BYTES_PER_CELL_STEP = 32
BOUND_CHUNK = 2**20
TOP_BUCKETS = 32


def _kind(*products: int):
    """int64 when every product a pass forms is below 2**62, so that a sum of
    two stays exact too, else Python ints."""
    return np.int64 if max(products) < 2**62 else object


def _exact_order(p: np.ndarray, q: np.ndarray):
    """(order, p[order], q[order], new) with p/q in exact ascending order and
    new[i] true iff point i is the first of its run of equal points.

    The float keys are p/q correctly rounded (int64 entries are exact doubles,
    as 0 <= p <= q < 2**32; Python ints divide with one rounding), and
    correct rounding is monotone: only a run of equal keys can be out of
    order after the float sort, and each such run is re-sorted exactly.
    """
    key = np.asarray(p / q, dtype=np.float64)
    order = np.argsort(key)
    key, p, q = key[order], p[order], q[order]
    bad = np.flatnonzero(p[:-1] * q[1:] > p[1:] * q[:-1])
    for s in np.unique(np.searchsorted(key, key[bad])):
        e = np.searchsorted(key, key[s], side="right")
        run = sorted(range(s, e), key=lambda i: Fraction(int(p[i]), int(q[i])))
        order[s:e], p[s:e], q[s:e] = order[run], p[run], q[run]
    return order, p, q, np.r_[True, p[1:] * q[:-1] != p[:-1] * q[1:]]


def _inside(A: IntegerSet, O: ArcSet, p, q: int) -> np.ndarray:
    """[i, t] true iff n_t*p[i]/q mod 1, r/q for r = n_t*p[i] mod q, is in O:
    iff lo*q < r < hi*q for an arc (lo, hi).  Products are below q*max(q, den),
    den the arc denominators."""
    den = max((e.denominator for arc in O.arcs for e in arc), default=1)
    kind = _kind(q * q, q * den)
    n = np.array([n % q for n in A], kind)
    r = np.array([int(x) % q for x in p], kind)[:, None] * n % q
    inside = np.zeros(r.shape, bool)
    for lo, hi in O.arcs:
        inside |= (lo.numerator * q < r * lo.denominator) & (r * hi.denominator < hi.numerator * q)
    return inside


def orbit_subset(A: IntegerSet, O: ArcSet, x) -> IntegerSet:
    """{n in A : n*x mod 1 in O}, exact: one row of _inside at x = p/q."""
    p, q = Fraction(x).as_integer_ratio()
    return IntegerSet(tuple(compress(A.elements, _inside(A, O, [p], q)[0])))


def _sweep(A: IntegerSet, edges, s: np.ndarray, e: np.ndarray, M: int):
    """Exact pieces of g(x) = sum_{n in A} sum_{(c, w) in edges} w * #{j < n :
    (c + j)/n <= x}, for edges 0 <= c <= 1 with integer weights, on the runs
    [s[r]/M, e[r]/M], which are disjoint and ascending.

    Returns (p, q, levels, first).  Piece i starts at p[i]/q[i] and ends
    where piece i + 1 starts, or at the end of its run; levels[i] is g on
    it.  Run r's pieces start at index first[r], at s[r]/M, and then at each
    distinct edge point inside the run.  Equal points merge, but stay a
    piece boundary when their weights cancel: g dips there, so no witness
    midpoint may land on one.
    """
    N, total = A.N, sum(A)
    q_max = max(A, default=1) * max((c.denominator for c, _ in edges), default=1)
    # grid products s*n*d are added, but the points' cross products are only
    # compared, so those may reach 2**63; weighted sums stay below sum(A)*weight
    kind = _kind(M * q_max, max(M, q_max) ** 2 // 2)
    sums = _kind(total * sum(abs(w) for _, w in edges))
    # run r holds at most n*(e - s)/M + 1 points of each n and edge
    bound = len(s) + len(edges) * (total * int((e - s).sum()) // M + N * len(s))
    per = 256 + q_max.bit_length() if kind is object else BYTES_PER_BREAKPOINT
    if bound * per > MEMORY_BUDGET:
        raise ResourceLimitError(f"about {magnitude(bound)} breakpoints exceed the memory budget")
    n = np.array(A.elements, kind)
    a = np.array([c.numerator for c, _ in edges], kind)[:, None, None]
    d = np.array([c.denominator for c, _ in edges], kind)[:, None, None]
    w = np.array([w for _, w in edges], sums)[:, None, None]
    # per edge, run and n, the points j < j0 lie at or below the run's start
    # and the points j < j1 below its end; so g is sum(w*j0) just right of
    # the start and sum(w*j1) just left of the end
    j0 = (s.astype(kind)[:, None] * n * d - a * M) // (M * d) + 1
    j1 = -((a * M - e.astype(kind)[:, None] * n * d) // (M * d))
    enter, leave = (w * j0.astype(sums)).sum(axis=(0, 2)), (w * j1.astype(sums)).sum(axis=(0, 2))
    cnt = (j1 - j0).ravel().astype(np.int64)

    def per_point(x):
        return np.repeat(np.broadcast_to(x, j0.shape).ravel(), cnt)

    # point t of the flat list is j = j0 + t - before for its (edge, run, n)
    before = (np.cumsum(cnt) - cnt).reshape(j0.shape)
    p = per_point(a + (j0 - before) * d) + np.arange(cnt.sum()) * per_point(d)
    q = per_point(n * d)
    leave[1:] = leave[:-1]
    leave[:1] = 0
    w = np.concatenate([enter - leave, per_point(w)])
    del j0, j1, cnt, before
    p = np.concatenate([s.astype(kind), p])
    q = np.concatenate([np.full(len(s), M, kind), q])
    order, p, q, new = _exact_order(p, q)
    starts = np.flatnonzero(new)
    levels = np.cumsum(np.add.reduceat(w[order], starts))
    # no edge point sits at a run start, so each start is a piece of its own
    first = np.flatnonzero(order[starts] < len(s))
    return p[starts], q[starts], levels, first


def _edges(weighted) -> list[tuple[Fraction, int]]:
    """The signed edges of (ArcSet, integer weight) pairs: each arc opens
    with its weight at lo and closes with it at hi."""
    if any(not isinstance(w, int) for _, w in weighted):
        raise InputError("arc weights must be integers")
    return [(e, sign * w) for O, w in weighted for arc in O.arcs for e, sign in zip(arc, (1, -1))]


def l1_and_max(A: IntegerSet, weighted, shift) -> tuple[Fraction, Fraction, Fraction]:
    """(||g + shift||_1, max(g + shift), lowest maximizing midpoint) for the
    step function g(x) = sum_{n in A} sum_{(O, w) in weighted} w * 1_O(n*x),
    O an ArcSet and w an integer, from one exact sweep of [0, 1].

    Arc edge e = a/d pulled back by n gives the breakpoints (a + j*d)/(n*d),
    j < n, each carrying the edge's signed weight; an edge at 1 sits at 0
    of the circle.  With value u_i/D on piece i and breakpoints b_0 = 0 <
    b_1 < ... the L1 norm telescopes to (|u_last| + sum_{i>0} (|u_{i-1}| -
    |u_i|) b_i) / D; the b_i terms are summed in integers per denominator,
    then over the lcm of the denominators.
    """
    edges = _edges(weighted)
    p, q, levels, first = _sweep(A, edges, np.zeros(1, np.int64), np.ones(1, np.int64), 1)
    shift = Fraction(shift)
    b, D = shift.as_integer_ratio()
    u_max = D * int(np.abs(levels).max()) + abs(b)
    u = np.abs(levels.astype(_kind(u_max * int(q.max()) * len(levels))) * D + b)
    c = u[:-1] - u[1:]
    nz = np.flatnonzero(c)
    by_q = nz[np.argsort(q[1:][nz])]
    dens = q[1:][by_q]
    starts = np.flatnonzero(np.r_[True, dens[1:] != dens[:-1]]) if len(dens) else by_q
    sums = np.add.reduceat(c[by_q] * p[1:][by_q], starts)
    dens = [int(d) for d in dens[starts]]
    L = lcm(*dens)
    total = int(u[-1]) * L + sum(int(s) * (L // d) for s, d in zip(sums, dens))
    witness, top = _argmax(p, q, levels, first, [1], 1, False)
    return Fraction(total, L * D), top + shift, witness


def _bucket_bound(A: IntegerSet, O: ArcSet, M: int, half: bool = False) -> np.ndarray:
    """U with U[i] >= |A_x| for every x in the bucket (i/M, (i+1)/M), for
    i < M, or for i < M/2 when `half`.

    Each pullback ((lo + j)/n, (hi + j)/n) of an arc is rounded outward to
    the buckets it meets, floor(M*(lo + j)/n) up to ceil(M*(hi + j)/n) - 1,
    and U[i] counts the rounded intervals that meet bucket i: a difference
    array, then one cumsum.  The numerators M*(lo + j) are shared by every
    n > j and are built BOUND_CHUNK values of j at a time.  A pullback that
    meets the lower half starts below 1/2, so there j <= n//2 suffices.
    """
    q_max = max(A, default=1) * max((e.denominator for arc in O.arcs for e in arc), default=1)
    kind = _kind(M * q_max)
    per = 256 + (M * q_max).bit_length() if kind is object else BYTES_PER_BREAKPOINT
    if (M + 1) * BYTES_PER_BUCKET + BOUND_CHUNK * per > MEMORY_BUDGET:
        raise ResourceLimitError(f"about {magnitude(M)} buckets exceed the memory budget")
    stop = {n: n // 2 + 1 if half else n for n in A}
    j_end = max(stop.values(), default=0)
    U = np.zeros(M + 1, np.int64)
    for j0 in range(0, j_end, BOUND_CHUNK):
        j = np.arange(j0, min(j0 + BOUND_CHUNK, j_end)).astype(kind)
        for lo, hi in O.arcs:
            opens = M * (lo.numerator + j * lo.denominator)
            closes = -M * (hi.numerator + j * hi.denominator)
            for n in (n for n in A if stop[n] > j0):
                t = stop[n] - j0
                np.add.at(U, (opens[:t] // (n * lo.denominator)).astype(np.intp), 1)
                np.add.at(U, (-(closes[:t] // (n * hi.denominator))).astype(np.intp), -1)
    B = M // 2 if half else M
    return np.cumsum(U[:B], out=U[:B])


def _argmax(p, q, levels, first, e, M: int, half: bool) -> tuple[Fraction, int]:
    """(lowest maximizing midpoint, maximum) of a _sweep of runs ending at e/M:
    the first piece at the maximum ends at the next piece or its run's end.
    With `half`, such a last piece of the run ending at 1/2 goes on into its
    own mirror image, and its midpoint is 1/2."""
    i = int(np.argmax(levels))
    r = int(np.searchsorted(first, i, side="right")) - 1
    last = i + 1 == (first[r + 1] if r + 1 < len(first) else len(levels))
    if last and half and 2 * e[r] == M:
        return Fraction(1, 2), int(levels[i])
    end = Fraction(int(e[r]), M) if last else Fraction(int(p[i + 1]), int(q[i + 1]))
    return (Fraction(int(p[i]), int(q[i])) + end) / 2, int(levels[i])


def _maximize_by_buckets(A: IntegerSet, O: ArcSet, M: int) -> tuple[Fraction, int]:
    """maximize_count on a grid of M buckets."""
    # one arc (lo, 1 - lo), 0 < lo: the buckets below M/2 suffice
    half = M >= 2 and len(O.arcs) == 1 and 0 < O.arcs[0][0] and sum(O.arcs[0]) == 1
    U = _bucket_bound(A, O, M, half)
    k = min(TOP_BUCKETS, len(U))
    top = np.argpartition(U, -k)[-k:]
    tau = int(_inside(A, O, 2 * top + 1, 2 * M).sum(axis=1).max())
    # a piece at the maximum (>= tau) meets only buckets with U >= tau, so it
    # lies inside one run of them; a piece cut by a run's edge also meets a
    # bucket outside the run, so its value is below tau
    edge = np.flatnonzero(np.diff(np.concatenate(([False], U >= tau, [False])).view(np.int8)))
    s, e = edge[0::2], edge[1::2]
    del U, edge
    # a run costs N entry counts per edge and a bucket about sum(A)/M points
    # per edge, so runs closer than N*M/sum(A) buckets are swept as one
    apart = (s[1:] - e[:-1]) * sum(A) >= A.N * M
    s, e = s[np.r_[True, apart]], e[np.r_[apart, True]]
    p, q, levels, first = _sweep(A, _edges([(O, 1)]), s, e, M)
    return _argmax(p, q, levels, first, e, M, half)


def _split3(n: int) -> tuple[int, int]:
    """(s, v) with n = s*3**v and 3 not dividing s, in O(log v) divisions."""
    ladder = [3]  # 3**(2**i) while it divides n
    while n % ladder[-1] == 0:
        ladder.append(ladder[-1] ** 2)
    v = 0
    for i in range(len(ladder) - 2, -1, -1):
        if n % ladder[i] == 0:
            n //= ladder[i]
            v += 1 << i
    return n, v


def _markov_shape(A: IntegerSet, O: ArcSet):
    """(d, the split of each n, L, R) of the Markov engine, or None when a
    cell of its partition could be longer than 1/3: d the lcm of O's
    endpoint denominators, L = max v + 1 steps, and R = d * (sum of the
    distinct cores) >= K partition points."""
    d = lcm(*(e.denominator for arc in O.arcs for e in arc))
    split = [_split3(n) if n % 3 == 0 else (n, 0) for n in A]
    cores = {s for s, _ in split}
    if d * max(cores, default=0) < 3:
        return None
    return d, split, max(v for _, v in split) + 1, d * sum(cores)


def engine(A: IntegerSet, O: ArcSet) -> str:
    """The route a report prints, the engine maximize_count runs on A/gcd(A):
    "lacunary" (Markov) if its L*R cell steps < sum(A), else "balanced-arcs"."""
    A, _ = reduced(A)
    shape = _markov_shape(A, O)
    return "lacunary" if shape is not None and shape[2] * shape[3] < sum(A) else "balanced-arcs"


def _maximize_by_markov(A: IntegerSet, O: ArcSet) -> tuple[Fraction, int]:
    """maximize_count by a max-plus recursion on the x -> 3x Markov partition.

    Write n = s*3**v with 3 not dividing the core s, and let d be the lcm of
    O's endpoint denominators.  The points P = union over cores s of
    (1/(d*s))Z mod 1 are closed under x -> 3x, and when every cell between
    neighbouring points is at most 1/3 long, 3x maps each cell onto a run of
    cells; over all cells the runs tile the circle three times.  1_O(s*y)
    is constant on each cell, as O's edges pulled back by s lie in P, so
    |A_x| = sum_v W[v](the cell of 3**v * x), W[v] counting the n = s*3**v
    of A with s*y in O on that cell.  The best value from step v on is
    W[v] + the maximum over the run its cell maps onto: one
    np.maximum.reduceat per step over the values tiled three times.  The
    first argmax of each step leads to the lowest maximizing cylinder; a
    point of it is pulled back exactly by y -> (y + lap)/3 and widened to
    its piece by each n's nearest breakpoints, with 0 kept as a boundary,
    whose midpoint is _argmax's witness.
    """
    d, split, L, R = _markov_shape(A, O)
    if R * (BYTES_PER_CELL + L * BYTES_PER_CELL_STEP) > MEMORY_BUDGET:
        raise ResourceLimitError(f"about {magnitude(L * R)} cell steps exceed the memory budget")
    cores = sorted({s for s, _ in split})
    # the budget keeps the products (d*s)**2 below 2**62, so _kind picks int64
    size = np.array([d * s for s in cores], _kind((d * cores[-1]) ** 2))
    base = np.cumsum(size) - size
    # raw point r = base[c] + j is j/(d*s) for core c; equal points merge,
    # and cell i starts at p[i]/q[i], the first raw point of its value
    den = np.repeat(size, size)
    order, p, q, new = _exact_order(np.arange(R, dtype=den.dtype) - np.repeat(base, size), den)
    K = int(new.sum())
    uid = np.empty(R, np.int64)
    uid[order] = np.cumsum(new) - 1
    first, p, q = order[new], p[new], q[new]
    # 3*p/q = lap + r/q, so cell i maps onto the tiled cells from lap*K +
    # (the cell of r/q, raw point first - p + r) to where cell i + 1's starts
    lap, r = np.divmod(3 * p, q)
    starts = lap.astype(np.int64) * K + uid[first - p + r]
    # W[v]: core s at step v counts on the cells from the point m*d + lo*d of
    # its grid up to m*d + hi*d, for m < s
    c_of = {s: c for c, s in enumerate(cores)}
    cnt = np.array([s for s, _ in split], np.int64)
    row = np.repeat([v for _, v in split], cnt) * (K + 1)
    m = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    at = np.repeat([int(base[c_of[s]]) for s, _ in split], cnt) + m * d
    W = np.zeros(L * (K + 1), np.int64)
    for lo, hi in O.arcs:
        W += np.bincount(row + uid[at + int(lo * d)], minlength=L * (K + 1))
        # an arc ending at 1 closes core s's last period at the end, cell K
        inner = m * d + int(hi * d) < np.repeat(cnt, cnt) * d
        close = uid[np.where(inner, at + int(hi * d), 0)]
        W -= np.bincount(row + np.where(inner, close, K), minlength=L * (K + 1))
    W = np.cumsum(W.reshape(L, K + 1), axis=1)[:, :K]
    # the key V*3K + (3K - 1 - t) makes reduceat's maximum the first argmax t
    n3 = 3 * K
    rev = np.arange(n3 - 1, -1, -1)
    back = np.empty((L - 1, K), np.int64)
    V = W[L - 1]
    for v in range(L - 2, -1, -1):
        best, t = np.divmod(np.maximum.reduceat(np.tile(V, 3) * n3 + rev, starts), n3)
        back[v] = n3 - 1 - t
        V = W[v] + best
    c = int(np.argmax(V))
    top = int(V[c])
    laps = []
    for v in range(L - 1):
        lap, c = divmod(int(back[v, c]), K)
        laps.append(lap)
    # x = X/Q, the cell's midpoint pulled back, and the piece around it,
    # from left to right, as integer pairs (numerator, denominator)
    u, w = (int(p[c + 1]), int(q[c + 1])) if c + 1 < K else (1, 1)
    X, Q = int(p[c]) * w + u * int(q[c]), 2 * int(q[c]) * w
    for lap in reversed(laps):
        X, Q = X + lap * Q, 3 * Q
    left, right = (0, 1), (1, 1)
    edges = {e.as_integer_ratio() for arc in O.arcs for e in arc}
    for n in A:
        for a, b in edges:
            # the breakpoints (a/b + j)/n below and above x, j = floor(n*x - a/b)
            below = a + (n * X * b - a * Q) // (Q * b) * b
            if below * left[1] > left[0] * n * b:
                left = (below, n * b)
            if (below + b) * right[1] < right[0] * n * b:
                right = (below + b, n * b)
    return (Fraction(*left) + Fraction(*right)) / 2, top


def maximize_count(A: IntegerSet, O: ArcSet) -> tuple[Fraction, int]:
    """Global maximum of |A_x| over x, with the lowest maximizing midpoint,
    by the engine that `engine` picks, run on A' = A/g for g = gcd(A): |A_x|
    = |A'_{gx}| has period 1/g, and x -> x/g maps A''s pieces on [0, 1) onto
    A's pieces on [0, 1/g), lowest first, so the witness is x'/g.

    Buckets: bounds on a grid of M buckets, M the largest power of two at
    most max(1, sum(A')/2), single out the few runs of buckets where the
    maximum can be, and only those runs are swept exactly.  For one arc
    (lo, 1 - lo) with 0 < lo < 1/2, such as (1/3, 2/3), and M >= 2, this is
    done on [0, 1/2] alone: as n*(1 - x) = -n*x mod 1, |A_x| is symmetric
    about 1/2, which is no breakpoint, so the lowest maximizing piece lies
    in (0, 1/2) or is the piece around 1/2, whose midpoint 1/2 is then the
    witness.  Markov: see _maximize_by_markov; its cost does not grow with
    the size of 3**v, so it serves sets close to 3A, such as triadic chains.
    """
    A, g = reduced(A)
    if engine(A, O) == "lacunary":
        x, count = _maximize_by_markov(A, O)
    else:
        x, count = _maximize_by_buckets(A, O, 1 << max(sum(A) // 2, 1).bit_length() - 1)
    return x / g, count


@dataclass(frozen=True)
class ExtractionCertificate:
    x_star: Fraction
    subset: IntegerSet
    count: int
    arc_used: ArcSet
    k: int
    l: int
    sumfree_checked: bool
    surplus: Fraction

    def to_json(self) -> dict:
        return {
            "x_star": list(self.x_star.as_integer_ratio()),
            "subset": list(self.subset.elements),
            "count": self.count,
            "arc_used": self.arc_used.to_json(),
            "k": self.k,
            "l": self.l,
            "sumfree_checked": self.sumfree_checked,
            "surplus": list(self.surplus.as_integer_ratio()),
        }

    @staticmethod
    def from_json(data) -> "ExtractionCertificate":
        """Inverse of to_json; malformed JSON raises InputError."""
        keys = [f.name for f in fields(ExtractionCertificate)]
        if not isinstance(data, dict) or any(key not in data for key in keys):
            raise InputError(f"a certificate needs the keys {keys}")
        types = [type(data[key]) for key in ("count", "k", "l", "sumfree_checked")]
        if types != [int, int, int, bool]:
            raise InputError("certificate count, k and l must be integers, sumfree_checked a bool")
        check_kl(data["k"], data["l"])
        return ExtractionCertificate(
            x_star=rational(data["x_star"]),
            subset=IntegerSet.of(data["subset"]),
            count=data["count"],
            arc_used=ArcSet.from_json(data["arc_used"]),
            k=data["k"],
            l=data["l"],
            sumfree_checked=data["sumfree_checked"],
            surplus=rational(data["surplus"]),
        )

    def reverify(self, A: IntegerSet) -> bool:
        """Recompute the orbit subset, its count and surplus; re-run the sum-freeness check."""
        sub = orbit_subset(A, self.arc_used, self.x_star)
        return (
            sub.elements == self.subset.elements
            and len(sub) == self.count
            and self.surplus == self.count - Fraction(A.N, self.k + self.l)
            and is_kl_sumfree(sub, self.k, self.l)
        )


def extract_certified(A: IntegerSet, k: int, l: int) -> ExtractionCertificate:
    """Best certified (k,l)-sum-free subset over the arcs of
    canonical_omega(k, l), the first strict maximum in ascending order.
    canonical_omega refuses more than ARC_CAP arcs before it builds them."""
    arcs = (abs(k - l) + 1) // 2
    best = None
    # The guarantee is per arc, not for their union.  n*x in -O iff n*(-x) in
    # O, so each later arc ties its mirror (see canonical_omega): one per pair.
    for O in canonical_omega(k, l).singletons()[:arcs]:
        x_star, count = maximize_count(A, O)
        if best is None or count > best[1]:
            best = (x_star, count, O)
    x_star, count, O = best
    cert = ExtractionCertificate(
        x_star=x_star,
        subset=orbit_subset(A, O, x_star),
        count=count,
        arc_used=O,
        k=k,
        l=l,
        sumfree_checked=True,
        surplus=count - Fraction(A.N, k + l),
    )
    if not cert.reverify(A):
        raise CertificationError(f"the certificate at x* = {x_star} does not re-verify")
    return cert
