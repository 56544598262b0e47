"""Seeded inputs and the fixed op schedule of each benchmark workload.

A workload is a round of ops that repeats until the run's time is spent; the
seed only draws the sets inside each round, so every seed runs the same mix
of op kinds.  Each op is one `sumfree.cli.run` call on a `RunConfig`; ops that
take a set read it from a file written here.  README.md gives the reasons for
each schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from sumfree.cli import RunConfig
from sumfree.sets import IntegerSet, structure

# Rounds of distinct inputs drawn per run; a run that outlasts them starts
# over at the first round.
POOL_ROUNDS = 48
VERIFY_P = 101
SUM_BAND = 0.03


@dataclass(frozen=True)
class Scale:
    extract_n: int
    extract_max: int
    extract24_max: int
    geometric_max: int
    verify_max: int
    verify_sizes: tuple[int, int]
    verify_cutoffs: tuple[int, int]
    verify_work: int
    l1_n: int
    phi_size: int
    lp_sizes: tuple[int, ...]
    oracle_sizes: tuple[int, int]
    oracle_max: int


FULL = Scale(
    extract_n=30,
    extract_max=10**4,
    extract24_max=6000,
    geometric_max=10**4,
    verify_max=40,
    verify_sizes=(2, 10),
    verify_cutoffs=(2000, 8000),
    verify_work=800,
    l1_n=100,
    phi_size=10101,
    lp_sizes=(16, 32, 64),
    oracle_sizes=(18, 22),
    oracle_max=120,
)

# Small enough that a run of every workload takes a few seconds; used by
# selftest.py only.
TINY = Scale(
    extract_n=8,
    extract_max=300,
    extract24_max=150,
    geometric_max=300,
    verify_max=40,
    verify_sizes=(2, 4),
    verify_cutoffs=(100, 400),
    verify_work=40,
    l1_n=12,
    phi_size=101,
    lp_sizes=(14, 16, 18),
    oracle_sizes=(8, 10),
    oracle_max=40,
)


@dataclass(frozen=True)
class Op:
    """One timed call: `kind` selects the output check, `label` groups the
    op in reports, `elements` is the input set (None for set-free ops)."""

    kind: str
    label: str
    config: RunConfig
    elements: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: tuple[tuple[Op, ...], ...]

    def round(self, i: int) -> tuple[Op, ...]:
        return self.rounds[i % len(self.rounds)]


def _write_set(path: Path, elements) -> str:
    path.write_text("".join(f"{n}\n" for n in elements))
    return str(path)


def _random_set(rng: random.Random, n: int, limit: int) -> tuple[int, ...]:
    return IntegerSet.of(rng.sample(range(1, limit + 1), n)).elements


def _typical_set(rng: random.Random, n: int, limit: int) -> tuple[int, ...]:
    """A uniform n-subset of [1, limit] whose sum lies within SUM_BAND of
    the mean n(limit+1)/2.

    The dilation sweep makes 2*sum(A) breakpoints per arc, so its time and
    memory follow sum(A); holding the sum near its mean keeps the op cost
    and the peak memory of a seed close to those of any other seed.
    """
    mean = n * (limit + 1) / 2
    while True:
        A = rng.sample(range(1, limit + 1), n)
        if abs(sum(A) - mean) <= SUM_BAND * mean:
            return IntegerSet.of(A).elements


def _geometric_set(rng: random.Random, limit: int) -> tuple[int, ...]:
    """Triadic chains s, 3s, 9s, ... <= limit from one or two starts prime
    to 3, kept only if structure() classifies the set as geometric
    (|A sym 3A| <= ceil(sqrt N)), which sends (2,4) extraction down the
    lacunary route."""
    while True:
        starts = rng.sample([s for s in range(1, 13) if s % 3], rng.randint(1, 2))
        A = IntegerSet.of(
            s * 3**j for s in starts for j in range(20) if s * 3**j <= limit
        )
        if A.N >= 2 and structure(A).geometric:
            return A.elements


def _harmonic_set(
    rng: random.Random, n_range: tuple[int, int], limit: int, lo_h: float, hi_h: float
) -> tuple[int, ...]:
    """A set from the criterion-1 family (n in n_range, elements <= limit)
    whose harmonic mass sum 1/m lies in [lo_h, hi_h].

    Left-side sieve work grows like X * sum 1/m, so fixing X * sum 1/m per op
    keeps the op cost of a seed close to that of any other seed.  Drawing the
    elements from [lo, limit] with a random lo reaches the band quickly for
    both large and small n.
    """
    for _ in range(200_000):
        n = rng.randint(*n_range)
        lo = rng.randint(1, limit - n + 1)
        A = rng.sample(range(lo, limit + 1), n)
        if lo_h <= sum(1 / m for m in A) <= hi_h:
            return IntegerSet.of(A).elements
    raise RuntimeError(f"no set with harmonic mass in [{lo_h}, {hi_h}]")


def _extract_rounds(rng, scale: Scale, d: Path):
    # (k,l) alternates (2,1), (2,4); one set in eight is geometric and runs
    # (2,4), the pair with a lacunary route.  A (2,4) random set draws its
    # elements from [1, 6000] instead of [1, 10^4]: with 2 arcs against 1 it
    # then sweeps 2*sum(A)*arcs = 360k breakpoints against 300k, which costs
    # about the same.  So the random ops form one cluster of op times, and
    # the median and the tail percentile both fall inside it.
    slots = (
        ("R", 2, 1), ("R", 2, 4), ("R", 2, 1), ("R", 2, 4),
        ("R", 2, 1), ("R", 2, 4), ("R", 2, 1), ("G", 2, 4),
    )
    rounds = []
    for r in range(POOL_ROUNDS):
        ops = []
        for s, (family, k, l) in enumerate(slots):
            if family == "R":
                limit = scale.extract_max if l == 1 else scale.extract24_max
                A = _typical_set(rng, scale.extract_n, limit)
                label = f"extract({k},{l}) random"
            else:
                A = _geometric_set(rng, scale.geometric_max)
                label = f"extract({k},{l}) geometric"
            path = _write_set(d / f"r{r:02d}s{s}.txt", A)
            cfg = RunConfig(command="extract", input=path, k=k, l=l)
            ops.append(Op("extract", label, cfg, A))
        rounds.append(tuple(ops))
    return rounds


def _verify_rounds(rng, scale: Scale, d: Path):
    # Most ops at the small cutoff, a third at 4x it; Q alternates 3, 5.
    small, large = scale.verify_cutoffs
    slots = ((small, 3), (small, 5), (large, 3), (small, 3), (small, 5), (large, 5))
    rounds = []
    for r in range(POOL_ROUNDS):
        ops = []
        for s, (X, q) in enumerate(slots):
            h = scale.verify_work / X
            # the large cutoff needs a small harmonic mass: few, large elements
            sizes = scale.verify_sizes if X == small else (2, 3)
            A = _harmonic_set(rng, sizes, scale.verify_max, 0.8 * h, 1.2 * h)
            path = _write_set(d / f"r{r:02d}s{s}.txt", A)
            cfg = RunConfig(command="verify", input=path, q=q, p=VERIFY_P, cutoff=X)
            ops.append(Op("verify", f"verify X={X} Q={q}", cfg, A))
        rounds.append(tuple(ops))
    return rounds


def _analysis_rounds(rng, scale: Scale, d: Path):
    # Per round: five l1_growth, four phi (unit and random weights, twice),
    # one lp and six oracle compares (four (2,1), two (2,4)).  Ordered by op
    # time the kinds form clusters (oracle < phi < l1_growth < lp).  These
    # counts put the median inside the phi cluster and, with five to eight
    # rounds a run, the tail percentile inside the l1_growth cluster.  Most
    # of an lp op is numpy array work, which a slow spell of the machine slows
    # about half as much as the plain-Python reference job (README.md,
    # Reference speed), so lp ops are kept out of the tail.
    rounds = []
    slots = (
        "l1", "phi unit", "oracle(2,1)", "l1", "phi random", "oracle(2,4)",
        "l1", "lp", "oracle(2,1)", "l1", "phi unit", "oracle(2,1)",
        "l1", "phi random", "oracle(2,4)", "oracle(2,1)",
    )
    l1 = RunConfig(
        command="report", kind="l1_growth", sizes=(scale.l1_n,), q=5, p=VERIFY_P
    )
    for r in range(POOL_ROUNDS):
        ops = []
        for s, slot in enumerate(slots):
            if slot == "l1":
                ops.append(Op("l1_growth", f"l1_growth N={scale.l1_n}", l1))
            elif slot.startswith("phi"):
                w = slot.split()[1]
                cfg = RunConfig(
                    command="phi", size=scale.phi_size, base=100, weights=w,
                    seed=rng.randrange(2**31),
                )
                ops.append(Op("phi", slot, cfg))
            elif slot == "lp":
                cfg = RunConfig(command="lp", sizes=scale.lp_sizes, seed=rng.randrange(2**31))
                ops.append(Op("lp", "lp", cfg))
            else:
                k, l = (2, 1) if slot == "oracle(2,1)" else (2, 4)
                A = _random_set(rng, rng.randint(*scale.oracle_sizes), scale.oracle_max)
                path = _write_set(d / f"r{r:02d}o{s}.txt", A)
                cfg = RunConfig(command="oracle", input=path, k=k, l=l)
                ops.append(Op("oracle", slot, cfg, A))
        rounds.append(tuple(ops))
    return rounds


BUILDERS = {
    "extract": _extract_rounds,
    "verify": _verify_rounds,
    "analysis": _analysis_rounds,
}


def build(name: str, seed: int, input_dir: Path, scale: Scale = FULL) -> Workload:
    """Draw the workload's inputs from `seed` and write its set files."""
    d = input_dir / f"{name}-seed{seed}"
    d.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    return Workload(name, tuple(BUILDERS[name](rng, scale, d)))
