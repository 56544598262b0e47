"""Closed-loop measurement of one workload: set-up, timed loop, checks,
metrics, and the result record.

One client in one thread sends the next op when the previous one returns.
An op is `sumfree.cli.run(config)` followed by `json.dumps` of its report,
as the CLI prints it; the output check runs afterwards, outside the timed
region.  The loop runs whole rounds of the workload's schedule, so every
run of a workload has the same mix of op kinds, and stops at the round
boundary nearest to the requested seconds of loop wall time.

A traced run (trace=1) runs each round twice, untraced and traced, in
alternating order; the traced copy gives the per-layer metrics and the two
copies give the tracing overhead.

The end-to-end times are given at a fixed reference speed of the machine.
A reference job (fixed pure-Python work that does not use sumfree) runs
between untraced ops and before each set-up repeat, outside the timed
region.  Each op's time is scaled by REF_NOMINAL_S over the mean of the
reference times just before and just after it, and the set-up time by
REF_NOMINAL_S over the mean of its reference times.  On a shared host whose
speed drifts by up to 2x over minutes, this keeps a slow spell from reading
as a slower program; the unscaled figures are kept in the record.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy

from sumfree import cli

import checks
import tracing
import workloads
from run import PIN_VARS, ROOT

SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
TAIL_BEYOND = 10
# Reference job size, its result (distinct fractions, lowest running sum),
# and its nominal run time: scaled times are seconds on a machine that runs
# the reference job in REF_NOMINAL_S.
REF_N = 90
REF_RESULT = (2456, -89)
REF_NOMINAL_S = 0.03

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span whose self time it reports, per traced op
SELF_METRICS = {
    "dilation.count_function.self_s": "dilation.count_function",
    "dilation.weighted_count_function.self_s": "dilation.weighted_count_function",
    "dilation.max_with_witness.self_s": "dilation.PiecewiseConstantFn.max_with_witness",
    "dilation.orbit_subset.self_s": "dilation.orbit_subset",
    "dilation.exact_l1.self_s": "dilation.exact_l1",
    "sets.is_kl_sumfree.self_s": "sets.is_kl_sumfree",
    "sets.structure.self_s": "sets.structure",
    "sets.fold_sums.self_s": "sets.fold_sums",
    "sieve.sieve_lhs.self_s": "sieve.sieve_lhs",
    "sieve.sieve_rhs.self_s": "sieve.sieve_rhs",
    "fourier.TrigPoly.defect.self_s": "fourier.TrigPoly.defect",
    "arith.rough_integers.self_s": "arith.rough_integers",
    "arith.smooth_squarefree.self_s": "arith.smooth_squarefree",
    "arith.odd_smooth_squarefree.self_s": "arith.odd_smooth_squarefree",
    "arith.sec2_sieve_set.self_s": "arith.sec2_sieve_set",
    "mps.build_phi.self_s": "mps.build_phi",
    "mps.build_qk.self_s": "mps.build_qk",
    "mps.build_pk.self_s": "mps.build_pk",
    "mps.hilbert.self_s": "mps.hilbert",
    "fourier.grid_norms.self_s": "fourier.grid_norms",
    "fourier.sample_grid.self_s": "fourier.sample_grid",
    "lp.exp_sum_l1.self_s": "lp.exp_sum_l1",
    "lp.triadic_l1_montecarlo.self_s": "lp.triadic_l1_montecarlo",
    "oracle.max_sumfree_exact.self_s": "oracle.max_sumfree_exact",
    "cli.run.self_s": "cli.run",
    "cli.report_json_s": tracing.JSON_SPAN,
    "cli.load_input_s": "sets.load_set",
}
CALL_METRICS = {
    "dilation.count_function.calls": "dilation.count_function",
    "sets.is_kl_sumfree.calls": "sets.is_kl_sumfree",
}
# per-layer metric -> tracer count it reports, per traced op
COUNT_METRICS = {
    "dilation.breakpoints": "dilation.breakpoints",
    "dilation.pieces": "dilation.pieces",
    "dilation.candidate_arcs": "dilation.sweeps",
    "sieve.lhs_terms": "sieve.lhs_terms",
    "sieve.rhs_terms": "sieve.rhs_terms",
    "fourier.grid_points": "fourier.grid_points",
    "lp.mc_samples": "lp.mc_samples",
    "oracle.explored": "oracle.explored",
}
LAYERS = ("cli", "sets", "arcs", "dilation", "sieve", "fourier", "arith", "mps", "lp", "oracle")
RATIOS = ("dilation.pieces_per_breakpoint", "trace.slowdown")
SWEEP_SPANS = ("dilation.count_function", "dilation.weighted_count_function")


@dataclass(frozen=True)
class Sample:
    label: str
    seconds: float
    failure: str | None  # exception class, "check:<class>" for a failed check
    scaled_s: float = 0.0  # seconds at the reference speed (untraced ops)


def reference_job() -> float:
    """Run the reference job and return its wall time.

    It does what the sumfree layers do most, in plain Python: builds
    Fractions, counts them in a dict, sorts them and sweeps a running sum.
    It imports nothing from sumfree, so no change to the program moves it.
    """
    t0 = time.perf_counter()
    events: dict[Fraction, int] = {}
    for n in range(1, REF_N):
        for a in range(n):
            x = Fraction(a, n)
            events[x] = events.get(x, 0) + (1 if a % 2 else -1)
    level = low = 0
    for x in sorted(events):
        level += events[x]
        low = min(low, level)
    seconds = time.perf_counter() - t0
    if (len(events), low) != REF_RESULT:
        raise RuntimeError("reference job gave a wrong result")
    return seconds


def run_op(op: workloads.Op, tracer: tracing.Tracer | None = None) -> Sample:
    """Time one op, then check its output; an exception is a counted failure.

    With a tracer, the wrappers are in place only around the timed part, so
    the check records no spans."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    t0 = time.perf_counter()
    try:
        with tracer.installed() if tracer else nullcontext():
            t0 = time.perf_counter()
            with span(tracing.OP_SPAN):
                report = cli.run(op.config)
                with span(tracing.JSON_SPAN):
                    payload = json.dumps(report, indent=2, default=str)
            seconds = time.perf_counter() - t0
    except Exception as exc:  # counted in failed_ratio by class
        return Sample(op.label, time.perf_counter() - t0, type(exc).__name__)
    try:
        checks.check(op, json.loads(payload))
    except Exception as exc:  # a failed or crashing check fails the op
        return Sample(op.label, seconds, f"check:{type(exc).__name__}")
    return Sample(op.label, seconds, None)


def closed_loop(wl: workloads.Workload, seconds: float, tracer=None):
    """Run whole rounds until the loop's wall time (ops, reference jobs and
    checks) is nearest to `seconds`.

    Returns (untraced samples, traced samples, reference times of each
    untraced round); the traced list is empty unless a tracer is given.
    An untraced round of n ops has n + 1 reference times, one before each
    op and one after the last."""
    plain: list[Sample] = []
    traced: list[Sample] = []
    round_refs: list[list[float]] = []
    start = time.perf_counter()
    r = 0
    while True:
        if tracer is None:
            modes = (None,)
        else:
            modes = (None, tracer) if r % 2 == 0 else (tracer, None)
        for mode in modes:
            batch = []
            refs = []
            for op in wl.round(r):
                if mode is None:
                    refs.append(reference_job())
                else:
                    mode.op_id = len(traced) + len(batch)
                batch.append(run_op(op, mode))
            if mode is None:
                refs.append(reference_job())
                round_refs.append(refs)
                plain.extend(
                    replace(s, scaled_s=s.seconds * 2 * REF_NOMINAL_S / (before + after))
                    for s, before, after in zip(batch, refs, refs[1:])
                )
            else:
                traced.extend(batch)
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / r / 2 >= seconds:
            return plain, traced, round_refs


def measure_setup(name: str, seed: int, scale: workloads.Scale, input_dir: Path):
    """Median over SETUP_REPEATS of: import sumfree in a fresh process, then
    draw and write the workload's inputs.  Returns the workload, that median
    at the reference speed, the unscaled times and the reference times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    refs = []
    for _ in range(SETUP_REPEATS):
        refs.append(reference_job())
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import sumfree"], env=env, check=True, timeout=120
        )
        wl = workloads.build(name, seed, input_dir, scale)
        times.append(time.perf_counter() - t0)
    scaled = statistics.median(times) * REF_NOMINAL_S / statistics.fmean(refs)
    return wl, scaled, times, refs


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sumfree").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in PIN_VARS},
        "platform": platform.platform(),
    }


def _tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile that
    has TAIL_BEYOND samples beyond it, or the minimum if there are too few."""
    xs = sorted(values)
    idx = max(0, len(xs) - 1 - TAIL_BEYOND)
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs) - 1 - idx


def _timings(samples: list[Sample], round_len: int, key: str) -> tuple[float, ...]:
    """(ops_per_s, op_p50_s, op_tail_s, tail percentile, samples beyond it,
    loop seconds, per-round ops_per_s), with each op's time read from the
    Sample field `key`."""
    loop_s = sum(getattr(s, key) for s in samples)
    rounds = [samples[i : i + round_len] for i in range(0, len(samples), round_len)]
    per_round = [
        sum(s.failure is None for s in r) / sum(getattr(s, key) for s in r) for r in rounds
    ]
    # a failed op ranks as the slowest: it is charged the whole loop time
    latencies = [getattr(s, key) if s.failure is None else loop_s for s in samples]
    tail, pct, beyond = _tail(latencies)
    return statistics.median(per_round), statistics.median(latencies), tail, pct, beyond, loop_s, per_round


def end_to_end(
    samples: list[Sample], setup_s: float, raw_setup_s: float, round_len: int
) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced samples, which run in whole rounds
    of round_len ops; times are at the reference speed (scaled_s).

    ops_per_s is the median over rounds of checked ops per second of the
    round: every round has the same mix, and the median keeps a round that
    met a slow spell of the machine from moving the figure."""
    ok = [s for s in samples if s.failure is None]
    rate, p50, tail, pct, beyond, loop_s, per_round = _timings(samples, round_len, "scaled_s")
    raw_rate, raw_p50, raw_tail, _, _, raw_loop_s, _ = _timings(samples, round_len, "seconds")
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": rate,
        "op_p50_s": p50,
        "op_tail_s": tail,
        "ok_ratio": len(ok) / len(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "failed": len(samples) - len(ok),
        "failed_ratio": 1 - len(ok) / len(samples),
        "failures_by_class": dict(Counter(s.failure for s in samples if s.failure)),
        "op_tail_percentile": pct,
        "op_tail_beyond": beyond,
        "ops": len(samples),
        "loop_s": loop_s,
        "mean_ops_per_s": len(ok) / loop_s,
        "round_ops_per_s": per_round,
        "unscaled": {
            "setup_s": raw_setup_s,
            "ops_per_s": raw_rate,
            "op_p50_s": raw_p50,
            "op_tail_s": raw_tail,
            "loop_s": raw_loop_s,
        },
    }
    return metrics, extra


def per_layer(tr: tracing.Tracer, traced: list[Sample], plain: list[Sample]) -> dict:
    n = len(traced)
    op_s = tr.incl_s[tracing.OP_SPAN]
    m = {k: tr.self_s[span] / n for k, span in SELF_METRICS.items()}
    m.update({k: tr.calls[span] / n for k, span in CALL_METRICS.items()})
    m.update({k: tr.counts[c] / n for k, c in COUNT_METRICS.items()})
    bp = tr.counts["dilation.breakpoints"]
    sweep_s = sum(tr.self_s[s] for s in SWEEP_SPANS)
    m["dilation.pieces_per_breakpoint"] = tr.counts["dilation.pieces"] / bp if bp else 0.0
    m["dilation.breakpoints_per_s"] = bp / sweep_s if sweep_s else 0.0
    phis = tr.calls["mps.build_phi"]
    m["mps.grid"] = tr.counts["mps.grid"] / phis if phis else 0.0
    m["mps.blocks"] = tr.counts["mps.blocks"] / phis if phis else 0.0
    oracle_s = tr.incl_s["oracle.max_sumfree_exact"]
    m["oracle.nodes_per_s"] = tr.counts["oracle.explored"] / oracle_s if oracle_s else 0.0
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            v for k, v in tr.self_s.items() if k.split(".")[0] == layer
        ) / n
    m["share.dilation"] = m["layer.dilation.self_s"] * n / op_s
    m["share.sieve_lhs"] = tr.incl_s["sieve.sieve_lhs"] / op_s
    m["share.cli"] = m["layer.cli.self_s"] * n / op_s
    m["op.traced_s"] = op_s / n
    untraced = len(plain) / sum(s.seconds for s in plain)
    traced_rate = n / sum(s.seconds for s in traced)
    m["trace.untraced_ops_per_s"] = untraced
    m["trace.traced_ops_per_s"] = traced_rate
    m["trace.slowdown"] = untraced / traced_rate
    return m


# (workload, statement, metric, test); a workload of None means every one
PREDICTIONS = (
    ("extract", "dilation self time is >= 80% of op time", "share.dilation",
     lambda v: v >= 0.8),
    ("extract", "sieve does no work", "layer.sieve.self_s", lambda v: v == 0),
    ("extract", "mps does no work", "layer.mps.self_s", lambda v: v == 0),
    ("verify", "sieve_lhs takes >= 80% of op time", "share.sieve_lhs",
     lambda v: v >= 0.8),
    ("verify", "dilation does no work", "layer.dilation.self_s", lambda v: v == 0),
    ("analysis", "dilation works (l1_growth, oracle ops)", "layer.dilation.self_s",
     lambda v: v > 0),
    ("analysis", "fourier grid norms work in the lp ops", "layer.fourier.self_s",
     lambda v: v > 0),
    (None, "cli orchestration is < 10% of op time", "share.cli", lambda v: v < 0.1),
)


def predictions(workload: str, m: dict) -> list[dict]:
    return [
        {
            "prediction": text,
            "metric": key,
            "measured": m[key],
            "verdict": "confirmed" if test(m[key]) else "REFUTED",
        }
        for wl, text, key, test in PREDICTIONS
        if wl in (None, workload)
    ]


def _by_label(samples: list[Sample]) -> dict:
    groups: dict[str, list[float]] = {}
    for s in samples:
        groups.setdefault(s.label, []).append(s.seconds)
    return {k: {"n": len(v), "median_s": statistics.median(v)} for k, v in groups.items()}


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: workloads.Scale = workloads.FULL,
    out_dir: Path = OUT_DIR,
) -> dict:
    """Run one workload and print the report; the last line printed is the
    result object, which is also returned."""
    wl, setup_s, setup_times, setup_refs = measure_setup(
        workload, seed, scale, out_dir / "inputs"
    )
    tracer = tracing.Tracer() if trace else None
    plain, traced, round_refs = closed_loop(wl, seconds, tracer)
    samples = plain + traced
    e2e, extra = end_to_end(plain, setup_s, statistics.median(setup_times), len(wl.round(0)))
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(seed),
        "reference_nominal_s": REF_NOMINAL_S,
        "setup_runs_s": setup_times,
        "setup_reference_s": setup_refs,
        "round_reference_s": round_refs,
        "op_unscaled_s": [s.seconds for s in plain],
        "end_to_end": e2e,
        **extra,
        "by_label": _by_label(plain),
    }
    print(f"perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for k, unit in END_TO_END_UNITS.items():
        print(f"  {k:<14} {e2e[k]:.6g} {unit}")
    print(f"  {'failed_ratio':<14} {extra['failed_ratio']:.6g} 1  "
          f"({extra['failed']} of {extra['ops']} ops; "
          f"by class {extra['failures_by_class'] or 'none'})")
    print(f"  op_tail_s is p{extra['op_tail_percentile']:.1f} of {extra['ops']} ops, "
          f"{extra['op_tail_beyond']} beyond it")
    speed = REF_NOMINAL_S / statistics.fmean(r for refs in round_refs for r in refs)
    print(f"  times above are at the reference speed; this run's speed was "
          f"{speed:.4g}x it, and unscaled:")
    print("  unscaled " + " ".join(
        f"{k}={v:.6g}" for k, v in extra["unscaled"].items() if k != "loop_s"))
    if trace:
        layer = per_layer(tracer, traced, plain)
        record["per_layer"] = layer
        record["predictions"] = predictions(workload, layer)
        record["absent_spans"] = tracer.absent
        record["aliases"] = tracer.aliases
        record["by_label_traced"] = _by_label(traced)
        tracer.write(out_dir / f"trace-{workload}.json")
        print(f"  tracing slowdown {layer['trace.slowdown']:.4f}x "
              f"(untraced {layer['trace.untraced_ops_per_s']:.4g} 1/s, "
              f"traced {layer['trace.traced_ops_per_s']:.4g} 1/s)")
        for p in record["predictions"]:
            print(f"  prediction {p['verdict']}: {p['prediction']} "
                  f"({p['metric']} = {p['measured']:.4g})")
        if tracer.absent:
            print(f"  absent spans: {', '.join(tracer.absent)}")
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in layer.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2)
    )
    failed = sum(1 for s in samples if s.failure)
    line = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return line


def per_layer_unit(name: str) -> str:
    if name.startswith("share.") or name in RATIOS:
        return "1"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"
