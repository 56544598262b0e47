"""Self-test of the benchmark, at tiny sizes (about half a minute):

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, prints every metric that
   BENCHMARK.json names, with its unit, and no other, and its ops pass.
2. The checks are live: a certificate with one subset element swapped, a
   forced nonzero sieve defect and an op that raises each count as a failed
   op, and the untampered outputs pass.
3. A traced function that no longer exists is recorded as absent.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import types
from dataclasses import replace

import run

if not run.prepare():
    sys.exit(2)

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from sumfree import cli  # noqa: E402

OUT = harness.OUT_DIR / "selftest"


def expected_metrics() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def check_printed_metrics(problems: list[str]) -> None:
    want = expected_metrics()
    for name in ("extract", "verify", "analysis"):
        for trace in (0, 1):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                harness.measure(name, 7, 1.0, bool(trace), workloads.TINY, OUT)
            line = json.loads(buf.getvalue().strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            tag = f"{name} trace={trace}"
            before = len(problems)
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                wrong = sorted(k for k in got if k in want[trace] and got[k] != want[trace][k])
                problems.append(f"{tag}: missing {missing}, extra {extra}, wrong unit {wrong}")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                problems.append(f"{tag}: {line['failed']} of {line['attempted']} ops failed")
            status = "ok  " if len(problems) == before else "FAIL"
            print(f"{status} {tag}: {len(got)} metrics, {line['attempted']} ops")


@contextlib.contextmanager
def stub_run(fn):
    """Replace the op's cli.run with fn for the harness only."""
    real = harness.cli
    harness.cli = types.SimpleNamespace(run=fn)
    try:
        yield
    finally:
        harness.cli = real


def tampered_certificate(op, report: dict) -> dict:
    bad = copy.deepcopy(report)
    cert = bad["stages"]["extraction"]["certificate"]
    outside = next(a for a in op.elements if a not in cert["subset"])
    cert["subset"][0] = outside
    cert["subset"].sort()
    return bad


def forced_defect(op, report: dict) -> dict:
    bad = copy.deepcopy(report)
    bad["stages"]["verify"]["identities"][2]["defect"] = "1"
    return bad


def check_liveness(problems: list[str]) -> None:
    def raising(config):
        raise RuntimeError("op failed")

    cases = []
    for name, tamper in (("extract", tampered_certificate), ("verify", forced_defect)):
        wl = workloads.build(name, 7, OUT / "inputs", workloads.TINY)
        op = wl.round(0)[0]
        report = cli.run(op.config)
        cases.append((f"{name} untampered", op, lambda cfg, r=report: r, None))
        cases.append(
            (f"{name} {tamper.__name__}", op,
             lambda cfg, r=tamper(op, report): r, "check:CheckFailed")
        )
    cases.append(("op that raises", op, raising, "RuntimeError"))
    samples = []
    for label, op, fn, want in cases:
        with stub_run(fn):
            sample = harness.run_op(op)
        samples.append(replace(sample, scaled_s=sample.seconds))
        status = "ok  " if sample.failure == want else "FAIL"
        if sample.failure != want:
            problems.append(f"{label}: failure {sample.failure!r}, want {want!r}")
        print(f"{status} {label}: counted as {sample.failure or 'success'}")
    metrics, extra = harness.end_to_end(samples, 0.1, 0.1, len(samples))
    want_failed = sum(1 for *_, w in cases if w)
    if extra["failures_by_class"] != {"check:CheckFailed": 2, "RuntimeError": 1}:
        problems.append(f"failures by class: {extra['failures_by_class']}")
    if abs(metrics["ok_ratio"] - (1 - want_failed / len(cases))) > 1e-12:
        problems.append(f"ok_ratio {metrics['ok_ratio']}")


def check_absent_span(problems: list[str]) -> None:
    """A wrapped name that no longer exists is recorded, not fatal."""
    gone = ("sumfree.dilation", "no_such_function")
    real = tracing.TARGETS
    tracing.TARGETS = real + (gone,)
    tracer = tracing.Tracer()
    try:
        with tracer.installed():
            pass
    finally:
        tracing.TARGETS = real
    ok = tracer.absent == ["dilation.no_such_function"]
    if not ok:
        problems.append(f"absent spans: {tracer.absent}")
    print(f"{'ok  ' if ok else 'FAIL'} missing target recorded as absent")


def main() -> int:
    problems: list[str] = []
    check_liveness(problems)
    check_absent_span(problems)
    check_printed_metrics(problems)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
