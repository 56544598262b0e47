"""sumfree benchmark: certified-result throughput on fixed, seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload extract --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 also runs every round
under span tracing and prints the per-layer metrics instead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Inputs, per-run records and spans go under .perfbench_out/.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("extract", "verify", "analysis")
# One client: numerical libraries get one thread each.
PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> bool:
    """Pin the thread pools and put src/ on the path, before numpy is
    imported; False when the checkout has no sumfree sources."""
    if not (ROOT / "src" / "sumfree" / "__init__.py").is_file():
        print(f"error: no sumfree sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    for var in PIN_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not prepare():
        return 2
    import harness

    harness.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
