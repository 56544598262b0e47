"""Record a parent/change benchmark comparison as BENCH_<label>.json.

Run from the repository root, with both revisions committed:

    python3 bench/record.py --parent REV --label NAME --claim TEXT --first-seed 301

The change measured is HEAD, and every workload that BENCHMARK.json lists is
recorded with ten pairs, the number a gain claim needs.  Each revision is
exported with `git archive` into its own directory under a temporary
directory (TMPDIR sets where), so each side builds from its committed files
only and nothing is left registered in the repository.  Pair i runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` once
on each side, one fresh process each, with S = first seed + i; the
parent runs first on even pairs and the change first on odd ones.  The file
holds per-metric medians and quartiles of each side, the change's wins and
losses over the pairs, every run's value, and the provenance of both sides.
It is rewritten after every pair, so an interrupted recording keeps the pairs
it finished.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_KEYS = ("nproc", "python", "numpy", "platform", "blas_threads")
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result line, provenance) of one perfbench run in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n{proc.stderr[-2000:]}")
    prov = next(json.loads(l[len("provenance "):]) for l in lines if l.startswith("provenance "))
    return json.loads(lines[-1]), prov


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(better: str, parent: list[float], change: list[float]) -> dict:
    sign = 1 if better == "higher" else -1
    p, c = summary(parent), summary(change)
    return {
        "better": better,
        "parent": p,
        "change": c,
        "change_over_parent": c["median"] / p["median"] if p["median"] else None,
        "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "change_losses": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
        "parent_runs": parent,
        "change_runs": change,
    }


def workload_record(better: dict, seeds: list[int], runs: dict) -> dict:
    return {
        "pairs": len(seeds),
        "seeds": seeds,
        "metrics": {
            name: compare(direction, *([r[0]["metrics"][name]["value"] for r in runs[side]]
                                       for side in ("parent", "change")))
            for name, direction in better.items()
        },
        "failed": {side: sum(r[0]["failed"] for r in runs[side]) for side in runs},
        "attempted": {side: sum(r[0]["attempted"] for r in runs[side]) for side in runs},
        "all_correct": all(r[0]["correct"] for side in runs for r in runs[side]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision to compare against")
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    ap.add_argument("--claim", required=True, help="the gain claimed, in words")
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--host", default="", help="a description of the machine")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    revs = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD")}
    out = ROOT / f"BENCH_{args.label}.json"
    record = {
        "label": args.label,
        "claim": args.claim,
        "method": (
            f"alternated parent/change pairs of `python3 perfbench/run.py --workload W "
            f"--seed S --seconds {seconds:g}` (trace 0), one fresh process each, parent "
            f"first on even pairs; pair i uses seed {args.first_seed} + i on both sides; "
            f"each side runs in its own `git archive` export of its revision "
            f"(bench/record.py)"
        ),
        "provenance": {f"{side}_revision": rev for side, rev in revs.items()},
        "host": args.host,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        checkouts = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            export(rev, checkouts[side])
        for workload in (w["name"] for w in bench["workloads"]):
            runs = {"parent": [], "change": []}
            seeds = []
            for i in range(PAIRS):
                seed = args.first_seed + i
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    runs[side].append(run_once(checkouts[side], workload, seed, seconds))
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"{json.dumps(runs[side][-1][0]['metrics'])}", flush=True)
                seeds.append(seed)
                for side in revs:
                    record["provenance"][f"{side}_src_sha256"] = runs[side][0][1]["src_sha256"]
                record["provenance"].update({k: runs["change"][0][1][k] for k in RUN_KEYS})
                record["workloads"][workload] = workload_record(better, seeds, runs)
                out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
