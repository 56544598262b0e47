"""Golden reports: every subcommand on a fixed small input gives the stored
report, `timings` aside.

Comparisons are exact, as equal JSON spellings, except that the numpy-driven
reports (phi, phi_profile, lp) are compared the way `sumfree check` compares
them: floats may differ by CHECK_TOLERANCE (1e-12, relative and absolute), so
the test survives other numpy builds.  Regenerate the files with
`python tests/test_golden.py` (with `src` on the path) only when a report is
meant to change, naming it with `--only NAME`.  A rewrite keeps each stored float that the new report
matches within the tolerance, so another numpy build moves no last digits.
"""

import json
import math
import pathlib
import sys

import pytest

from sumfree.cli import CHECK_TOLERANCE, RunConfig, _mismatches, run

GOLDEN = pathlib.Path(__file__).parent / "golden"

SETS = {
    "mixed": (1, 2, 5, 7, 12, 19, 23, 31, 40, 58, 77, 101),
    "chains": tuple(s * 3**j for s in (1, 2) for j in range(5)),
    "small": (1, 3, 4, 9, 10),
}

# name -> (RunConfig fields, input set or None, float tolerance)
CASES = {
    "analyze": (dict(command="analyze"), "mixed", 0),
    "extract_21": (dict(command="extract", k=2, l=1), "mixed", 0),
    "extract_24": (dict(command="extract", k=2, l=4), "mixed", 0),
    "extract_24_geometric": (dict(command="extract", k=2, l=4), "chains", 0),
    "verify": (dict(command="verify", q=5, cutoff=150), "small", 0),
    "oracle": (dict(command="oracle", k=2, l=1), "mixed", 0),
    "lp": (dict(command="lp", sizes=(4, 6, 8)), None, CHECK_TOLERANCE),
    # lp's sizes are all on the grid, lp_chain's all on the sampled chain
    "lp_chain": (dict(command="lp", sizes=(14, 17, 23)), None, CHECK_TOLERANCE),
    "phi": (
        dict(command="phi", size=120, base=4, grid=4096, weights="random", seed=3),
        None,
        CHECK_TOLERANCE,
    ),
    "report_phi_profile": (
        dict(command="report", kind="phi_profile", size=30, base=4, grid=256),
        None,
        CHECK_TOLERANCE,
    ),
    "report_surplus_vs_N": (
        dict(command="report", kind="surplus_vs_N", sizes=(10, 20)),
        None,
        0,
    ),
    "report_l1_growth": (
        dict(command="report", kind="l1_growth", sizes=(30, 40)),
        None,
        0,
    ),
}


def _report(name, tmp_dir):
    fields, set_name, _ = CASES[name]
    if set_name is not None:
        path = pathlib.Path(tmp_dir) / f"{set_name}.txt"
        path.write_text("".join(f"{n}\n" for n in SETS[set_name]))
        fields = dict(fields, input=str(path))
    report = json.loads(json.dumps(run(RunConfig(**fields))))
    del report["timings"]
    if set_name is not None:
        report["config"]["input"] = f"{set_name}.txt"
    return report


def _keep_stored(got, want, rel):
    """got, with each float within the tolerance rel of the stored float at
    its place replaced by the stored one, so a rewrite moves only what a
    change moved and not the last digits another numpy build gives."""
    if isinstance(want, float) and isinstance(got, float) and rel:
        return want if math.isclose(got, want, rel_tol=rel, abs_tol=rel) else got
    if isinstance(want, dict) and isinstance(got, dict):
        return {k: _keep_stored(v, want[k], rel) if k in want else v for k, v in got.items()}
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [_keep_stored(g, w, rel) for g, w in zip(got, want)]
    return got


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    got, want = _report(name, tmp_path), json.loads((GOLDEN / f"{name}.json").read_text())
    if CASES[name][2]:
        assert list(_mismatches(got, want, "report")) == []
    else:
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


if __name__ == "__main__":
    import argparse
    import tempfile

    ap = argparse.ArgumentParser(description="Rewrite the golden reports.")
    ap.add_argument("--only", action="append", choices=sorted(CASES), metavar="NAME",
                    help="rewrite only this golden (repeatable); default all")
    names = ap.parse_args().only or list(CASES)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            path = GOLDEN / f"{name}.json"
            report = _report(name, tmp)
            if path.exists():
                report = _keep_stored(report, json.loads(path.read_text()), CASES[name][2])
            path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
            print(name, file=sys.stderr)
