"""Command-line orchestration: analyze | extract | verify | phi | lp |
oracle | report | check.

Reports are JSON with the full configuration echoed back, exact rationals as
[numerator, denominator] pairs, and floats only where an error bar travels
with them.  Exit codes: 0 success, otherwise the `exit_code` of the
sumfree.errors class raised (1 certification failure, 2 input error, 3
resource limit); an OSError reading the input or writing the output is an
input error.  Any other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction

import numpy as np

from . import __version__
from .arith import SieveContext, is_prime, next_prime_at_least
from .dilation import engine, extract_certified
from .errors import CertificationError, InputError, SumfreeError
from .lp import lacunary_l1_diagnostic
from .mps import PHI_GRID_CAP, block_bounds, build_phi, check_grid
from .oracle import compare
from .sets import IntegerSet, generate, load_set, structure
from .sieve import IDENTITY_IDS, SIEVE_CUTOFF_CAP, l1_lower_report, verify_identity

PROFILE_POINTS = 2048  # about this many |Phi| samples per phi_profile report
CHECK_TOLERANCE = 1e-12  # relative and absolute, for a float that check re-runs


def _int_type(what: str, ok):
    """argparse type: an integer v with ok(v), else a usage error."""
    def parse(text: str) -> int:
        if not text.removeprefix("-").isdecimal() or not ok(int(text)):
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
        return int(text)
    return parse


_positive_int = _int_type("a positive integer", lambda v: v >= 1)


def _unit_float(text: str) -> float:
    """argparse type: a float in [0, 1], so never nan or inf."""
    v = float(text)  # argparse turns a ValueError into a usage error
    if not 0 <= v <= 1:
        raise argparse.ArgumentTypeError(f"not a number in [0, 1]: {text!r}")
    return v


def _positive_ints(text: str) -> tuple[int, ...]:
    return tuple(_positive_int(t) for t in text.split(",") if t)


def _load_input(config: RunConfig) -> IntegerSet:
    if config.input is None:
        raise InputError("an input set is required (--input)")
    if config.input == "-":
        return load_set(sys.stdin.buffer.read(), config.format)
    with open(config.input, "rb") as fh:
        return load_set(fh.read(), config.format)


def _phi_interval(config: RunConfig) -> IntegerSet:
    """The frequencies 1..size of the phi stages, built only once their blocks
    pass build_phi's grid check (for 1..size, about 8*size <= grid)."""
    check_grid([(lo + 1, hi) for lo, hi in block_bounds(config.size, config.base)], config.grid)
    return generate("interval", n=config.size)


def _l1_growth_rows(config: RunConfig) -> list[dict]:
    rows = []
    sizes = config.sizes or (30, 100, 300)
    for N in sizes:
        A = generate("interval", n=N)
        rep = l1_lower_report(A, SieveContext(Q=config.q))
        best = Fraction(*rep["max_l1_GL"])
        target = math.log(N) / math.log(math.log(N)) if N > 3 else float("nan")
        rows.append(
            {
                "N": N,
                "G_l1": float(Fraction(*rep["l1"]["G"])),
                "L_l1": float(Fraction(*rep["l1"]["L"])),
                "max_l1": float(best),
                "target": target,
                "ratio": float(best) / target,
            }
        )
    return rows


def _surplus_rows(config: RunConfig) -> list[dict]:
    rows = []
    sizes = config.sizes or (30, 60, 120, 240)
    for N in sizes:
        A = generate("interval", n=N)
        cert = extract_certified(A, config.k, config.l)
        rows.append(
            {
                "N": N,
                "count": cert.count,
                "surplus": float(cert.surplus),
            }
        )
    return rows


def _phi_profile_rows(config: RunConfig) -> list[dict]:
    B = _phi_interval(config)
    samples, _ = build_phi(B, np.ones(B.N), config.base, config.grid)
    step = max(1, config.grid // PROFILE_POINTS)
    return [
        {"x": j / config.grid, "abs_phi": float(abs(samples[j]))}
        for j in range(0, config.grid, step)
    ]


# report kind -> its CSV rows; the --kind choices
_REPORTS = {
    "l1_growth": _l1_growth_rows,
    "surplus_vs_N": _surplus_rows,
    "phi_profile": _phi_profile_rows,
}


def _flag(default, **keywords):
    """A RunConfig field: its flag's default, with add_argument keywords as metadata."""
    return field(default=default, metadata=keywords)


@dataclass(frozen=True)
class RunConfig:
    """One run: the subcommand, then a field per flag with its default and rule."""

    command: str
    input: str | None = _flag(None, help="set file, or - for stdin")
    format: str = _flag("lines", choices=("lines", "json"))
    k: int = _flag(2, type=int)
    l: int = _flag(1, type=int)
    q: int = _flag(5, type=_int_type("a prime >= 3", lambda v: v >= 3 and is_prime(v)))
    p: int | None = _flag(None, type=_int_type("a prime", is_prime))
    cutoff: int = _flag(2000, type=_int_type(
        f"an integer in [1, {SIEVE_CUTOFF_CAP}]", lambda v: 1 <= v <= SIEVE_CUTOFF_CAP
    ))
    grid: int = _flag(1 << 17, type=_int_type(
        f"a power of two in [4, {PHI_GRID_CAP}]",
        lambda v: 4 <= v <= PHI_GRID_CAP and not v & (v - 1),
    ))
    base: int = _flag(100, type=_int_type("an integer >= 4", lambda v: v >= 4))
    size: int = _flag(10101, type=_positive_int)
    weights: str = _flag("unit", choices=("unit", "random"))
    threshold_exp: float = _flag(0.5, type=_unit_float)
    seed: int = _flag(0, type=_int_type("a non-negative integer", lambda v: v >= 0))
    sizes: tuple[int, ...] = _flag(
        (), type=_positive_ints, help="comma-separated positive integers"
    )
    kind: str | None = _flag(None, choices=tuple(_REPORTS), required=True)
    out: str | None = _flag(None, help="write the output here instead of stdout")


def _structure_stage(A: IntegerSet, config: RunConfig) -> dict:
    rep = structure(A, Fraction(config.threshold_exp).limit_denominator(1000))
    return {
        "N": A.N,
        "symdiff_size": len(rep.symdiff),
        "symdiff": list(rep.symdiff),
        "cover_size": len(rep.cover_indices),
        "lacunary_exponent": rep.lacunary_exponent,
        "geometric": rep.geometric,
    }


def _extract_stages(config: RunConfig) -> dict:
    A = _load_input(config)
    structure_stage = _structure_stage(A, config)
    cert = extract_certified(A, config.k, config.l)
    return {
        "structure": structure_stage,
        "extraction": {
            "certificate": cert.to_json(),
            "count": cert.count,
            "baseline": list(Fraction(A.N, config.k + config.l).as_integer_ratio()),
            "route": engine(A, cert.arc_used),
        },
    }


def _verify_stages(config: RunConfig) -> dict:
    A = _load_input(config)
    P = config.p if config.p is not None else next_prime_at_least(max(A.N * A.N, 2))
    ctx = SieveContext(Q=config.q, P=P)
    results = [verify_identity(iid, A, ctx, config.cutoff) for iid in IDENTITY_IDS]
    failed = [f"{r['identity_id']} (defect {r['defect']} at {r['witness']})"
              for r in results if not r["equal"]]
    if failed:
        raise CertificationError(f"identity verification failed: {', '.join(failed)}")
    return {"verify": {"identities": results, "all_equal": True}}


def _phi_stage(config: RunConfig) -> dict:
    B = _phi_interval(config)
    if config.weights == "unit":
        w = np.ones(B.N)
    else:
        w = np.exp(2j * math.pi * np.random.default_rng(config.seed).random(B.N))
    _, cert = build_phi(B, w, config.base, config.grid)
    return {"certificate": cert.to_json(), "weights": config.weights}


def _mismatches(got, want, where: str):
    """Paths at which a re-run stage differs from the stored one: floats by
    more than CHECK_TOLERANCE, anything else at all."""
    if isinstance(want, float) and isinstance(got, float):
        if not math.isclose(got, want, rel_tol=CHECK_TOLERANCE, abs_tol=CHECK_TOLERANCE):
            yield where
    elif isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            yield where
        else:
            for key in want:
                yield from _mismatches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            yield where
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                yield from _mismatches(g, w, f"{where}[{i}]")
    elif type(got) is not type(want) or got != want:
        yield where


def _check_stage(config: RunConfig) -> dict:
    """Re-run a stored report from its echoed configuration and compare the
    stages, raising CertificationError at a mismatch.  Only a report that
    names no input file can be re-run."""
    with open(config.input, "rb") as fh:
        text = fh.read()
    try:
        report = json.loads(text)
        echoed = RunConfig(**dict(report["config"], sizes=tuple(report["config"]["sizes"])))
        stored = report["stages"]
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{config.input} is not a sumfree JSON report ({exc!r})") from exc
    _check_flags(echoed)
    if echoed.input is not None:
        raise InputError(
            f"a {echoed.command} report names its input set by path ({echoed.input}); "
            "checking it needs the set embedded in the report (ROADMAP D7)"
        )
    rerun = json.loads(json.dumps(run(echoed)["stages"]))
    mismatches = list(_mismatches(rerun, stored, "stages"))
    if mismatches:
        raise CertificationError(f"the report does not reproduce at {', '.join(mismatches)}")
    return {"command": echoed.command, "equal": True, "mismatches": []}


# subcommand -> (the flags its stages read, config -> its report's stages)
_COMMANDS = {
    "analyze": (
        ("input", "format", "threshold_exp", "out"),
        lambda c: {"structure": _structure_stage(_load_input(c), c)},
    ),
    "extract": (("input", "format", "k", "l", "threshold_exp", "out"), _extract_stages),
    "verify": (("input", "format", "q", "p", "cutoff", "out"), _verify_stages),
    "phi": (("size", "base", "grid", "weights", "seed", "out"), lambda c: {"phi": _phi_stage(c)}),
    "lp": (
        ("sizes", "seed", "out"),
        lambda c: {"lp": lacunary_l1_diagnostic(c.sizes or (16, 32, 64), seed=c.seed)},
    ),
    "oracle": (
        ("input", "format", "k", "l", "out"),
        lambda c: {"oracle": compare(_load_input(c), c.k, c.l)},
    ),
    "report": (
        ("kind", "sizes", "k", "l", "size", "base", "grid", "out"),
        lambda c: {c.kind: _REPORTS[c.kind](c)},
    ),
    "check": (("out",), lambda c: {"check": _check_stage(c)}),
}


def run(config: RunConfig) -> dict:
    """Run one subcommand's stages and assemble the report."""
    t0 = time.perf_counter()
    stages = _COMMANDS[config.command][1](config)
    return {
        "config": asdict(config),
        "stages": stages,
        "timings": {"total_s": time.perf_counter() - t0},
        "version": __version__,
    }


def emit_plotdata(report: dict, kind: str) -> str:
    """Headered CSV for a stage of a finished report."""
    rows = report["stages"][kind]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _check_flags(config: RunConfig) -> None:
    """InputError unless some command line of a subcommand other than check
    could give config: each field None or what its flag's type and choices
    make of some text, and no flag the subcommand requires left None."""
    if config.command not in _COMMANDS or config.command == "check":
        raise InputError(f"check cannot re-run a report of command {config.command!r}")
    for f in fields(RunConfig)[1:]:
        spec, value, flag = f.metadata, getattr(config, f.name), "--" + f.name.replace("_", "-")
        if value is None and spec.get("required") and f.name in _COMMANDS[config.command][0]:
            raise InputError(f"a {config.command} report needs {flag}")
        text = ",".join(map(str, value)) if f.name == "sizes" else str(value)
        try:
            ok = spec.get("type", str)(text) == value and value in spec.get("choices", (value,))
        except (ValueError, argparse.ArgumentTypeError):
            ok = False
        if value is not None and not ok:
            raise InputError(f"{value!r} is not a valid {flag}")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sumfree",
        description="certified sum-free subset extraction, with exact checks "
        "of the sieve identities and the L1 bounds behind it",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    specs = {f.name: f for f in fields(RunConfig)}
    for name, (flags, _) in _COMMANDS.items():
        sp = sub.add_parser(name)
        if name == "check":
            sp.add_argument("input", metavar="REPORT.json", help="a JSON report of phi or lp")
        for flag in flags:
            sp.add_argument(
                "--" + flag.replace("_", "-"), default=specs[flag].default, **specs[flag].metadata
            )
    return ap


def main(argv=None) -> int:
    config = RunConfig(**vars(_parser().parse_args(argv)))
    try:
        report = run(config)
        if config.command == "report":
            payload = emit_plotdata(report, config.kind)
        else:
            payload = json.dumps(report, indent=2)
        if config.out:
            with open(config.out, "w") as fh:
                fh.write(payload)
        else:
            print(payload)
    except SumfreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # unreadable input or unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return InputError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
