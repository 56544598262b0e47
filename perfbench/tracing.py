"""Spans around sumfree's public functions, recorded from outside the
library.

`Tracer.install()` replaces each target function at every name it is looked
up under (its defining module, modules that imported it, the package
re-exports) with a wrapper that records a span, and `uninstall()` puts the
originals back.  A span has a name, start, end, parent span and op id; spans
stay in memory until `write()`.  Self time (duration minus the time covered
by child spans) and call counts accumulate as spans close.  A target that no
longer exists is recorded in `absent` and skipped.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# (module, qualified name) of every wrapped function.  The span name is the
# module's short name plus the qualified name.
TARGETS = (
    ("sumfree.cli", "run"),
    ("sumfree.sets", "load_set"),
    ("sumfree.sets", "structure"),
    ("sumfree.sets", "is_kl_sumfree"),
    ("sumfree.sets", "fold_sums"),
    ("sumfree.arcs", "canonical_omega"),
    ("sumfree.arcs", "pullback"),
    ("sumfree.dilation", "extract_certified"),
    ("sumfree.dilation", "maximize_count"),
    ("sumfree.dilation", "count_function"),
    ("sumfree.dilation", "weighted_count_function"),
    ("sumfree.dilation", "PiecewiseConstantFn.max_with_witness"),
    ("sumfree.dilation", "orbit_subset"),
    ("sumfree.dilation", "exact_l1"),
    ("sumfree.sieve", "verify_identity"),
    ("sumfree.sieve", "sieve_lhs"),
    ("sumfree.sieve", "sieve_rhs"),
    ("sumfree.sieve", "l1_lower_report"),
    ("sumfree.fourier", "TrigPoly.defect"),
    ("sumfree.fourier", "sample_grid"),
    ("sumfree.fourier", "grid_norms"),
    ("sumfree.arith", "rough_integers"),
    ("sumfree.arith", "smooth_squarefree"),
    ("sumfree.arith", "odd_smooth_squarefree"),
    ("sumfree.arith", "sec2_sieve_set"),
    ("sumfree.mps", "build_phi"),
    ("sumfree.mps", "build_pk"),
    ("sumfree.mps", "build_qk"),
    ("sumfree.mps", "hilbert"),
    ("sumfree.lp", "lacunary_l1_diagnostic"),
    ("sumfree.lp", "exp_sum_l1"),
    ("sumfree.lp", "triadic_l1_montecarlo"),
    ("sumfree.oracle", "compare"),
    ("sumfree.oracle", "max_sumfree_exact"),
)

# Spans the benchmark opens itself, around the op and around json.dumps.
OP_SPAN = "bench.op"
JSON_SPAN = "cli.report_json"


def _count_sweep(tr, fn, args, kwargs, result):
    # each arc contributes 2*sum(A) breakpoints before merging
    A, arcs = args[0], args[1]
    tr.count("dilation.breakpoints", len(arcs) * 2 * sum(A))
    tr.count("dilation.pieces", len(result.breakpoints))
    tr.count("dilation.sweeps", 1)


def _count_terms(key):
    def counter(tr, fn, args, kwargs, result):
        tr.count(key, len(result.coeffs))

    return counter


def _count_grid(tr, fn, args, kwargs, result):
    tr.count("fourier.grid_points", result.M)


def _count_certificate(tr, fn, args, kwargs, result):
    cert = result[1]
    tr.count("mps.grid", cert.grid)
    tr.count("mps.blocks", len(cert.per_block))


def _count_mc(tr, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    tr.count("lp.mc_samples", bound.arguments["samples"])


def _count_explored(tr, fn, args, kwargs, result):
    tr.count("oracle.explored", result.explored)


# span -> counter(tracer, function, args, kwargs, result), run after the span
COUNTERS = {
    "dilation.weighted_count_function": _count_sweep,
    "sieve.sieve_lhs": _count_terms("sieve.lhs_terms"),
    "sieve.sieve_rhs": _count_terms("sieve.rhs_terms"),
    "fourier.sample_grid": _count_grid,
    "mps.build_phi": _count_certificate,
    "lp.triadic_l1_montecarlo": _count_mc,
    "oracle.max_sumfree_exact": _count_explored,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.s_name = array("H")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("l")
        self.s_op = array("l")
        self._stack: list[list] = []
        self.op_id = -1
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.absent: list[str] = []
        self.aliases: dict[str, list[str]] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n) -> None:
        self.counts[key] += n

    def _enter(self, nid: int) -> list:
        idx = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self._stack[-1][0] if self._stack else -1)
        self.s_op.append(self.op_id)
        self.s_end.append(0.0)
        start = time.perf_counter()
        self.s_start.append(start)
        frame = [idx, start, 0.0, nid]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        idx, start, child, nid = frame
        dur = end - start
        self.s_end[idx] = end
        name = self.names[nid]
        self.self_s[name] += dur - child
        self.incl_s[name] += dur
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur

    @contextmanager
    def span(self, name: str):
        frame = self._enter(self._id(name))
        try:
            yield
        finally:
            self._exit(frame)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if counter is not None:
                counter(self, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "sumfree" or n.startswith("sumfree."))
        ]
        for modname, qualname in TARGETS:
            name = modname.rsplit(".", 1)[-1] + "." + qualname
            owner = sys.modules.get(modname)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, "__dict__", {}).get(attr)
            if not inspect.isfunction(fn):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            if path:  # a method: the class attribute is its only name
                sites = [(owner, attr)]
            else:
                sites = [
                    (m, a) for m in modules for a, v in list(vars(m).items()) if v is fn
                ]
            for site, a in sites:
                setattr(site, a, wrapper)
                self._patched.append((site, a, fn))
            self.aliases[name] = (
                [f"{modname}.{qualname}"] if path
                else [f"{s.__name__}.{a}" for s, a in sites]
            )

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._patched):
            setattr(site, attr, fn)
        self._patched.clear()

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        """All spans as columns: name index, start, end (perf_counter
        seconds), parent span index (-1 for a root) and op id."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.s_name.tolist(),
                    "start": self.s_start.tolist(),
                    "end": self.s_end.tolist(),
                    "parent": self.s_parent.tolist(),
                    "op": self.s_op.tolist(),
                    "absent": self.absent,
                    "aliases": self.aliases,
                },
                fh,
            )
