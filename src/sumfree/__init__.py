"""Certified large (k,l)-sum-free subsets of integer sets, via exact
maximization of dilation counts over torus arcs, plus the exact Fourier,
sieve, Littlewood-Paley and bounded-test-function machinery that backs the
L1 lower bounds."""

__version__ = "0.1.0"

from .arcs import ArcSet, canonical_omega, is_arc_kl_sumfree, pullback
from .arith import SieveContext
from .dilation import (
    ExtractionCertificate,
    PiecewiseConstantFn,
    balanced_function,
    count_function,
    exact_l1,
    extract_certified,
    maximize_count,
    orbit_subset,
)
from .errors import CertificationError, InputError, ResourceLimitError, SumfreeError
from .fourier import TrigPoly, eval_exact, fhat, fhat_t, grid_norms, series_truncated
from .lp import decompose, lacunary_l1_diagnostic, square_function_lp
from .mps import build_phi, fejer, hilbert, pairing
from .oracle import OracleResult, compare, max_sumfree_exact
from .sets import IntegerSet, generate, is_kl_sumfree, load_set, structure
from .sieve import inner_sum_decomposition, l1_lower_report, verify_identity

__all__ = [
    "ArcSet",
    "CertificationError",
    "ExtractionCertificate",
    "InputError",
    "IntegerSet",
    "OracleResult",
    "PiecewiseConstantFn",
    "ResourceLimitError",
    "SieveContext",
    "SumfreeError",
    "TrigPoly",
    "balanced_function",
    "build_phi",
    "canonical_omega",
    "compare",
    "count_function",
    "decompose",
    "eval_exact",
    "exact_l1",
    "extract_certified",
    "fejer",
    "fhat",
    "fhat_t",
    "generate",
    "grid_norms",
    "hilbert",
    "inner_sum_decomposition",
    "is_arc_kl_sumfree",
    "is_kl_sumfree",
    "l1_lower_report",
    "lacunary_l1_diagnostic",
    "load_set",
    "max_sumfree_exact",
    "maximize_count",
    "orbit_subset",
    "pairing",
    "pullback",
    "series_truncated",
    "square_function_lp",
    "structure",
    "verify_identity",
]
