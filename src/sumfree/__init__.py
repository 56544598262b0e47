"""Certified large (k,l)-sum-free subsets of integer sets, via exact
maximization of dilation counts over torus arcs, plus the machinery that
backs the L1 lower bounds: exact integer-table checks of the Mobius sieve
identities, a grid layer with certified norms, lacunary L1 diagnostics and
the bounded test-function build."""

__version__ = "0.1.0"

from .arcs import ArcSet, canonical_omega, is_arc_kl_sumfree, pullback
from .arith import SieveContext
from .dilation import (
    ExtractionCertificate,
    extract_certified,
    l1_and_max,
    maximize_count,
    orbit_subset,
)
from .errors import CertificationError, InputError, ResourceLimitError, SumfreeError
from .fourier import grid_norms
from .lp import lacunary_l1_diagnostic
from .mps import build_phi, hilbert
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
    "ResourceLimitError",
    "SieveContext",
    "SumfreeError",
    "build_phi",
    "canonical_omega",
    "compare",
    "extract_certified",
    "generate",
    "grid_norms",
    "hilbert",
    "inner_sum_decomposition",
    "is_arc_kl_sumfree",
    "is_kl_sumfree",
    "l1_and_max",
    "l1_lower_report",
    "lacunary_l1_diagnostic",
    "load_set",
    "max_sumfree_exact",
    "maximize_count",
    "orbit_subset",
    "pullback",
    "structure",
    "verify_identity",
]
