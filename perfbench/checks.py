"""Output checks, one per op kind, run on the op's JSON report outside the
timed region.  A check raises CheckFailed; the harness counts that, like an
exception from the op itself, as a failed op.

The floors: every extraction count is at least the averaging floor
N * measure(arc) (Erdos 1965: the mean of |A_x| over x is N * measure), and
every (2,1) count is at least (N + 2) / 3 (Bourgain 1997).
"""

from __future__ import annotations

import functools
from fractions import Fraction

from sumfree.arith import SieveContext
from sumfree.dilation import ExtractionCertificate
from sumfree.sets import IntegerSet, generate, is_kl_sumfree
from sumfree.sieve import IDENTITY_IDS, l1_lower_report

# Criterion 7/8 bounds on the Phi certificate.
PHI_SUP_MAX = 10.001
PHI_CLOSENESS_MAX = 0.45 + 1e-6
PHI_L2_SLACK = 1e-6
PHI_EXPLICIT_MAX = 1e-8
LP_EXPONENT_MIN = 1 / 3


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_extract(op, report: dict) -> None:
    stage = report["stages"]["extraction"]
    cert = ExtractionCertificate.from_json(stage["certificate"])
    A = IntegerSet.of(op.elements)
    k, l = op.config.k, op.config.l
    _require((cert.k, cert.l) == (k, l), f"certificate is for ({cert.k},{cert.l})")
    _require(cert.reverify(A), "certificate does not re-verify from its JSON")
    _require(
        cert.count >= A.N * cert.arc_used.measure,
        f"count {cert.count} below the averaging floor {A.N * cert.arc_used.measure}",
    )
    if (k, l) == (2, 1):
        _require(3 * cert.count >= A.N + 2, f"count {cert.count} below (N+2)/3")
    if "geometric" in op.label:
        _require(stage["route"] == "lacunary", "geometric set missed the lacunary route")


def check_verify(op, report: dict) -> None:
    stage = report["stages"]["verify"]
    ids = [r["identity_id"] for r in stage["identities"]]
    _require(ids == list(IDENTITY_IDS), f"identities checked: {ids}")
    _require(stage["all_equal"] is True, "all_equal is not true")
    for r in stage["identities"]:
        _require(r["defect"] == "0", f"{r['identity_id']}: defect {r['defect']}")
        _require(r["equal"] is True, f"{r['identity_id']}: not equal")
        _require(r["X"] == op.config.cutoff and r["Q"] == op.config.q, "wrong X or Q")


@functools.lru_cache(maxsize=None)
def _l1_reference(N: int, q: int, p: int) -> dict:
    # every l1_growth op of a run has the same N, so one recomputation serves all
    return l1_lower_report(generate("interval", n=N), SieveContext(Q=q, P=p))


def check_l1_growth(op, report: dict) -> None:
    (row,) = report["stages"]["l1_growth"]
    N = op.config.sizes[0]
    _require(row["N"] == N, f"row for N={row['N']}")
    # The report row omits the max >= L1/2 flag, so recompute it and tie the
    # recomputation to the row through max(G, L).
    rep = _l1_reference(N, op.config.q, op.config.p)
    _require(rep["max_ge_half_l1"] is True, "max < L1/2 on the winning leg")
    _require(
        float(Fraction(*rep["max_l1_GL"])) == row["max_l1"],
        "max_l1 disagrees with a recomputation",
    )


def check_phi(op, report: dict) -> None:
    cert = report["stages"]["phi"]["certificate"]
    _require(cert["sup_bound"] <= PHI_SUP_MAX, f"sup bound {cert['sup_bound']}")
    for row in cert["per_block"]:
        _require(row["support_ok"] is True, f"block {row['k']}: support")
        _require(
            row["l2_one_minus_q"] <= row["l2_bound"] + PHI_L2_SLACK,
            f"block {row['k']}: l2 {row['l2_one_minus_q']}",
        )
        _require(
            row["closeness_ratio"] <= PHI_CLOSENESS_MAX,
            f"block {row['k']}: closeness {row['closeness_ratio']}",
        )
    target = cert["pairing_constant"] * cert["pairing_target"]
    _require(cert["pairing"][0] >= target, f"pairing {cert['pairing'][0]} < {target}")
    _require(
        cert["explicit_agreement"] <= PHI_EXPLICIT_MAX,
        f"explicit agreement {cert['explicit_agreement']}",
    )


def check_lp(op, report: dict) -> None:
    stage = report["stages"]["lp"]
    _require(len(stage["rows"]) == len(op.config.sizes), "one row per size")
    _require(
        stage["worst_case_exponent"] >= LP_EXPONENT_MIN,
        f"worst-case exponent {stage['worst_case_exponent']}",
    )


def check_oracle(op, report: dict) -> None:
    stage = report["stages"]["oracle"]
    A = IntegerSet.of(op.elements)
    k, l = op.config.k, op.config.l
    witness = IntegerSet.of(stage["oracle"]["witness"])
    _require(stage["gap"] >= 0, f"gap {stage['gap']}")
    _require(set(witness.elements) <= set(A.elements), "witness not inside A")
    _require(len(witness) == stage["oracle"]["best_size"], "witness size")
    _require(is_kl_sumfree(witness, k, l), "witness is not sum-free")
    cert = ExtractionCertificate.from_json(stage["extractor"])
    _require(cert.reverify(A), "extractor certificate does not re-verify")
    _require(stage["gap"] == len(witness) - cert.count, "gap disagrees with sizes")


CHECKS = {
    "extract": check_extract,
    "verify": check_verify,
    "l1_growth": check_l1_growth,
    "phi": check_phi,
    "lp": check_lp,
    "oracle": check_oracle,
}


def check(op, report: dict) -> None:
    CHECKS[op.kind](op, report)
