"""Exact-rational linear programming with verified certificates."""

from .program import (
    INFEASIBLE,
    MAX,
    MIN,
    OPTIMAL,
    UNBOUNDED,
    CertificateError,
    LinearProgram,
    LpCertificate,
    dual_of,
    export_lp_text,
    make_lp,
    recheck_certificate,
)
from .simplex import check_tableau_size, solve

__all__ = [
    "INFEASIBLE",
    "MAX",
    "MIN",
    "OPTIMAL",
    "UNBOUNDED",
    "CertificateError",
    "LinearProgram",
    "LpCertificate",
    "check_tableau_size",
    "dual_of",
    "export_lp_text",
    "make_lp",
    "recheck_certificate",
    "solve",
]
