"""Exact-rational linear programming with verified certificates."""

from ..errors import CertificateError
from .program import (
    MAX,
    MIN,
    DeferredProgram,
    LinearProgram,
    LpCertificate,
    dual_of,
    make_lp,
    recheck_certificate,
)
from .simplex import check_tableau_size, solve

__all__ = [
    "MAX",
    "MIN",
    "CertificateError",
    "DeferredProgram",
    "LinearProgram",
    "LpCertificate",
    "check_tableau_size",
    "dual_of",
    "make_lp",
    "recheck_certificate",
    "solve",
]
