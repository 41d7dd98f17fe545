"""Linear program representation, certificates, and symbolic duals.

Standard form: optimize c.x subject to A x <= b, x >= 0, with sense max
or min.  Rows are stored sparse as (column, coefficient) pairs.  Rows
and columns are known by index only.  A program may also carry its
builder's `layout`, an opaque value that this package only copies onto
certificates; a builder that names components renders the names from
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

MAX = "max"
MIN = "min"


@dataclass(frozen=True)
class LinearProgram:
    sense: str
    c: tuple[Fraction, ...]
    rows: tuple[tuple[tuple[int, Fraction], ...], ...]
    b: tuple[Fraction, ...]
    layout: object = field(default=None, compare=False)

    @property
    def ncols(self) -> int:
        return len(self.c)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row_dot(self, r: int, x: Sequence[Fraction]) -> Fraction:
        return sum((coef * x[j] for j, coef in self.rows[r]), Fraction(0))

    def col_dot(self, y: Sequence[Fraction]) -> list[Fraction]:
        """y^T A as a dense vector over columns."""
        out = [Fraction(0)] * self.ncols
        for r, row in enumerate(self.rows):
            yr = y[r]
            if yr:
                for j, coef in row:
                    out[j] += yr * coef
        return out


def _exact(q) -> Fraction:
    return q if isinstance(q, Fraction) else Fraction(q)


def make_lp(
    sense: str,
    c: Sequence[Fraction],
    rows: Sequence[Sequence[tuple[int, Fraction]]],
    b: Sequence[Fraction],
    layout: object = None,
) -> LinearProgram:
    """Validate and freeze an LP.  Zero coefficients are dropped;
    malformed input raises ValueError.  Fraction entries are stored as
    given; other numbers are converted."""
    if sense not in (MAX, MIN):
        raise ValueError(f"bad sense {sense!r}")
    ncols = len(c)
    if len(rows) != len(b):
        raise ValueError("row arrays have inconsistent lengths")
    clean_rows = []
    for row in rows:
        seen = set()
        clean = []
        for j, coef in row:
            if not 0 <= j < ncols:
                raise ValueError(f"column index {j} out of range")
            if j in seen:
                raise ValueError(f"duplicate column {j} within a row")
            seen.add(j)
            if coef:
                clean.append((j, _exact(coef)))
        clean_rows.append(tuple(clean))
    return LinearProgram(
        sense=sense,
        c=tuple(map(_exact, c)),
        rows=tuple(clean_rows),
        b=tuple(map(_exact, b)),
        layout=layout,
    )


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpCertificate:
    """Solver output, verified exactly at construction.

    optimal: primal x, dual y (one multiplier per row), objective c.x in
    the LP's own sense.  infeasible: witness y >= 0 with y^T A >= 0 and
    y.b < 0.  unbounded: primal is a feasible point and witness a ray d
    >= 0 with A d <= 0 improving the objective.  For min-sense programs
    the dual vector certifies the negated max form: y^T A >= -c and
    -c.x = b.y.
    """

    status: str
    primal: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = None
    objective: Fraction | None = None
    witness: tuple[Fraction, ...] | None = None
    layout: object = field(default=None, compare=False)


class CertificateError(AssertionError):
    """An exact verification of a certificate failed (internal bug)."""


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CertificateError(msg)


def verify_optimal(lp: LinearProgram, x, y, objective) -> None:
    """Exact optimality check.  Row products run over the nonzero
    entries of x only; a zero entry adds nothing to any of them."""
    sign = 1 if lp.sense == MAX else -1
    _require(len(x) == lp.ncols and len(y) == lp.nrows, "certificate shape")
    _require(all(v >= 0 for v in x), "primal negativity")
    _require(all(v >= 0 for v in y), "dual negativity")
    support = [v if v else None for v in x]
    for r, row in enumerate(lp.rows):
        total = Fraction(0)
        for j, coef in row:
            v = support[j]
            if v is not None:
                total += coef * v
        _require(total <= lp.b[r], f"primal row {r} violated")
    yA = lp.col_dot(y)
    for j, (a, cj) in enumerate(zip(yA, lp.c)):
        _require(a >= cj if sign == 1 else a >= -cj, f"dual column {j} violated")
    cx = sum((lp.c[j] * v for j, v in enumerate(support) if v is not None), Fraction(0))
    by = sum((lp.b[r] * y[r] for r in range(lp.nrows) if y[r]), Fraction(0))
    _require(sign * cx == by, "duality gap nonzero")
    _require(cx == objective, "objective mismatch")


def verify_infeasible(lp: LinearProgram, y) -> None:
    _require(len(y) == lp.nrows, "witness shape")
    _require(all(v >= 0 for v in y), "witness negativity")
    yA = lp.col_dot(y)
    _require(all(v >= 0 for v in yA), "witness y^T A not nonnegative")
    by = sum((lp.b[r] * y[r] for r in range(lp.nrows)), Fraction(0))
    _require(by < 0, "witness y.b not negative")


def verify_unbounded(lp: LinearProgram, x, d) -> None:
    sign = 1 if lp.sense == MAX else -1
    _require(len(x) == lp.ncols and len(d) == lp.ncols, "witness shape")
    _require(all(v >= 0 for v in x), "point negativity")
    _require(all(v >= 0 for v in d), "ray negativity")
    for r in range(lp.nrows):
        _require(lp.row_dot(r, x) <= lp.b[r], "point infeasible")
        _require(lp.row_dot(r, d) <= 0, "ray leaves the feasible cone")
    cd = sum((lp.c[j] * d[j] for j in range(lp.ncols)), Fraction(0))
    _require(sign * cd > 0, "ray does not improve the objective")


def certify_optimal(lp: LinearProgram, x, y) -> LpCertificate:
    objective = sum((lp.c[j] * v for j, v in enumerate(x) if v), Fraction(0))
    verify_optimal(lp, x, y, objective)
    return LpCertificate(
        status=OPTIMAL,
        layout=lp.layout,
        primal=tuple(x),
        dual=tuple(y),
        objective=objective,
    )


def certify_infeasible(lp: LinearProgram, y) -> LpCertificate:
    verify_infeasible(lp, y)
    return LpCertificate(
        status=INFEASIBLE,
        layout=lp.layout,
        witness=tuple(y),
    )


def certify_unbounded(lp: LinearProgram, x, d) -> LpCertificate:
    verify_unbounded(lp, x, d)
    return LpCertificate(
        status=UNBOUNDED,
        layout=lp.layout,
        primal=tuple(x),
        witness=tuple(d),
    )


def recheck_certificate(lp: LinearProgram, cert: LpCertificate) -> None:
    """Re-run the exact verification, e.g. after deserialization."""
    if cert.status == OPTIMAL:
        verify_optimal(lp, cert.primal, cert.dual, cert.objective)
    elif cert.status == INFEASIBLE:
        verify_infeasible(lp, cert.witness)
    elif cert.status == UNBOUNDED:
        verify_unbounded(lp, cert.primal, cert.witness)
    else:
        raise CertificateError(f"unknown status {cert.status!r}")


def dual_of(lp: LinearProgram) -> LinearProgram:
    """The symbolic dual: column j of lp is row j of the dual, and row r
    of lp is column r.

    max{c.x : Ax <= b, x >= 0}  ->  min{b.y : -A^T y <= -c, y >= 0}
    min{c.x : Ax <= b, x >= 0}  ->  max{-b.y : -A^T y <= c, y >= 0}

    Both directions report the same optimal value as the input program,
    and dual_of(dual_of(lp)) == lp.
    """
    cols = [[] for _ in range(lp.ncols)]
    for r, row in enumerate(lp.rows):
        for j, coef in row:
            cols[j].append((r, -coef))
    if lp.sense == MAX:
        sense, c, b = MIN, lp.b, tuple(-q for q in lp.c)
    else:
        sense, c, b = MAX, tuple(-q for q in lp.b), tuple(lp.c)
    return make_lp(sense, c, [tuple(col) for col in cols], b)


def export_lp_text(lp: LinearProgram) -> str:
    """Render in the common textual LP-exchange format.

    Every row is scaled by the lcm of its denominators so coefficients
    print as integers; the objective scale factor is recorded in a
    leading comment (true objective = printed objective / scale).
    Column j is named x<j> and row r is named r<r>.
    """
    names = [f"x{j}" for j in range(lp.ncols)]
    obj_scale = lcm(*(q.denominator for q in lp.c)) if lp.c else 1
    lines = [
        f"\\ objective scale: {obj_scale} (true objective = printed / {obj_scale})",
        "Maximize" if lp.sense == MAX else "Minimize",
    ]
    terms = [
        f"{'+' if q >= 0 else '-'} {abs(q * obj_scale)} {names[j]}"
        for j, q in enumerate(lp.c)
        if q
    ]
    lines.append(" obj: " + (" ".join(terms) if terms else "0 " + names[0] if names else ""))
    lines.append("Subject To")
    for r, row in enumerate(lp.rows):
        dens = [coef.denominator for _, coef in row] + [lp.b[r].denominator]
        scale = lcm(*dens)
        terms = [
            f"{'+' if coef >= 0 else '-'} {abs(coef * scale)} {names[j]}"
            for j, coef in row
        ]
        body = " ".join(terms) if terms else f"0 {names[0]}"
        lines.append(f" r{r}: {body} <= {lp.b[r] * scale}")
    lines.append("End")
    return "\n".join(lines) + "\n"
