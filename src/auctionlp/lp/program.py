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
from operator import truediv
from typing import Sequence

from ..errors import InvalidInput

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


class DeferredProgram:
    """A program that solve builds in the arithmetic of each pass that
    reads it, from one builder, build(number): number(p, q) makes each
    coefficient from integers p and q.  floating() builds it with
    operator.truediv, so each float is the correctly rounded value of
    the exact coefficient, and exact() with Fraction.  The float pass
    runs first, so the exact program is built only if the float pass
    proposes nothing that the acceptor accepts.

    Neither build is validated: nothing either pass proposes is accepted
    but by the acceptor, which is handed this object and must prove a
    vertex without its entries, from the layout alone.  (certify_optimal
    reads the entries, so it cannot serve.)  nrows, ncols and rows read
    the program built last, so reading them after a solve builds none."""

    def __init__(self, build, layout: object = None):
        self._build = build
        self.layout = layout
        self.built = None

    def floating(self) -> LinearProgram:
        self.built = self._build(truediv)
        return self.built

    def exact(self) -> LinearProgram:
        self.built = self._build(Fraction)
        return self.built

    @property
    def nrows(self) -> int:
        return self.built.nrows

    @property
    def ncols(self) -> int:
        return self.built.ncols

    @property
    def rows(self):
        return self.built.rows


def _exact(q) -> Fraction:
    return q if isinstance(q, Fraction) else Fraction(q)


def _checked_row(row, ncols: int) -> tuple[tuple[int, Fraction], ...]:
    """The row's nonzero entries as (column, Fraction) pairs, checked
    entry by entry, so that an error names the first bad column."""
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
    return tuple(clean)


def make_lp(
    sense: str,
    c: Sequence[Fraction],
    rows: Sequence[Sequence[tuple[int, Fraction]]],
    b: Sequence[Fraction],
    layout: object = None,
) -> LinearProgram:
    """Validate and freeze an LP from outside the package (the package's
    own builders freeze theirs).  Zero coefficients are dropped;
    malformed input (a bad sense, rows and b of different lengths, a
    column out of range or repeated within a row) raises ValueError,
    naming the first bad column.  Fraction entries are stored as given;
    other numbers are converted."""
    if sense not in (MAX, MIN):
        raise ValueError(f"bad sense {sense!r}")
    ncols = len(c)
    if len(rows) != len(b):
        raise ValueError("row arrays have inconsistent lengths")
    return LinearProgram(
        sense=sense,
        c=tuple(map(_exact, c)),
        rows=tuple(_checked_row(row, ncols) for row in rows),
        b=tuple(map(_exact, b)),
        layout=layout,
    )


@dataclass(frozen=True)
class LpCertificate:
    """An optimal solution, held once, as rationals: primal x, dual y
    (one multiplier per row) and the objective c.x in the LP's own sense.
    For min-sense programs the dual vector certifies the negated max
    form: y^T A >= -c and -c.x = b.y.  Constructing one checks nothing:
    the acceptor solve hands a vertex to verifies exactly before it
    constructs (certify_optimal on the program's rows and columns, or a
    builder's own exact check), and recheck_certificate verifies a
    certificate that came from elsewhere.

    proof is what the accepting check built while it proved x and y, an
    opaque value this package only carries (None from certify_optimal).
    It belongs to these vectors: a certificate made with other values
    must not carry it over.  A reader that cannot use it (None, or a
    proof made for another instance) proves x and y again before it
    reads them, so a certificate without it gives the same answers, or
    is refused when they are not optimal.
    """

    primal: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]
    objective: Fraction
    layout: object = field(default=None, compare=False)
    proof: object = field(default=None, compare=False, repr=False)
    # no certificate carries a witness; perfbench/spans.py still reads one
    witness = None


class CertificateError(InvalidInput):
    """An exact verification of a certificate failed.  It is how a stored
    certificate that is not optimal (a tampered document, say) is
    refused, as invalid input; the solver turns it into another ending:
    a rejected rounding in the float pass, NotOptimal in the exact one."""


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CertificateError(msg)


# The exact checks below run on integer numerators.  A sum of rational
# terms p/q is held as (num, den), den > 0: a term whose denominator
# divides den adds p * (den // q), and any other first grows den to
# lcm(den, q).  Each row and column grows its own denominator, so the
# work on one never depends on the denominators elsewhere in the vector.
# A sign test reads the numerator, since denominators are positive.


def _split(vec) -> list[tuple[int, int] | None]:
    """Each entry as (numerator, denominator), None where it is 0."""
    out = []
    for v in vec:
        p = v.numerator
        out.append((p, v.denominator) if p else None)
    return out


def _negative(pairs) -> bool:
    return any(v is not None and v[0] < 0 for v in pairs)


def _dot(terms, pairs) -> tuple[int, int]:
    """sum of coef * v over (j, coef) in terms, with v = pairs[j]."""
    num, den = 0, 1
    for j, coef in terms:
        v = pairs[j]
        if v is not None:
            q = coef.denominator * v[1]
            if den % q:
                grown = lcm(den, q)
                num *= grown // den
                den = grown
            num += coef.numerator * v[0] * (den // q)
    return num, den


def _col_sums(lp: LinearProgram, pairs) -> tuple[list[int], list[int]]:
    """y^T A as per-column numerators and denominators, y = pairs: _dot
    over the columns, filled row by row so that rows where y is 0 are
    skipped."""
    nums = [0] * lp.ncols
    dens = [1] * lp.ncols
    for row, v in zip(lp.rows, pairs):
        if v is None:
            continue
        p, q0 = v
        for j, coef in row:
            q = coef.denominator * q0
            den = dens[j]
            if den % q:
                grown = lcm(den, q)
                nums[j] *= grown // den
                dens[j] = den = grown
            nums[j] += coef.numerator * p * (den // q)
    return nums, dens


def _at_most(sum_: tuple[int, int], bound) -> bool:
    num, den = sum_
    return num * bound.denominator <= bound.numerator * den


def certify_optimal(lp: LinearProgram, x, y) -> LpCertificate:
    """(x, y) as a certificate with objective c.x, once the exact
    optimality check accepts them, or CertificateError.  x and y hold
    rationals (Fraction or int); row products run over the nonzero
    entries of x only, since a zero entry adds nothing to any of them."""
    xs, ys = _split(x), _split(y)
    _require(len(xs) == lp.ncols and len(ys) == lp.nrows, "certificate shape")
    _require(not _negative(xs), "primal negativity")
    _require(not _negative(ys), "dual negativity")
    for r, (row, b) in enumerate(zip(lp.rows, lp.b)):
        _require(_at_most(_dot(row, xs), b), f"primal row {r} violated")
    # y^T A >= c (max), or >= -c (min)
    sign = 1 if lp.sense == MAX else -1
    nums, dens = _col_sums(lp, ys)
    for j, (num, den, cj) in enumerate(zip(nums, dens, lp.c)):
        _require(
            num * cj.denominator >= sign * cj.numerator * den, f"dual column {j} violated"
        )
    cx_num, cx_den = _dot(enumerate(lp.c), xs)
    by_num, by_den = _dot(enumerate(lp.b), ys)
    _require(sign * cx_num * by_den == by_num * cx_den, "duality gap nonzero")
    return LpCertificate(tuple(x), tuple(y), Fraction(cx_num, cx_den), lp.layout)


def recheck_certificate(lp: LinearProgram, cert: LpCertificate) -> None:
    """Re-run the exact verification, e.g. after deserialization:
    certify_optimal on its vectors, and their c.x is the stated
    objective."""
    objective = certify_optimal(lp, cert.primal, cert.dual).objective
    _require(objective == cert.objective, "objective mismatch")


def dual_of(lp: LinearProgram) -> LinearProgram:
    """The symbolic dual: column j of lp is row j of the dual, and row r
    of lp is column r.

    max{c.x : Ax <= b, x >= 0}  ->  min{b.y : -A^T y <= -c, y >= 0}
    min{c.x : Ax <= b, x >= 0}  ->  max{-b.y : -A^T y <= c, y >= 0}

    Both directions report the same optimal value as the input program.
    The input is trusted to be well formed, and so is its transpose,
    which is frozen unchecked; dual_of(dual_of(lp)) == lp for a frozen
    program whose rows list their columns in increasing order.
    """
    cols = [[] for _ in range(lp.ncols)]
    for r, row in enumerate(lp.rows):
        for j, coef in row:
            cols[j].append((r, -coef))
    if lp.sense == MAX:
        sense, c, b = MIN, tuple(lp.b), tuple(-q for q in lp.c)
    else:
        sense, c, b = MAX, tuple(-q for q in lp.b), tuple(lp.c)
    return LinearProgram(sense, c, tuple(map(tuple, cols)), b)
