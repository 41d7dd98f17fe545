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
from itertools import chain, repeat
from math import lcm
from operator import attrgetter, itemgetter
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


def _exact(q) -> Fraction:
    return q if isinstance(q, Fraction) else Fraction(q)


# A Fraction keeps its numerator and denominator in slots; reading a
# slot runs in C, where the public properties are a Python call per entry.
_NUMERATOR = attrgetter("_numerator" if "_numerator" in Fraction.__slots__ else "numerator")
_DENOMINATOR = attrgetter(
    "_denominator" if "_denominator" in Fraction.__slots__ else "denominator"
)
_COLUMN, _COEFFICIENT = itemgetter(0), itemgetter(1)


def _all_fractions(values) -> bool:
    return all(map(isinstance, values, repeat(Fraction)))


def _exact_all(values) -> tuple[Fraction, ...]:
    values = tuple(values)
    return values if _all_fractions(values) else tuple(map(_exact, values))


def _all_clean(rows, ncols: int) -> bool:
    """Whether every row is a sequence of (column, coefficient) tuples
    with in-range columns, distinct within the row, and nonzero Fraction
    coefficients.  Each test runs in C over all the entries at once."""
    entries = list(chain.from_iterable(rows))
    if not entries:
        return True
    if set(map(type, entries)) != {tuple} or set(map(len, entries)) != {2}:
        return False
    cols = list(map(_COLUMN, entries))
    coefs = list(map(_COEFFICIENT, entries))
    return (
        min(cols) >= 0
        and max(cols) < ncols
        and sum(map(len, map(dict, rows))) == len(entries)
        and _all_fractions(coefs)
        and all(map(_NUMERATOR, coefs))
    )


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
    """Validate and freeze an LP.  Zero coefficients are dropped;
    malformed input (a bad sense, rows and b of different lengths, a
    column out of range or repeated within a row) raises ValueError.
    Fraction entries are stored as given; other numbers are converted.

    Every entry is checked, at the cost of the nonzeros: in bulk, by
    the least and greatest column, the count of distinct columns in each
    row, and C-level tests that every coefficient is a nonzero Fraction.
    Only when a bulk test fails are the rows walked entry by entry, to
    convert numbers, drop zeros, or name the first bad column."""
    if sense not in (MAX, MIN):
        raise ValueError(f"bad sense {sense!r}")
    ncols = len(c)
    if len(rows) != len(b):
        raise ValueError("row arrays have inconsistent lengths")
    rows = tuple(map(tuple, rows))
    if not _all_clean(rows, ncols):
        rows = tuple(_checked_row(row, ncols) for row in rows)
    return LinearProgram(
        sense=sense,
        c=_exact_all(c),
        rows=rows,
        b=_exact_all(b),
        layout=layout,
    )


@dataclass(frozen=True)
class LpCertificate:
    """An optimal solution, held once, as rationals: primal x, dual y
    (one multiplier per row) and the objective c.x in the LP's own sense.
    For min-sense programs the dual vector certifies the negated max
    form: y^T A >= -c and -c.x = b.y.  Constructing one checks nothing:
    certify_optimal verifies exactly before it constructs, and
    recheck_certificate verifies a certificate that came from elsewhere.
    """

    primal: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]
    objective: Fraction
    layout: object = field(default=None, compare=False)
    # no certificate carries a witness; perfbench/spans.py still reads one
    witness = None


class CertificateError(AssertionError):
    """An exact verification of a certificate failed.  It is how a stored
    certificate that is not optimal (a tampered document, say) is
    refused; the solver turns it into another ending: a rejected
    rounding in the float pass, NotOptimal in the exact one."""


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


def _check_optimal(lp: LinearProgram, xs, ys) -> Fraction:
    """verify_optimal short of the stated objective, on x and y as
    _split gives them: c.x on success."""
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
    return Fraction(cx_num, cx_den)


def verify_optimal(lp: LinearProgram, x, y, objective) -> None:
    """Exact optimality check of rational (Fraction or int) vectors.
    Row products run over the nonzero entries of x only; a zero entry
    adds nothing to any of them."""
    _require(_check_optimal(lp, _split(x), _split(y)) == objective, "objective mismatch")


def certify_optimal(lp: LinearProgram, x, y) -> LpCertificate:
    """(x, y) as a certificate, once the exact check accepts them."""
    objective = _check_optimal(lp, _split(x), _split(y))
    return LpCertificate(tuple(x), tuple(y), objective, lp.layout)


def recheck_certificate(lp: LinearProgram, cert: LpCertificate) -> None:
    """Re-run the exact verification, e.g. after deserialization."""
    verify_optimal(lp, cert.primal, cert.dual, cert.objective)


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
