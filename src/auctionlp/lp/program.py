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
from functools import cached_property
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


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpCertificate:
    """Solver output.  Constructing one checks nothing: certify_* verify
    exactly before they construct, and recheck_certificate verifies a
    certificate that came from elsewhere, such as a certificate file.

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
    # primal and dual as split by _split, when the caller has them: the
    # split certify_optimal's check ran on
    split: tuple[list, list] | None = field(default=None, compare=False, repr=False)

    @cached_property
    def scaled(self) -> tuple[tuple[tuple[int, ...], int], tuple[tuple[int, ...], int]]:
        """An optimal certificate's primal and dual, each as (integer
        numerators, denominator) over one denominator, the lcm of its
        entries' denominators.  Made from `split` when it is given."""
        xs, ys = self.split or (_split(self.primal), _split(self.dual))
        return _over_lcm(xs), _over_lcm(ys)


class CertificateError(AssertionError):
    """An exact verification of a certificate failed (internal bug)."""


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


def _over_lcm(pairs) -> tuple[tuple[int, ...], int]:
    """Split entries as (numerators, den) over one denominator, the lcm
    of theirs; a zero entry has numerator 0."""
    factors = dict.fromkeys(v[1] for v in pairs if v is not None)
    den = lcm(*factors)
    for q in factors:
        factors[q] = den // q
    return tuple(0 if v is None else v[0] * factors[v[1]] for v in pairs), den


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
    """verify_optimal short of the stated objective, on the split x and
    y: c.x on success."""
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


def verify_infeasible(lp: LinearProgram, y) -> None:
    _require(len(y) == lp.nrows, "witness shape")
    ys = _split(y)
    _require(not _negative(ys), "witness negativity")
    nums, _ = _col_sums(lp, ys)
    _require(all(num >= 0 for num in nums), "witness y^T A not nonnegative")
    _require(_dot(enumerate(lp.b), ys)[0] < 0, "witness y.b not negative")


def verify_unbounded(lp: LinearProgram, x, d) -> None:
    _require(len(x) == lp.ncols and len(d) == lp.ncols, "witness shape")
    xs = _split(x)
    _require(not _negative(xs), "point negativity")
    ds = _split(d)
    _require(not _negative(ds), "ray negativity")
    for row, b in zip(lp.rows, lp.b):
        _require(_at_most(_dot(row, xs), b), "point infeasible")
        _require(_dot(row, ds)[0] <= 0, "ray leaves the feasible cone")
    sign = 1 if lp.sense == MAX else -1
    _require(sign * _dot(enumerate(lp.c), ds)[0] > 0, "ray does not improve the objective")


def certify_optimal(lp: LinearProgram, x, y) -> LpCertificate:
    xs, ys = _split(x), _split(y)
    objective = _check_optimal(lp, xs, ys)
    return LpCertificate(
        status=OPTIMAL,
        layout=lp.layout,
        primal=tuple(x),
        dual=tuple(y),
        objective=objective,
        split=(xs, ys),
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
