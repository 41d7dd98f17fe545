"""Two-phase primal simplex: a float pass proposes, exact rationals accept.

The tableau is sparse.  Each row is a dict from column to its nonzero
entries, the right-hand side included, and a column index names the
rows that hold each column.  A pivot then visits only the rows holding
the pivot column, and in each only the pivot row's nonzeros; the ratio
test visits only the pivot column's rows.  The objective rows are dense
lists, each paired with its pricing set: the columns whose reduced cost
is negative, the only ones that can enter.  A pivot changes an
objective row only at the pivot row's nonzeros, so `eliminate` keeps
the set there, and pricing reads the set instead of every column.
Both passes use this one representation, one elimination routine
(`eliminate`, which sees each pivot), one pricing routine and one pivot
loop for both phases; they differ only in arithmetic and in the
tolerance, which is 0 in the exact pass.

No big-M constant: infeasible starting bases get artificial variables
and a phase-one objective.  The pivot rule is Dantzig's (most negative
reduced cost) with a lexicographic tie-break in the ratio test.  Once a
degenerate stall is detected the run switches to Bland's rule for good,
which guarantees termination.

`solve` first runs the simplex over Python floats with the same pivot
rule, so it walks the exact pivot path, and rounds the optimal vertex
it ends on to nearby rationals.  The float pass reads a program in
floats (_in_arithmetic): a DeferredProgram's builder run in floats (the
auction primals, made from the instance's integers), or a frozen
program's Fractions converted entry by entry with float.  Each float
is the correctly rounded value of the exact coefficient either way.
No program is validated here: a frozen one is well formed by its maker
(make_lp, or a package builder), and only an exact check
accepts the proposal: the acceptor `solve` is given, `certify_optimal`
on the program's rows and columns unless the caller passes its own (the
auction builders prove their primals on the model instead).  Any other
ending (the check fails, the float pass ends without an optimum, runs
out of its pivot budget, or meets a number floats cannot hold) runs the
exact simplex from scratch, on the exact program, which a
DeferredProgram builds (with Fraction) only then; its vertex faces the
same acceptor.
Every program the package builds has an optimum, so the exact simplex
ending without one (infeasible, unbounded, a corrupt tableau, or a
vertex that fails its exact check) means a program built wrong, and it
raises NotOptimal.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from typing import NoReturn

from ..errors import NotOptimal, ScaleLimit
from .program import (
    DeferredProgram,
    LinearProgram,
    MAX,
    CertificateError,
    LpCertificate,
    certify_optimal,
)


def eliminate(tableau, r, c):
    """Pivot on (row r, column c) of a `_Simplex` tableau: scale the
    pivot row to a unit pivot, then clear column c from every other row
    and from the dense objective rows in `tableau.objs`.  Mutates the
    tableau in place.  Only the rows in `tableau.cols[c]` and the pivot
    row's nonzeros are visited; an entry that becomes zero is deleted
    (`tableau.zero` in an objective row), and `tableau.cols` follows
    every deletion and fill-in.  Each objective row's pricing set
    follows the entries this changes, so that it stays the set of
    columns whose entry is negative.  Zero means within `tableau.tol`
    of zero, so in the float pass the cleared column and the degenerate
    right-hand sides read as exact zeros afterwards; with `tol` 0 every
    tolerance test is skipped."""
    rows, cols, tol, zero = tableau.T, tableau.cols, tableau.tol, tableau.zero
    prow = rows[r]
    piv = prow[c]
    # The float pass rescales a unit pivot row too: the program itself
    # can hold entries within the tolerance of zero.
    if tol or piv != 1:
        inv = tableau.one / piv
        for k, val in list(prow.items()):
            val *= inv
            if not tol or val > tol or val < -tol:
                prow[k] = val
            else:
                del prow[k]
                cols[k].discard(r)
        prow[c] = tableau.one
    nz = [(k, val) for k, val in prow.items() if k != c]
    others = cols[c]
    others.discard(r)
    cols[c] = {r}
    for idx in others:
        row = rows[idx]
        f = row.pop(c)
        for k, val in nz:
            old = row.get(k)
            if old is None:
                new = -f * val
                if not tol or new > tol or new < -tol:
                    row[k] = new
                    cols[k].add(idx)
            else:
                new = old - f * val
                if new and (not tol or new > tol or new < -tol):
                    row[k] = new
                else:
                    del row[k]
                    cols[k].discard(idx)
    for obj, negative in tableau.objs:
        f = obj[c]
        if f:
            for k, val in nz:
                new = obj[k] - f * val
                if tol and not (new > tol or new < -tol):
                    new = zero
                obj[k] = new
                if new < 0:
                    negative.add(k)
                else:
                    negative.discard(k)
            obj[c] = zero
            negative.discard(c)


class PivotLimit(ScaleLimit):
    """Pivot cap exceeded.  In exact arithmetic this is a safety valve
    that indicates a solver bug, not a property of the LP, and like any
    exceeded cap the CLI exits 4 on it; in the float pass it is the
    pivot budget running out, and the exact simplex takes over."""


class _NoProposal(Exception):
    """The float pass ended without a certified optimal vertex."""


_PIVOT_CAP = 1_000_000

# Largest tableau (rows times width) a run may start on.  Sparse rows
# allocate per nonzero, not per slot, so this is a size guard that
# stands in for a work budget: an exact run on a program over it could
# take hours.  A 256-profile dominant-strategy program has 2.8e7; the
# 1024-profile one (6.8e8) is refused.
_TABLEAU_CAP = 10**8

# Float pass: two numbers within _FLOAT_TOL of each other compare equal,
# and a tableau entry within it of zero is zero.
_FLOAT_TOL = 1e-9
# Float pivots allowed per row and column of the program before the
# exact simplex takes over.
_FLOAT_PIVOTS_PER_DIM = 4
# Denominator bound when rounding the float vertex.  Too small a bound
# fails the check often (10**4 rejected 15 of 90 seeded 27-profile
# two-item dominant-strategy programs) and can round an entry to another
# point of the optimal face that still certifies, so it sits well above
# the certificate denominators seen in practice (at most 17 bits on the
# benchmark corpora); a vertex needing more goes to the exact simplex.
_ROUND_BOUND = 10**6

# Endings of the float pass that hand the program to the exact simplex,
# a rejected rounding among them (_NoProposal).  OverflowError and
# ValueError come from numbers floats cannot hold: building or
# converting the float program refuses a rational beyond their range,
# and Fraction() the infinities and NaNs that overflowing arithmetic
# leaves behind.
_NO_PROPOSAL = (_NoProposal, PivotLimit, OverflowError, ValueError)


def check_tableau_size(rows: int, cols: int) -> None:
    """Refuse a rows x cols program's tableau, a slack per row and the
    right-hand side wider, over _TABLEAU_CAP with ScaleLimit (not a
    PivotLimit, which solve takes for a failed proposal)."""
    width = rows + cols + 1
    if rows * width > _TABLEAU_CAP:
        raise ScaleLimit(
            f"a {rows}x{width} tableau exceeds the cap of {_TABLEAU_CAP} entries"
        )


def _in_arithmetic(lp: LinearProgram | DeferredProgram, floating: bool) -> LinearProgram:
    """The program a run sets its tableau up from, in the run's
    arithmetic.  A DeferredProgram's one builder is run in it (truediv
    or Fraction).  A frozen program is read as it is by the exact run,
    and converted entry by entry with float for the float run.  Either
    float program raises OverflowError on a coefficient beyond the
    float range."""
    if isinstance(lp, DeferredProgram):
        return lp.floating() if floating else lp.exact()
    if not floating:
        return lp
    return LinearProgram(
        lp.sense,
        tuple(map(float, lp.c)),
        tuple([(j, float(q)) for j, q in row] for row in lp.rows),
        tuple(map(float, lp.b)),
        lp.layout,
    )


def _nearby_rational(value: float, bound: int) -> Fraction:
    """Fraction(value).limit_denominator(bound), on integers only: the
    closest fraction with denominator at most bound, the one of smaller
    denominator on a tie.

    The continued fraction of value's exact ratio n/d gives the last
    convergent p1/q1 within the bound and the semiconvergent
    (p0 + k*p1)/(q0 + k*q1) with the largest k the bound allows.  They
    lie on either side of n/d, 1/(q1*(q0 + k*q1)) apart, and p1/q1 is
    rem/(q1*d) from it, rem the remainder left when the expansion
    stopped; so p1/q1 is the closer one (or as close) exactly when
    2*rem*(q0 + k*q1) <= d.  OverflowError and ValueError on the
    infinities and NaN, as from Fraction(value)."""
    n, d = value.as_integer_ratio()
    if d <= bound:
        return Fraction(n, d)
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, rem = n, d
    while True:
        a = num // rem
        q2 = q0 + a * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, rem = rem, num - a * rem
    k = (bound - q0) // q1
    if 2 * rem * (q0 + k * q1) <= d:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


def solve(lp: LinearProgram | DeferredProgram, accept=certify_optimal) -> LpCertificate:
    """Solve to a verified optimal certificate: a primal/dual pair with a
    zero duality gap.  A program without an optimum raises NotOptimal.

    lp is a LinearProgram or a DeferredProgram.  A float pass proposes
    an optimal vertex and accept(lp, x, y), an exact check, accepts it;
    otherwise the exact simplex answers, its vertex checked by accept
    too.  accept returns the certificate of (x, y), or raises
    CertificateError to refuse them."""
    try:
        return _Simplex(lp, accept, floating=True).run()
    except _NO_PROPOSAL:
        pass
    return _Simplex(lp, accept).run()


class _Simplex:
    """One simplex run over exact rationals, or over floats when
    `floating` is set.  The tableau is set up from lp in the run's
    arithmetic (_in_arithmetic), and accept is handed lp itself.  The
    float run compares numbers up to _FLOAT_TOL where the exact run
    compares them exactly, and otherwise makes the same decisions.  It
    ends optimal with a certificate; otherwise the float run raises one
    of _NO_PROPOSAL (OverflowError at set-up among them) and the exact
    run NotOptimal or PivotLimit.

    Column layout: structural | slack | artificial... | rhs.  T[r] maps
    the columns of row r to its nonzero entries, the right-hand side at
    key `rhs` included; cols[k] is the set of rows that hold column k.
    The objective rows are dense lists over the same columns, each with
    its pricing set, the columns k where the row's entry is negative;
    `objs` lists the (row, set) pairs a pivot updates."""

    def __init__(
        self, lp: LinearProgram | DeferredProgram, accept=certify_optimal, floating: bool = False
    ):
        self.lp = lp
        self.accept = accept
        program = _in_arithmetic(lp, floating)
        self.sign = 1 if program.sense == MAX else -1
        S = self.S = program.ncols  # structural columns
        R = self.R = program.nrows
        if floating:
            zero, one = 0.0, 1.0
        else:
            zero, one = Fraction(0), Fraction(1)
        self.tol = _FLOAT_TOL if floating else 0
        self.cap = _FLOAT_PIVOTS_PER_DIM * (R + S) if floating else _PIVOT_CAP
        self.zero, self.one = zero, one
        negative_rhs = [q < 0 for q in program.b]
        self.K = sum(negative_rhs)
        check_tableau_size(R, S + self.K)
        width = S + R + self.K + 1
        rhs = self.rhs = width - 1
        cols = [set() for _ in range(width)]
        rows = []
        basis = []
        acol = S + R
        # A float entry that rounds to 0.0 is dropped: the tableau holds
        # nonzeros only.
        for r, (entries, b, neg) in enumerate(zip(program.rows, program.b, negative_rhs)):
            if neg:
                row = {j: -v for j, v in entries if v}
                row[S + r] = -one
                row[acol] = one
                basis.append(acol)
                acol += 1
            else:
                row = {j: v for j, v in entries if v}
                row[S + r] = one
                basis.append(S + r)
            if b:
                row[rhs] = -b if neg else b
            for k in row:
                cols[k].add(r)
            rows.append(row)
        self.T = rows
        self.cols = cols
        self.basis = basis
        # Real objective row for max(sign * c): reduced costs start at
        # -sign*c_j, value 0.
        obj = [-q for q in program.c] if self.sign == 1 else list(program.c)
        self.negative = {j for j, v in enumerate(obj) if v < 0}
        obj += [zero] * (width - S)
        self.obj = obj
        self.objs = [(obj, self.negative)]
        self.pivots = 0
        self.forced_bland = False

    # -- pivot selection ----------------------------------------------------

    def _entering(self, obj_row, negative, limit) -> int | None:
        """Column with negative reduced cost among the first `limit`
        columns (structural + slack; artificials never enter): the most
        negative, the first of equals, or the first one once Bland's
        rule is forced.  Only the row's pricing set `negative` can
        enter; it is read in column order, as a scan of the row would
        be, since the first of equals depends on it."""
        bland = self.forced_bland
        best, below = None, -self.tol
        for j in sorted(negative):
            if j >= limit:
                break
            rc = obj_row[j]
            if rc < below:
                if bland:
                    return j
                best, below = j, rc - self.tol
        return best

    def _leaving(self, col: int) -> int | None:
        """Ratio test over the rows holding col, in row order, so that
        the first of equal ratios wins before the tie-break."""
        T, tol, rhs, zero = self.T, self.tol, self.rhs, self.zero
        best = low = high = None
        for r in sorted(self.cols[col]):
            row = T[r]
            a = row[col]
            if a <= tol:
                continue
            ratio = row.get(rhs, zero) / a
            if best is None or ratio < low:
                best, low, high = r, ratio - tol, ratio + tol
            elif ratio <= high:
                if self.forced_bland:
                    if self.basis[r] < self.basis[best]:
                        best = r
                elif self._lex_less(r, best, col):
                    best = r
        return best

    def _lex_less(self, r1: int, r2: int, col: int) -> bool:
        """Is row r1 over its pivot lexicographically below row r2 over
        its pivot?  Both pivots are positive, so the entries compare
        cross-multiplied, without a division; columns zero in both rows
        compare equal and are skipped."""
        row1, row2 = self.T[r1], self.T[r2]
        p1, p2 = row1[col], row2[col]
        tol, zero = self.tol, self.zero
        for k in sorted(row1.keys() | row2.keys()):
            a, b = row1.get(k, zero) * p2, row2.get(k, zero) * p1
            if a != b and abs(a - b) > tol:
                return a < b
        return False

    def _pivot(self, r: int, c: int) -> None:
        # Looked up as a module global on every call, so a wrapper bound
        # to simplex.eliminate (a pivot counter, say) sees each pivot.
        eliminate(self, r, c)
        self.basis[r] = c
        self.pivots += 1
        if self.pivots > self.cap:
            raise PivotLimit(f"pivot cap exceeded on {self.R}x{self.S} program")

    # -- phases -------------------------------------------------------------

    def _no_optimum(self, ending: str) -> NoReturn:
        """End a run that found no optimum: the float run hands the
        program to the exact one, which refuses it."""
        if self.tol:
            raise _NoProposal(f"float pass: {ending}")
        raise NotOptimal(f"exact simplex: {ending}")

    def run(self) -> LpCertificate:
        if self.K:
            self._phase_one()
            self._drop_artificials()
        if self._iterate(self.obj, self.negative) is not None:
            self._no_optimum("phase two ends unbounded")
        return self._optimal()

    def _iterate(self, obj, negative, phase_one: bool = False) -> int | None:
        """Pivot on objective row `obj`, with pricing set `negative`,
        until no column prices in (None) or an entering column has no
        leaving row (that column, a ray).  Phase one also stops once its
        objective reaches zero."""
        limit = self.S + self.R  # artificials never enter
        stall_limit = 3 * (self.R + self.S) + 10
        below = -self.tol
        last_val = obj[self.rhs]
        self.stalls = 0
        while not phase_one or obj[self.rhs] < below:
            c = self._entering(obj, negative, limit)
            if c is None:
                return None
            r = self._leaving(c)
            if r is None:
                return c
            self._pivot(r, c)
            value = obj[self.rhs]
            if value == last_val or abs(value - last_val) <= self.tol:
                self.stalls += 1
                if self.stalls > stall_limit:
                    self.forced_bland = True
            else:
                self.stalls = 0
                last_val = value
        return None

    def _phase_one(self) -> None:
        art_lo = self.S + self.R
        obj1 = [self.zero] * (self.rhs + 1)
        for row, col in zip(self.T, self.basis):
            if col >= art_lo:  # artificial basis
                for k, val in row.items():
                    obj1[k] = obj1[k] - val
        for k in range(art_lo, art_lo + self.K):
            obj1[k] = obj1[k] + self.one
        negative1 = {k for k, v in enumerate(obj1) if v < 0}
        self.objs = [(self.obj, self.negative), (obj1, negative1)]
        if self._iterate(obj1, negative1, phase_one=True) is not None:
            # Phase-one objective is bounded by 0; no unbounded ray can
            # appear unless the tableau is corrupt.
            self._no_optimum("phase one claims unbounded")
        if obj1[self.rhs] < -self.tol:
            # max of -(sum of artificials) stopped below zero: infeasible.
            self._no_optimum("phase one ends infeasible")

    def _drop_artificials(self) -> None:
        """Pivot leftover artificials out of the basis (degenerate, rhs
        is 0), then delete the artificial columns.  The objective keeps
        its length and the rhs its key; artificials are never read again.
        The phase-one row leaves `objs`, and its pricing set with it.

        Every row has a nonzero left of the artificials: each row owns a
        +-1 slack column, so the tableau's slack block is B^-1 times a
        nonsingular diagonal and is nonsingular itself.  Only the float
        pass's zeroing of entries within tolerance can empty a row."""
        art_lo = self.S + self.R
        self.objs = [(self.obj, self.negative)]
        for r in range(self.R - 1, -1, -1):
            if self.basis[r] < art_lo:
                continue
            target = min((k for k in self.T[r] if k < art_lo), default=None)
            if target is None:
                self._no_optimum(f"tableau row {r} has no entry left of the artificials")
            self._pivot(r, target)
        for k in range(art_lo, art_lo + self.K):
            for r in self.cols[k]:
                del self.T[r][k]
            self.cols[k] = set()
        self.K = 0

    # -- extraction ---------------------------------------------------------

    def _optimal(self) -> LpCertificate:
        """The certificate of the final basis: its primal point, and the
        duals read off the objective row's slack columns, as the run's
        acceptor certifies them.  The float pass rounds each value to a
        nearby rational; a vertex repeats few values, so each distinct one
        is rounded once.  A vertex that fails the exact check is an ending
        without an optimum."""
        rational = cache(partial(_nearby_rational, bound=_ROUND_BOUND)) if self.tol else Fraction
        zero = Fraction(0)
        x = [zero] * self.S
        for row, col in zip(self.T, self.basis):
            if col < self.S:
                value = row.get(self.rhs)
                if value:
                    x[col] = rational(value)
        y = [rational(v) if v else zero for v in self.obj[self.S : self.S + self.R]]
        try:
            return self.accept(self.lp, x, y)
        except CertificateError as exc:
            self._no_optimum(f"its vertex fails the exact check: {exc}")
