"""Two-phase primal simplex: a float pass proposes, exact rationals accept.

No big-M constant: infeasible starting bases get artificial variables
and a phase-one objective.  The pivot rule is Dantzig's (most negative
reduced cost) with a lexicographic tie-break in the ratio test.  Once a
degenerate stall is detected the run switches to Bland's rule for good,
which guarantees termination.

`solve` first runs the simplex over Python floats with the same pivot
rule, so it walks the exact pivot path, and rounds the optimal vertex
it ends on to nearby rationals.  Only the exact `certify_optimal`
accepts that proposal.  Any other ending (the check fails, the float
pass ends infeasible or unbounded, or it runs out of its pivot budget)
runs the exact simplex from scratch, so infeasibility and unboundedness
witnesses always come from exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import ScaleLimit
from .program import (
    LinearProgram,
    MAX,
    CertificateError,
    LpCertificate,
    certify_infeasible,
    certify_optimal,
    certify_unbounded,
)


def eliminate(rows, r, c):
    """Pivot on (rows[r], column c): scale the pivot row to a unit pivot,
    then clear column c from every other row.  Mutates rows in place.
    Zero entries are skipped; exact arithmetic guarantees the cleared
    column is exactly zero afterwards."""
    prow = rows[r]
    piv = prow[c]
    if piv != 1:
        inv = 1 / piv
        for k, val in enumerate(prow):
            if val:
                prow[k] = val * inv
    nz = [k for k, val in enumerate(prow) if val]
    for idx, row in enumerate(rows):
        if idx == r:
            continue
        f = row[c]
        if f:
            if f == 1:
                for k in nz:
                    row[k] = row[k] - prow[k]
            else:
                for k in nz:
                    row[k] = row[k] - f * prow[k]


def _eliminate_float(rows, r, c, tol):
    """`eliminate` over floats.  Every entry it writes that lies within
    tol of zero becomes 0.0, so the cleared column and the degenerate
    right-hand sides read as exact zeros afterwards."""
    prow = rows[r]
    inv = 1.0 / prow[c]
    nz = []
    for k, val in enumerate(prow):
        if val:
            val *= inv
            if val > tol or val < -tol:
                prow[k] = val
                nz.append((k, val))
            else:
                prow[k] = 0.0
    prow[c] = 1.0
    for idx, row in enumerate(rows):
        if idx == r:
            continue
        f = row[c]
        if f:
            for k, val in nz:
                val = row[k] - f * val
                row[k] = val if val > tol or val < -tol else 0.0
            row[c] = 0.0


class PivotLimit(ScaleLimit):
    """Pivot cap exceeded.  In exact arithmetic this is a safety valve
    that indicates a solver bug, not a property of the LP, and like any
    exceeded cap the CLI exits 4 on it; in the float pass it is the
    pivot budget running out, and the exact simplex takes over."""


class _NoProposal(Exception):
    """The float pass ended without a certified optimal vertex."""


_PIVOT_CAP = 1_000_000

# Largest dense tableau (rows times width) a run may allocate: 1e8 list
# slots take 0.8 GB; a 256-profile dominant-strategy program needs 2.8e7.
_TABLEAU_CAP = 10**8

# Float pass: two numbers within _FLOAT_TOL of each other compare equal,
# and a tableau entry within it of zero is zero.
_FLOAT_TOL = 1e-9
# Float pivots allowed per row and column of the program before the
# exact simplex takes over.
_FLOAT_PIVOTS_PER_DIM = 4
# Denominator bounds tried in turn when rounding the float vertex.  Too
# small a bound fails the check often (10**4 rejected 15 of 90 seeded
# 27-profile two-item dominant-strategy programs) and can round an entry
# to another point of the optimal face that still certifies, so the
# first bound sits well above the certificate denominators seen in
# practice (at most 17 bits on the benchmark corpora).
_ROUND_BOUNDS = (10**6, 10**9)

# Endings of the float pass that hand the program to the exact simplex.
# OverflowError and ValueError come from numbers floats cannot hold:
# float() refuses a rational beyond their range, and Fraction() refuses
# the infinities and NaNs that overflowing arithmetic leaves behind.
_NO_PROPOSAL = (_NoProposal, PivotLimit, OverflowError, ValueError)


def _nearby_rational(value: float, bound: int) -> Fraction:
    return Fraction(value).limit_denominator(bound)


def solve(lp: LinearProgram) -> LpCertificate:
    """Solve to a verified certificate: optimal primal/dual pair with a
    zero duality gap, or an infeasibility/unboundedness witness.

    A float pass proposes an optimal vertex and the exact certificate
    check accepts it; otherwise the exact simplex answers."""
    try:
        return _Simplex(lp, floating=True).run()
    except _NO_PROPOSAL:
        pass
    return _Simplex(lp).run()


class _Simplex:
    """One simplex run over exact rationals, or over floats when
    `floating` is set.  The float run compares numbers up to _FLOAT_TOL
    where the exact run compares them exactly, and otherwise makes the
    same decisions; it ends optimal with a certificate or raises one of
    _NO_PROPOSAL."""

    def __init__(self, lp: LinearProgram, floating: bool = False):
        self.lp = lp
        self.sign = 1 if lp.sense == MAX else -1
        self.S = lp.ncols  # structural columns
        self.R = lp.nrows
        num = float if floating else Fraction
        self.tol = _FLOAT_TOL if floating else 0
        self.cap = _FLOAT_PIVOTS_PER_DIM * (self.R + self.S) if floating else _PIVOT_CAP
        zero = num(Fraction(0))
        one = num(Fraction(1))
        self.zero, self.one = zero, one
        # Column layout: structural | slack | artificial... | rhs.
        art_rows = [r for r in range(self.R) if lp.b[r] < 0]
        self.K = len(art_rows)
        width = self.S + self.R + self.K + 1
        if self.R * width > _TABLEAU_CAP:
            # not a PivotLimit, which solve takes for a failed proposal
            raise ScaleLimit(
                f"a {self.R}x{width} tableau exceeds the cap of {_TABLEAU_CAP} entries"
            )
        self.rhs = width - 1
        rows = []
        art_of_row = {}
        for r in range(self.R):
            neg = lp.b[r] < 0
            row = [zero] * width
            for j, coef in lp.rows[r]:
                row[j] = num(-coef if neg else coef)
            row[self.S + r] = -one if neg else one
            row[self.rhs] = num(-lp.b[r] if neg else lp.b[r])
            rows.append(row)
        for k, r in enumerate(art_rows):
            acol = self.S + self.R + k
            rows[r][acol] = one
            art_of_row[r] = acol
        self.T = rows
        self.basis = [
            art_of_row.get(r, self.S + r) for r in range(self.R)
        ]
        # Real objective row for max(sign * c): reduced costs start at
        # -sign*c_j, value 0.
        obj = [zero] * width
        for j in range(self.S):
            obj[j] = num(Fraction(-self.sign) * lp.c[j])
        self.obj = obj
        self.pivots = 0
        self.stalls = 0
        self.forced_bland = False

    # -- pivot selection ----------------------------------------------------

    def _entering(self, obj_row, limit) -> int | None:
        """Column with negative reduced cost among the first `limit`
        columns (structural + slack; artificials never enter): the most
        negative, the first of equals, or the first one once Bland's
        rule is forced."""
        bland = self.forced_bland
        best, below = None, -self.tol
        for j in range(limit):
            rc = obj_row[j]
            if rc < below:
                if bland:
                    return j
                best, below = j, rc - self.tol
        return best

    def _leaving(self, col: int) -> int | None:
        tol, rhs = self.tol, self.rhs
        best = low = high = None
        for r, row in [(r, row) for r, row in enumerate(self.T) if row[col] > tol]:
            ratio = row[rhs] / row[col]
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
        cross-multiplied, without a division."""
        row1, row2 = self.T[r1], self.T[r2]
        p1, p2 = row1[col], row2[col]
        tol = self.tol
        for v1, v2 in zip(row1, row2):
            if v1 or v2:
                a, b = v1 * p2, v2 * p1
                if a != b and abs(a - b) > tol:
                    return a < b
        return False

    def _pivot(self, r: int, c: int, extra_obj) -> None:
        combined = self.T + extra_obj
        if self.tol:
            _eliminate_float(combined, r, c, self.tol)
        else:
            # Looked up as a module global on every call, so a wrapper
            # bound to simplex.eliminate (a pivot counter, say) sees
            # each exact pivot.
            eliminate(combined, r, c)
        self.basis[r] = c
        self.pivots += 1
        if self.pivots > self.cap:
            raise PivotLimit(f"pivot cap exceeded on {self.R}x{self.S} program")

    def _stalled(self, value, last_val) -> bool:
        return value == last_val or abs(value - last_val) <= self.tol

    # -- phases -------------------------------------------------------------

    def run(self) -> LpCertificate:
        if self.K:
            cert = self._phase_one()
            if cert is not None:
                return cert
            self._drop_artificials()
        return self._phase_two()

    def _phase_one(self) -> LpCertificate | None:
        zero, one = self.zero, self.one
        width = self.rhs + 1
        obj1 = [zero] * width
        for r in range(self.R):
            if self.basis[r] >= self.S + self.R:  # artificial basis
                row = self.T[r]
                for k in range(width):
                    if row[k]:
                        obj1[k] = obj1[k] - row[k]
        for k in range(self.K):
            obj1[self.S + self.R + k] = obj1[self.S + self.R + k] + one
        self.obj1 = obj1
        limit = self.S + self.R
        stall_limit = 3 * (self.R + self.S) + 10
        below = -self.tol
        last_val = obj1[self.rhs]
        while obj1[self.rhs] < below:
            c = self._entering(obj1, limit)
            if c is None:
                break
            r = self._leaving(c)
            if r is None:
                # Phase-one objective is bounded by 0; no unbounded ray
                # can appear unless the tableau is corrupt.
                raise PivotLimit("phase one claims unbounded")
            self._pivot(r, c, [self.obj, obj1])
            if self._stalled(obj1[self.rhs], last_val):
                self.stalls += 1
                if self.stalls > stall_limit:
                    self.forced_bland = True
            else:
                self.stalls = 0
                last_val = obj1[self.rhs]
        if obj1[self.rhs] < below:
            # max of -(sum of artificials) stopped below zero: infeasible.
            if self.tol:
                raise _NoProposal("float phase one ends infeasible")
            y = [Fraction(obj1[self.S + r]) for r in range(self.R)]
            return certify_infeasible(self.lp, y)
        return None

    def _drop_artificials(self) -> None:
        """Pivot leftover artificials out of the basis (degenerate, rhs
        is 0), delete redundant all-zero rows, then delete the artificial
        columns."""
        art_lo = self.S + self.R
        for r in range(len(self.T) - 1, -1, -1):
            if self.basis[r] < art_lo:
                continue
            row = self.T[r]
            target = None
            for j in range(art_lo):
                if row[j]:
                    target = j
                    break
            if target is not None:
                self._pivot(r, target, [self.obj])
            else:
                # 0 = 0 under the artificial-free restriction.
                del self.T[r]
                del self.basis[r]
        for row in self.T:
            del row[art_lo : art_lo + self.K]
        del self.obj[art_lo : art_lo + self.K]
        self.rhs = art_lo
        self.K = 0

    def _phase_two(self) -> LpCertificate:
        obj = self.obj
        limit = self.S + self.R
        stall_limit = 3 * (self.R + self.S) + 10
        last_val = obj[self.rhs]
        while True:
            c = self._entering(obj, limit)
            if c is None:
                return self._optimal()
            r = self._leaving(c)
            if r is None:
                return self._unbounded(c)
            self._pivot(r, c, [obj])
            if self._stalled(obj[self.rhs], last_val):
                self.stalls += 1
                if self.stalls > stall_limit:
                    self.forced_bland = True
            else:
                self.stalls = 0
                last_val = obj[self.rhs]

    # -- extraction ---------------------------------------------------------

    def _primal_point(self, rational) -> list[Fraction]:
        x = [Fraction(0)] * self.S
        for r, col in enumerate(self.basis):
            if col < self.S:
                x[col] = rational(self.T[r][self.rhs])
        return x

    def _certify(self, rational) -> LpCertificate:
        x = self._primal_point(rational)
        y = [rational(self.obj[self.S + r]) for r in range(self.R)]
        return certify_optimal(self.lp, x, y)

    def _optimal(self) -> LpCertificate:
        if not self.tol:
            return self._certify(Fraction)
        for bound in _ROUND_BOUNDS:
            try:
                return self._certify(lambda v: _nearby_rational(v, bound))
            except CertificateError:
                continue
        raise _NoProposal("no rounding of the float vertex certifies")

    def _unbounded(self, col: int) -> LpCertificate:
        if self.tol:
            raise _NoProposal("float phase two ends unbounded")
        x = self._primal_point(Fraction)
        d = [Fraction(0)] * self.S
        if col < self.S:
            d[col] = Fraction(1)
        for r, bcol in enumerate(self.basis):
            if bcol < self.S:
                step = self.T[r][col]
                if step:
                    d[bcol] = Fraction(-step)
        return certify_unbounded(self.lp, x, d)
