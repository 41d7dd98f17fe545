"""Two-phase primal simplex over exact rationals.

No big-M constant: infeasible starting bases get artificial variables
and a phase-one objective.  Bland's rule is the default pivot rule and
guarantees termination; the optional Dantzig rule uses lexicographic
tie-breaking for speed and falls back to Bland permanently once a
degenerate stall is detected, so termination is unconditional either
way.

Internally numbers are gmpy2 rationals when gmpy2 is importable,
stdlib Fractions otherwise; certificates always carry Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .program import (
    LinearProgram,
    MAX,
    LpCertificate,
    certify_infeasible,
    certify_optimal,
    certify_unbounded,
)

BLAND = "bland"
DANTZIG = "dantzig"

try:
    from gmpy2 import mpq as _mpq

    _HAVE_GMPY = True
except ImportError:
    _HAVE_GMPY = False

BACKEND = "gmpy2" if _HAVE_GMPY else "fractions"

if _HAVE_GMPY:

    def _to_backend(q: Fraction):
        return _mpq(q.numerator, q.denominator)

    def _from_backend(q) -> Fraction:
        return Fraction(int(q.numerator), int(q.denominator))

else:

    def _to_backend(q: Fraction):
        return q

    def _from_backend(q) -> Fraction:
        return Fraction(q)


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


class PivotLimit(RuntimeError):
    """Safety valve; indicates a solver bug, not a property of the LP."""


_PIVOT_CAP = 1_000_000


def solve(lp: LinearProgram, rule: str = BLAND) -> LpCertificate:
    """Solve to a verified certificate: optimal primal/dual pair with a
    zero duality gap, or an infeasibility/unboundedness witness."""
    if rule not in (BLAND, DANTZIG):
        raise ValueError(f"unknown pivot rule {rule!r}")
    return _Simplex(lp, rule).run()


class _Simplex:
    def __init__(self, lp: LinearProgram, rule: str):
        self.lp = lp
        self.rule = rule
        self.sign = 1 if lp.sense == MAX else -1
        self.S = lp.ncols  # structural columns
        self.R = lp.nrows
        zero = _to_backend(Fraction(0))
        one = _to_backend(Fraction(1))
        self.zero, self.one = zero, one
        # Column layout: structural | slack | artificial... | rhs.
        art_rows = [r for r in range(self.R) if lp.b[r] < 0]
        self.K = len(art_rows)
        width = self.S + self.R + self.K + 1
        self.rhs = width - 1
        rows = []
        art_of_row = {}
        for r in range(self.R):
            neg = lp.b[r] < 0
            row = [zero] * width
            for j, coef in lp.rows[r]:
                row[j] = _to_backend(-coef if neg else coef)
            row[self.S + r] = -one if neg else one
            row[self.rhs] = _to_backend(-lp.b[r] if neg else lp.b[r])
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
            obj[j] = _to_backend(Fraction(-self.sign) * lp.c[j])
        self.obj = obj
        self.pivots = 0
        self.stalls = 0
        self.forced_bland = False

    # -- pivot selection ----------------------------------------------------

    def _entering(self, obj_row, limit) -> int | None:
        """Column with negative reduced cost among the first `limit`
        columns (structural + slack; artificials never enter)."""
        if self.rule == BLAND or self.forced_bland:
            for j in range(limit):
                if obj_row[j] < 0:
                    return j
            return None
        best, best_rc = None, self.zero
        for j in range(limit):
            rc = obj_row[j]
            if rc < best_rc:
                best, best_rc = j, rc
        return best

    def _leaving(self, col: int) -> int | None:
        T, rhs = self.T, self.rhs
        best = None
        best_ratio = None
        for r in range(len(T)):
            piv = T[r][col]
            if piv > 0:
                ratio = T[r][rhs] / piv
                if best is None or ratio < best_ratio:
                    best, best_ratio = r, ratio
                elif ratio == best_ratio:
                    if self.rule == BLAND or self.forced_bland:
                        if self.basis[r] < self.basis[best]:
                            best = r
                    else:
                        if self._lex_less(r, best, col):
                            best = r
        return best

    def _lex_less(self, r1: int, r2: int, col: int) -> bool:
        row1, row2 = self.T[r1], self.T[r2]
        p1, p2 = row1[col], row2[col]
        for k in range(len(row1)):
            v1 = row1[k] / p1
            v2 = row2[k] / p2
            if v1 != v2:
                return v1 < v2
        return False

    def _pivot(self, r: int, c: int, extra_obj) -> None:
        combined = self.T + extra_obj
        # Looked up as a module global on every call, so a wrapper bound
        # to simplex.eliminate (a pivot counter, say) sees each pivot.
        eliminate(combined, r, c)
        self.basis[r] = c
        self.pivots += 1
        if self.pivots > _PIVOT_CAP:
            raise PivotLimit(f"pivot cap exceeded on {self.R}x{self.S} program")

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
        last_val = obj1[self.rhs]
        while obj1[self.rhs] < 0:
            c = self._entering(obj1, limit)
            if c is None:
                break
            r = self._leaving(c)
            if r is None:
                # Phase-one objective is bounded by 0; no unbounded ray
                # can appear unless the tableau is corrupt.
                raise PivotLimit("phase one claims unbounded")
            self._pivot(r, c, [self.obj, obj1])
            if obj1[self.rhs] == last_val:
                self.stalls += 1
                if self.stalls > stall_limit:
                    self.forced_bland = True
            else:
                self.stalls = 0
                last_val = obj1[self.rhs]
        if obj1[self.rhs] < 0:
            # max of -(sum of artificials) stopped below zero: infeasible.
            y = [_from_backend(obj1[self.S + r]) for r in range(self.R)]
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
            if obj[self.rhs] == last_val:
                self.stalls += 1
                if self.stalls > stall_limit:
                    self.forced_bland = True
            else:
                self.stalls = 0
                last_val = obj[self.rhs]

    # -- extraction ---------------------------------------------------------

    def _primal_point(self) -> list[Fraction]:
        x = [Fraction(0)] * self.S
        for r, col in enumerate(self.basis):
            if col < self.S:
                x[col] = _from_backend(self.T[r][self.rhs])
        return x

    def _optimal(self) -> LpCertificate:
        x = self._primal_point()
        y = [Fraction(0)] * self.R
        for r in range(self.R):
            y[r] = _from_backend(self.obj[self.S + r])
        return certify_optimal(self.lp, x, y)

    def _unbounded(self, col: int) -> LpCertificate:
        x = self._primal_point()
        d = [Fraction(0)] * self.S
        if col < self.S:
            d[col] = Fraction(1)
        for r, bcol in enumerate(self.basis):
            if bcol < self.S:
                step = self.T[r][col]
                if step:
                    d[bcol] = _from_backend(-step)
        return certify_unbounded(self.lp, x, d)
