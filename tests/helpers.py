"""Independent oracles shared by the test modules: a brute-force vertex
enumerator for tiny LPs, plain-Fraction certificate checks, the
discrete single-item virtual-value formula, an LP probe for the spread
of one virtual value across the regular optimal duals, definition-level
primal and dual slacks, and the profile key parser."""

from fractions import Fraction
from itertools import combinations

from auctionlp.auction import build_dual_dslp
from auctionlp.lp import MAX, MIN, OPTIMAL, make_lp, solve
from auctionlp.model import BAYES, PrimalSlacks


def parse_profile_key(key):
    """Invert auctionlp.auction.profile_key: "_" is the empty profile,
    else support indices joined by "."."""
    if key == "_":
        return ()
    return tuple(int(part) for part in key.split("."))


def solve_square(rows, rhs):
    """Gaussian elimination over Fractions; None on a singular system."""
    n = len(rows)
    a = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [q * inv for q in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [q - f * p for q, p in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def brute_force_best(lp):
    """Best basic feasible point of {Ax <= b, x >= 0} by enumerating all
    choices of ncols tight constraints.  Returns the objective in the
    LP's own sense, or None when no feasible basic point exists.  Only
    sound on bounded feasible regions, so callers add a box row."""
    n = lp.ncols
    sign = 1 if lp.sense == MAX else -1
    tight = []
    for r, row in enumerate(lp.rows):
        dense = [Fraction(0)] * n
        for j, coef in row:
            dense[j] = coef
        tight.append((dense, lp.b[r]))
    for j in range(n):
        e = [Fraction(0)] * n
        e[j] = Fraction(1)
        tight.append((e, Fraction(0)))
    best = None
    for picks in combinations(range(len(tight)), n):
        point = solve_square(
            [tight[k][0] for k in picks], [tight[k][1] for k in picks]
        )
        if point is None:
            continue
        if any(x < 0 for x in point):
            continue
        if any(lp.row_dot(r, point) > lp.b[r] for r in range(lp.nrows)):
            continue
        obj = sum((lp.c[j] * point[j] for j in range(n)), Fraction(0))
        if best is None or sign * obj > sign * best:
            best = obj
    return best


def _row_sums(lp, x):
    """A x, one plain Fraction sum per row."""
    return [sum((coef * Fraction(x[j]) for j, coef in row), Fraction(0)) for row in lp.rows]


def _column_sums(lp, y):
    """y^T A, one plain Fraction sum per column."""
    out = [Fraction(0)] * lp.ncols
    for row, weight in zip(lp.rows, y):
        for j, coef in row:
            out[j] += coef * Fraction(weight)
    return out


def _dot(u, v):
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def reference_optimal_check(lp, x, y, objective):
    """The first failure of an optimality certificate, as the message
    auctionlp.lp reports for it, or None when every condition holds:
    x >= 0, y >= 0, Ax <= b, y^T A >= c (max) or >= -c (min), a zero
    duality gap and c.x equal to the stated objective.  Plain Fraction
    sums over the program's rows."""
    sign = 1 if lp.sense == MAX else -1
    if len(x) != lp.ncols or len(y) != lp.nrows:
        return "certificate shape"
    if any(v < 0 for v in x):
        return "primal negativity"
    if any(v < 0 for v in y):
        return "dual negativity"
    for r, (total, b) in enumerate(zip(_row_sums(lp, x), lp.b)):
        if total > b:
            return f"primal row {r} violated"
    for j, (total, c) in enumerate(zip(_column_sums(lp, y), lp.c)):
        if total < sign * c:
            return f"dual column {j} violated"
    cx, by = _dot(lp.c, x), _dot(lp.b, y)
    if sign * cx != by:
        return "duality gap nonzero"
    if cx != objective:
        return "objective mismatch"
    return None


def reference_infeasible_check(lp, y):
    """reference_optimal_check for an infeasibility witness: y >= 0,
    y^T A >= 0 and y.b < 0."""
    if len(y) != lp.nrows:
        return "witness shape"
    if any(v < 0 for v in y):
        return "witness negativity"
    if any(total < 0 for total in _column_sums(lp, y)):
        return "witness y^T A not nonnegative"
    if _dot(lp.b, y) >= 0:
        return "witness y.b not negative"
    return None


def reference_unbounded_check(lp, x, d):
    """reference_optimal_check for an unboundedness witness: a feasible
    point x >= 0 and a ray d >= 0 with A d <= 0 that improves the
    objective; each row checks the point before the ray."""
    sign = 1 if lp.sense == MAX else -1
    if len(x) != lp.ncols or len(d) != lp.ncols:
        return "witness shape"
    if any(v < 0 for v in x):
        return "point negativity"
    if any(v < 0 for v in d):
        return "ray negativity"
    for point, ray, b in zip(_row_sums(lp, x), _row_sums(lp, d), lp.b):
        if point > b:
            return "point infeasible"
        if ray > 0:
            return "ray leaves the feasible cone"
    if sign * _dot(lp.c, d) <= 0:
        return "ray does not improve the objective"
    return None


def myerson_formula(values, masses):
    """The discrete virtual value v_k - (v_{k+1} - v_k)(1 - F(v_k))/f(v_k)
    on mass-bearing points of an ascending single-item support; the top
    point maps to its own value since 1 - F there is zero."""
    assert list(values) == sorted(values)
    cdf = []
    acc = Fraction(0)
    for q in masses:
        acc += q
        cdf.append(acc)
    out = {}
    for k, (v, f) in enumerate(zip(values, masses)):
        if f == 0:
            continue
        if k + 1 < len(values):
            out[k] = v - (values[k + 1] - v) * (1 - cdf[k]) / f
        else:
            out[k] = v
    return out


def regular_phi_range(instance, i, profile, revenue):
    """Minimum and maximum of the virtual value of buyer i at the given
    profile over every regular optimal dual of a single-item instance.

    The feasible set is the dual program restricted to objective value
    `revenue` with the three regularity conditions added as equalities;
    the virtual value is the linear expected-virtual-value functional
    divided by the profile mass.  Equal endpoints mean every regular
    optimal dual agrees at that entry."""
    assert instance.m == 1
    assert instance.mu(profile) > 0
    base = build_dual_dslp(instance)
    layout = base.layout

    def phi_star_row(bi, r):
        t, s = instance.positions[bi][r]
        vt = instance.value(bi, t)[0]
        row = []
        if vt:
            row.append((layout.eta(bi, r), vt))
        for t2 in range(instance.sizes[bi]):
            if t2 == t:
                continue
            if vt:
                row.append((layout.zeta(bi, t, t2, s), vt))
            v2 = instance.value(bi, t2)[0]
            if v2:
                row.append((layout.zeta(bi, t2, t, s), -v2))
        return row

    c = [Fraction(0)] * base.ncols
    for col, coef in phi_star_row(i, instance.rank(profile)):
        c[col] += coef
    rows = list(base.rows)
    b = list(base.b)

    xi_cols = [layout.xi(0, r) for r in range(instance.profile_count)]
    rows.append(tuple((k, Fraction(1)) for k in xi_cols))
    b.append(revenue)
    rows.append(tuple((k, Fraction(-1)) for k in xi_cols))
    b.append(-revenue)

    for bi in range(instance.n):
        t0 = instance.zero_index(bi)
        for rr, (t, s) in enumerate(instance.positions[bi]):
            w = instance.mu_minus_by_slice[bi][s]
            # source: eta sits only on the zero type, at the slice mass
            e = w if t == t0 else Fraction(0)
            col = layout.eta(bi, rr)
            rows.append(((col, Fraction(1)),))
            b.append(e)
            rows.append(((col, Fraction(-1)),))
            b.append(-e)
            # trans: the payment coefficient meets mu exactly (the base
            # p row already forces it from below)
            row = [(col, Fraction(1))]
            for t2 in range(instance.sizes[bi]):
                if t2 == t:
                    continue
                row.append((layout.zeta(bi, t, t2, s), Fraction(1)))
                row.append((layout.zeta(bi, t2, t, s), Fraction(-1)))
            rows.append(tuple(row))
            b.append(instance.mu_by_rank[rr])
            # virtual: expected virtual values vanish on zero-mass slices
            if w == 0:
                star = phi_star_row(bi, rr)
                if star:
                    rows.append(tuple(star))
                    b.append(Fraction(0))
                    rows.append(tuple((cc, -qq) for cc, qq in star))
                    b.append(Fraction(0))

    out = []
    for sense in (MIN, MAX):
        cert = solve(make_lp(sense, c, rows, b))
        assert cert.status == OPTIMAL, cert.status
        out.append(cert.objective / instance.mu(profile))
    return tuple(out)


def reference_slacks(instance, mechanism):
    """mechanism_slacks by definition: every entry evaluated on its own
    through Mechanism.utility and deviation_utility (DS form) or
    interim_utility and interim_deviation_utility (Bayesian form)."""
    profiles = list(instance.profiles())
    c = tuple(
        tuple(1 - mechanism.sold(instance, j, v) for v in profiles)
        for j in range(instance.m)
    )
    if mechanism.form == BAYES:
        truth = mechanism.interim_utility
        lie = mechanism.interim_deviation_utility
        keys = [range(k) for k in instance.sizes]
    else:
        truth = mechanism.utility
        lie = mechanism.deviation_utility
        keys = [profiles] * instance.n

    def own(key, i):
        return key if mechanism.form == BAYES else key[i]

    a = tuple(
        tuple(
            tuple(
                truth(instance, i, key) - lie(instance, i, key, t2)
                if t2 != own(key, i)
                else 0
                for t2 in range(instance.sizes[i])
            )
            for key in keys[i]
        )
        for i in range(instance.n)
    )
    b = tuple(
        tuple(truth(instance, i, key) for key in keys[i]) for i in range(instance.n)
    )
    return PrimalSlacks(form=mechanism.form, a=a, b=b, c=c)


def reference_dual_slacks(instance, dual, form):
    """(alpha, beta) of a dual by definition: xi minus phi_star and psi
    minus mu (DS form), or with phibar_star and psibar weighted by the
    opponent mass mu_{-i} (Bayesian form), evaluated per profile."""
    profiles = list(instance.profiles())

    def weight(i, v):
        if form == BAYES:
            return instance.mu_minus(i, instance.drop(i, v))
        return 1

    def phi(i, j, v):
        if form == BAYES:
            return dual.phibar_star(instance, i, j, v[i])
        return dual.phi_star(instance, i, j, v)

    def psi(i, v):
        if form == BAYES:
            return dual.psibar(instance, i, v[i])
        return dual.psi(instance, i, v)

    alpha = tuple(
        tuple(
            tuple(
                dual.xi[j][instance.rank(v)] - weight(i, v) * phi(i, j, v)
                for v in profiles
            )
            for j in range(instance.m)
        )
        for i in range(instance.n)
    )
    beta = tuple(
        tuple(weight(i, v) * psi(i, v) - instance.mu(v) for v in profiles)
        for i in range(instance.n)
    )
    return alpha, beta
