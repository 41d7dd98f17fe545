"""Independent oracles shared by the test modules: a brute-force vertex
enumerator for tiny LPs, plain-Fraction certificate checks, the
discrete single-item virtual-value formula, an LP probe for the spread
of one virtual value across the regular optimal duals, definition-level
primal and dual slacks, the primal programs by definition, the
profile key parser, and the opponent-profile helpers.

The definitions are free functions over profile tuples: utility,
deviation_utility, sold and their interim forms of a mechanism;
phi_star and psi (phibar_star and psibar in the Bayesian form) of a
dual; zero_mechanism, min_entry of slacks and row_dot of a program;
reference_names of a program layout; drop, insert, others_count,
others_profiles and profile_prob of an instance's profiles.
They never call the rank-table paths they check (test_surface)."""

from fractions import Fraction
from itertools import combinations, product
from math import prod

from auctionlp.auction import PRIMAL, ProgramLayout, build_dual_dslp
from auctionlp.errors import DimensionMismatch
from auctionlp.lp import MAX, MIN, OPTIMAL, make_lp, solve
from auctionlp.model import BAYES, DS, Mechanism, PrimalSlacks


def drop(i, profile):
    """The opponent profile: profile without buyer i's type."""
    return profile[:i] + profile[i + 1:]


def insert(i, t, vm):
    """The profile where buyer i has type t against opponent profile vm."""
    return vm[:i] + (t,) + vm[i:]


def others_count(instance, i):
    return prod(instance.others_sizes(i))


def others_profiles(instance, i):
    """Buyer i's opponent profiles, in Instance.others_rank order."""
    return product(*(range(k) for k in instance.others_sizes(i)))


def profile_prob(instance, profile):
    """mu(v): product of per-buyer masses at the profile."""
    if len(profile) != instance.n:
        raise DimensionMismatch("profile length != buyer count")
    for i, t in enumerate(profile):
        if not 0 <= t < instance.sizes[i]:
            raise DimensionMismatch(f"profile index {t} out of range for buyer {i}")
    return instance.mu(profile)


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


def row_dot(lp, r, x):
    """Row r of the program dotted with x."""
    return sum((coef * x[j] for j, coef in lp.rows[r]), Fraction(0))


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
        if any(row_dot(lp, r, point) > lp.b[r] for r in range(lp.nrows)):
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
                row.append((layout.zeta(bi, r, t, t2), vt))
            v2 = instance.value(bi, t2)[0]
            if v2:
                row.append((layout.zeta(bi, instance.ranks[bi][s][t2], t2, t), -v2))
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
                row.append((layout.zeta(bi, rr, t, t2), Fraction(1)))
                row.append((layout.zeta(bi, instance.ranks[bi][s][t2], t2, t), Fraction(-1)))
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


# -- definition-level formulas over profile tuples -------------------------


def reference_primal(instance, form):
    """build_dslp (form DS) or build_blp (BAYES) by definition: each row
    from profile tuples, each mass from Instance.mu and mu_minus, each
    index from the ProgramLayout methods, and the entries in the
    builders' order.  The Bayesian rows of type t sum, over the opponent
    profiles of positive mass, mu_minus times the dominant-strategy rows
    there."""
    layout = ProgramLayout(form, PRIMAL, instance.m, instance.sizes)
    nrows, ncols = layout.shape
    c = [Fraction(0)] * ncols
    rows = [[] for _ in range(nrows)]
    b = [Fraction(0)] * nrows
    for v in instance.profiles():
        r = instance.rank(v)
        for i in range(instance.n):
            c[layout.p(i, r)] = instance.mu(v)
        for j in range(instance.m):
            rows[layout.xi(j, r)] = [(layout.x(i, j, r), 1) for i in range(instance.n)]
            b[layout.xi(j, r)] = 1
    for i, k in enumerate(instance.sizes):
        for vm in others_profiles(instance, i):
            w = instance.mu_minus(i, vm) if form == BAYES else 1
            if not w:
                continue
            for t in range(k):
                r = instance.rank(insert(i, t, vm))
                key = t if form == BAYES else r
                value = [w * q for q in instance.value(i, t)]
                for t2 in range(k):
                    if t2 == t:
                        continue
                    # u_i reporting t2 minus u_i reporting t <= 0
                    lie = instance.rank(insert(i, t2, vm))
                    row = rows[layout.zeta(i, key, t, t2)]
                    for j, q in enumerate(value):
                        if q:
                            row += [(layout.x(i, j, lie), q), (layout.x(i, j, r), -q)]
                    row += [(layout.p(i, lie), -w), (layout.p(i, r), w)]
                # -u_i <= 0
                row = rows[layout.eta(i, key)]
                row += [(layout.x(i, j, r), -q) for j, q in enumerate(value) if q]
                row.append((layout.p(i, r), w))
    return make_lp(MAX, c, rows, b, layout)


def reference_names(layout):
    """ProgramLayout.labels by definition: (row names, column names),
    each rendered from a profile tuple in the auction module's grammar
    (support indices joined by ".") and placed by the layout's index
    methods.  Profiles are enumerated row-major, so their position is
    their rank, the dominant-strategy multiplier key."""
    nrows, ncols = layout.shape
    rows, cols = [None] * nrows, [None] * ncols
    for r, v in enumerate(product(*(range(k) for k in layout.sizes))):
        name = ".".join(str(t) for t in v)
        for j in range(layout.m):
            rows[layout.xi(j, r)] = f"sup:{j}:{name}"
        for i, t in enumerate(v):
            cols[layout.p(i, r)] = f"p:{i}:{name}"
            for j in range(layout.m):
                cols[layout.x(i, j, r)] = f"x:{i}:{j}:{name}"
            if layout.form == DS:
                rows[layout.eta(i, r)] = f"ir:{i}:{name}"
                for t2 in range(layout.sizes[i]):
                    if t2 != t:
                        rows[layout.zeta(i, r, t, t2)] = f"ic:{i}:{name}:{t2}"
    if layout.form == BAYES:
        for i, k in enumerate(layout.sizes):
            for t in range(k):
                rows[layout.eta(i, t)] = f"ir:{i}:{t}"
                for t2 in range(k):
                    if t2 != t:
                        rows[layout.zeta(i, t, t, t2)] = f"ic:{i}:{t}:{t2}"
    return rows, cols



def deviation_utility(mechanism, instance, i, profile, t_report):
    """Utility of buyer i whose true type is profile[i] reporting t_report."""
    r = instance.rank(insert(i, t_report, drop(i, profile)))
    vec = instance.value(i, profile[i])
    return sum(
        (vec[j] * mechanism.alloc[r][i][j] for j in range(instance.m)), Fraction(0)
    ) - mechanism.pay[r][i]


def utility(mechanism, instance, i, profile):
    """u_i(v) = v_i . x_i(v) - p_i(v): the truthful report."""
    return deviation_utility(mechanism, instance, i, profile, profile[i])


def interim_deviation_utility(mechanism, instance, i, t, t_report):
    """Expected deviation_utility over the opponents' prior at true type t."""
    total = Fraction(0)
    for vm in others_profiles(instance, i):
        w = instance.mu_minus(i, vm)
        if w:
            total += w * deviation_utility(
                mechanism, instance, i, insert(i, t, vm), t_report
            )
    return total


def interim_utility(mechanism, instance, i, t):
    return interim_deviation_utility(mechanism, instance, i, t, t)


def sold(mechanism, instance, j, profile):
    """s^j(v) = sum_i x_i^j(v)."""
    r = instance.rank(profile)
    return sum((mechanism.alloc[r][i][j] for i in range(instance.n)), Fraction(0))


def zero_mechanism(instance, form=DS):
    alloc = (((Fraction(0),) * instance.m,) * instance.n,) * instance.profile_count
    pay = ((Fraction(0),) * instance.n,) * instance.profile_count
    return Mechanism(form=form, alloc=alloc, pay=pay)


def min_entry(slacks):
    """The least entry of a PrimalSlacks, or 0 when none is negative."""

    def entries(nested):
        if isinstance(nested, tuple):
            return [q for part in nested for q in entries(part)]
        return [nested]

    return min([Fraction(0), *entries((slacks.a, slacks.b, slacks.c))])


def _phi(dual, instance, i, j, t, key, lie_keys):
    """The dual coefficient facing x_i^j at the multiplier key of own
    type t; lie_keys[t2] is the key where type t2 reports t instead."""
    vt = instance.value(i, t)[j]
    total = dual.eta[i][key] * vt
    for t2, lie in enumerate(lie_keys):
        if t2 != t:
            total += dual.zeta[i][key][t2] * vt
            total -= dual.zeta[i][lie][t] * instance.value(i, t2)[j]
    return total


def _psi(dual, i, t, key, lie_keys):
    """The dual coefficient facing p_i, keyed as in _phi."""
    total = dual.eta[i][key]
    for t2, lie in enumerate(lie_keys):
        if t2 != t:
            total += dual.zeta[i][key][t2] - dual.zeta[i][lie][t]
    return total


def _ds_keys(instance, i, profile):
    """A dominant-strategy dual's key at the profile and its lie keys."""
    others = drop(i, profile)
    lies = [instance.rank(insert(i, t2, others)) for t2 in range(instance.sizes[i])]
    return instance.rank(profile), lies


def phi_star(dual, instance, i, j, profile):
    """Expected virtual value of a dominant-strategy dual."""
    return _phi(dual, instance, i, j, profile[i], *_ds_keys(instance, i, profile))


def psi(dual, instance, i, profile):
    return _psi(dual, i, profile[i], *_ds_keys(instance, i, profile))


def phibar_star(dual, instance, i, j, t):
    """phi_star of a Bayesian dual, whose keys are own types."""
    return _phi(dual, instance, i, j, t, t, range(instance.sizes[i]))


def psibar(dual, instance, i, t):
    return _psi(dual, i, t, t, range(instance.sizes[i]))


def reference_slacks(instance, mechanism):
    """mechanism_slacks by definition: every entry evaluated on its own
    through utility and deviation_utility (DS form) or interim_utility
    and interim_deviation_utility (Bayesian form)."""
    profiles = list(instance.profiles())
    c = tuple(
        tuple(1 - sold(mechanism, instance, j, v) for v in profiles)
        for j in range(instance.m)
    )
    bayes = mechanism.form == BAYES
    truth = interim_utility if bayes else utility
    lie = interim_deviation_utility if bayes else deviation_utility
    keys = [range(k) for k in instance.sizes] if bayes else [profiles] * instance.n
    a = tuple(
        tuple(
            tuple(
                truth(mechanism, instance, i, key) - lie(mechanism, instance, i, key, t2)
                if t2 != (key if bayes else key[i])
                else 0
                for t2 in range(instance.sizes[i])
            )
            for key in keys[i]
        )
        for i in range(instance.n)
    )
    b = tuple(
        tuple(truth(mechanism, instance, i, key) for key in keys[i])
        for i in range(instance.n)
    )
    return PrimalSlacks(form=mechanism.form, a=a, b=b, c=c)


def reference_dual_slacks(instance, dual, form):
    """(alpha, beta) of a dual by definition: xi minus phi_star and psi
    minus mu (DS form), or with phibar_star and psibar weighted by the
    opponent mass mu_{-i} (Bayesian form), evaluated per profile."""
    profiles = list(instance.profiles())
    bayes = form == BAYES

    def weight(i, v):
        return instance.mu_minus(i, drop(i, v)) if bayes else 1

    def phi(i, j, v):
        if bayes:
            return phibar_star(dual, instance, i, j, v[i])
        return phi_star(dual, instance, i, j, v)

    def pay(i, v):
        return psibar(dual, instance, i, v[i]) if bayes else psi(dual, instance, i, v)

    alpha = tuple(
        tuple(
            tuple(dual.xi[j][instance.rank(v)] - weight(i, v) * phi(i, j, v) for v in profiles)
            for j in range(instance.m)
        )
        for i in range(instance.n)
    )
    beta = tuple(
        tuple(weight(i, v) * pay(i, v) - instance.mu(v) for v in profiles)
        for i in range(instance.n)
    )
    return alpha, beta


def reference_slice_mismatch(instance, dual, i, table=None):
    """analysis._slice_mismatch by definition, over opponent profiles in
    rank order and their masses mu_{-i} as Fractions: the first (kind,
    indices), by type and then slice, where buyer i's virtual values
    (on a slice of positive mass), eta or zeta differ from the first
    mass-bearing slice's once each side is weighted by the other's
    mass; None when there is none."""
    others = list(others_profiles(instance, i))
    weights = [instance.mu_minus(i, vm) for vm in others]
    ref = next(s for s, w in enumerate(weights) if w > 0)
    for t in range(instance.sizes[i]):
        base = instance.rank(insert(i, t, others[ref]))
        for s, vm in enumerate(others):
            if s == ref:
                continue
            r = instance.rank(insert(i, t, vm))
            if table is not None and weights[s] > 0:
                for j in range(instance.m):
                    if table.values[i][j][r] != table.values[i][j][base]:
                        return ("phi", (i, j, t, s))
            if dual.eta[i][r] * weights[ref] != dual.eta[i][base] * weights[s]:
                return ("eta", (i, t, s))
            for t2 in range(instance.sizes[i]):
                z, zref = dual.zeta[i][r][t2], dual.zeta[i][base][t2]
                if t2 != t and z * weights[ref] != zref * weights[s]:
                    return ("zeta", (i, t, t2, s))
    return None
