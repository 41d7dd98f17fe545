"""Independent oracles shared by the test modules: a brute-force vertex
enumerator for tiny LPs, plain-Fraction certificate checks, the
discrete single-item virtual-value formula, an LP probe for the spread
of one virtual value across the regular optimal duals, definition-level
primal and dual slacks, the primal programs by definition, the
profile key parser, and the opponent-profile helpers.

The definitions are free functions over profile tuples: utility,
deviation_utility, sold and their interim forms of a mechanism;
phi_star and psi (phibar_star and psibar in the Bayesian form) of a
dual; zero_mechanism, min_entry of slacks, reference_positive_columns
of a mechanism and row_dot of a program;
reference_names and reference_index_of (labels read by rendering
back through row_label and col_label) of a program layout, and reference_sections, a certificate's
document sections rendered through reference_names; drop, insert, others_sizes, others_rank,
others_count, others_profiles and profile_prob of an instance's
profiles; reference_fraction, CPython 3.11's reading of number text,
with NUMBER_TABLE, literals at the edges of that grammar; and the
plain-Fraction references of the integer
producers (the canonical flow, Myerson's auction, face_excess, the
equivalence maps and the regularization moves), of the virtual-value
tables (reference_virtual_values) and of the checks on them
(reference_ubvv, reference_vwm, reference_agent_independence), each over
the Fraction views.  mechanism_of, slacks_of and table_of build a
Mechanism, PrimalSlacks or VirtualValueTable from Fractions, labels
renders every label of a layout, and iid_items_instance draws an
instance whose values are i.i.d. across items as well as buyers.
ds_optimum reads the proved DS optimum off a solve, assert_frozen
holds a package-built program to what make_lp makes of it, and
revenue_face_program (with revenue_face_dual, its vertex) is the
optimal dual face held to a revenue by two rows, the program that
tight_downward_dual's complementary-slackness program replaced.  The
references never call the rank-table paths they check (test_surface)."""

import random
import re
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, product
from math import prod

from auctionlp.auction import (
    _IC,
    _IR,
    _P,
    _SUP,
    _X,
    ProgramLayout,
    _dual_at,
    _layout,
    _proof,
    build_dual_dslp,
    solve_form,
)
from auctionlp.errors import DimensionMismatch
from auctionlp.lp import MAX, MIN, make_lp, solve
from auctionlp.model import (
    BAYES,
    DS,
    NEG_INF,
    Mechanism,
    PrimalSlacks,
    Scaled,
    SlackNumerators,
    VirtualValueTable,
    _scale,
    rat_str,
    validate_instance,
)


def seeded_sizes():
    """The support sizes of forty shapes: one buyer of three types, a
    one-type buyer among others, five buyers, then seeded draws of one
    to five buyers of one to four types each."""
    rng = random.Random(0)
    drawn = [
        tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 5))) for _ in range(37)
    ]
    return [(3,), (2, 1, 3), (2, 2, 2, 2, 2), *drawn]


def drop(i, profile):
    """The opponent profile: profile without buyer i's type."""
    return profile[:i] + profile[i + 1:]


def insert(i, t, vm):
    """The profile where buyer i has type t against opponent profile vm."""
    return vm[:i] + (t,) + vm[i:]


def others_sizes(instance, i):
    """The support sizes of buyer i's opponents, in buyer order."""
    return drop(i, instance.sizes)


def others_rank(instance, i, vm):
    """The rank of opponent profile vm among buyer i's, row-major."""
    r = 0
    for k, t in zip(others_sizes(instance, i), vm):
        r = r * k + t
    return r


def others_count(instance, i):
    return prod(others_sizes(instance, i))


def others_profiles(instance, i):
    """Buyer i's opponent profiles, in others_rank order."""
    return product(*(range(k) for k in others_sizes(instance, i)))


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


# CPython 3.11's fractions._RATIONAL_FORMAT and the arithmetic its
# Fraction constructor runs on a string, copied verbatim: the reference
# for the number grammar that auctionlp.model.ratio reads on every
# supported Python.  The fraction part's "d*" is CPython's own; the
# string of "d"s it matches is then refused by int.
_RATIONAL_FORMAT = re.compile(r"""
    \A\s*                                 # optional whitespace at the start,
    (?P<sign>[-+]?)                       # an optional sign, then
    (?=\d|\.\d)                           # lookahead for digit or .digit
    (?P<num>\d*|\d+(_\d+)*)               # numerator (possibly empty)
    (?:                                   # followed by
       (?:/(?P<denom>\d+(_\d+)*))?        # an optional denominator
    |                                     # or
       (?:\.(?P<decimal>d*|\d+(_\d+)*))?  # an optional fractional part
       (?:E(?P<exp>[-+]?\d+(_\d+)*))?     # and optional exponent
    )
    \s*\Z                                 # and optional whitespace to finish
""", re.VERBOSE | re.IGNORECASE)


def reference_fraction(numerator):
    """Fraction(numerator) for a string, as CPython 3.11 reads it:
    ValueError or ZeroDivisionError for a string outside the grammar.
    An exponent's power of ten is formed in full, so keep exponents
    short."""
    m = _RATIONAL_FORMAT.match(numerator)
    if m is None:
        raise ValueError('Invalid literal for Fraction: %r' %
                         numerator)
    numerator = int(m.group('num') or '0')
    denom = m.group('denom')
    if denom:
        denominator = int(denom)
    else:
        denominator = 1
        decimal = m.group('decimal')
        if decimal:
            decimal = decimal.replace('_', '')
            scale = 10**len(decimal)
            numerator = numerator * scale + int(decimal)
            denominator *= scale
        exp = m.group('exp')
        if exp:
            exp = int(exp)
            if exp >= 0:
                numerator *= 10**exp
            else:
                denominator *= 10**-exp
    if m.group('sign') == '-':
        numerator = -numerator
    return Fraction(numerator, denominator)


# Literals at the edges of the number grammar, with the value every
# supported Python reads (None: refused, NotRational).  Before the
# grammar was read in one place, "1_0" was refused on Python 3.10, and
# "1 / 2" read as 1/2 from Python 3.12.  Each value of 2 is the one a
# certificate entry "2" stands for.
NUMBER_TABLE = {
    "2": 2,
    " 2\t": 2,
    "\u00a0+2\u2003": 2,
    "4/2": 2,
    "-3/4": Fraction(-3, 4),
    "1_0": 10,
    "2_0/1_0": 2,
    "1/2_0": Fraction(1, 20),
    "1.5_0": Fraction(3, 2),
    "1_0e1": 100,
    "0.2e1": 2,
    "2.": 2,
    ".5": Fraction(1, 2),
    "2.5E-3": Fraction(1, 400),
    "\u0661": 1,
    "\u0662": 2,
    "1 / 2": None,
    "1/ 2": None,
    "1 /2": None,
    "1.d": None,
    "1__0": None,
    "1e_5": None,
    "_1": None,
    "1_": None,
    "1._5": None,
    "1/2.0": None,
    "1/0": None,
    "nan": None,
    "0x10": None,
    "1e5000": None,
    "": None,
}


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
    layout = ProgramLayout(DS, instance.m, instance.sizes)  # the primal's rows: base's columns

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

    profiles = list(instance.profiles())
    for bi in range(instance.n):
        t0 = instance.zero_index(bi)
        for rr, (t, s) in enumerate(instance.positions[bi]):
            w = instance.mu_minus(bi, drop(bi, profiles[rr]))
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
            b.append(instance.mu(profiles[rr]))
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
    layout = ProgramLayout(form, instance.m, instance.sizes)
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
    return make_lp(MAX, c, rows, b)


def row_label(layout, r):
    """The label of primal row r, the inverse of the layout's zeta, eta
    and xi, in the auction module's five formats.  A one-type buyer's ic
    block is empty and starts where the next buyer's does, so
    bisect_right passes over it."""
    profiles, names = layout._names
    zeta, eta, xi = layout._blocks
    if r >= xi:
        j, rank = divmod(r - xi, layout.count)
        return _SUP(j, names[rank])
    ic = r < eta[0]
    starts = zeta if ic else eta
    i = bisect_right(starts, r) - 1
    key, lie = divmod(r - starts[i], layout.sizes[i] - 1) if ic else (r - starts[i], None)
    name, t = (names[key], profiles[key][i]) if layout.form == DS else (key, key)
    if lie is None:
        return _IR(i, name)
    return _IC(i, name, lie + (lie >= t))


def col_label(layout, c):
    """The label of primal column c, the inverse of the layout's x and p."""
    block, rank = divmod(c, layout.count)
    name = layout._names[1][rank]
    xs = len(layout.sizes) * layout.m
    if block < xs:
        i, j = divmod(block, layout.m)
        return _X(i, j, name)
    return _P(block - xs, name)


def labels(layout):
    """(row labels, column labels) of a layout's primal program, rendered
    one index at a time by row_label and col_label."""
    nrows, ncols = layout.shape
    rows = [row_label(layout, r) for r in range(nrows)]
    return rows, [col_label(layout, c) for c in range(ncols)]


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


def reference_sections(certificate, layout):
    """The objective, primal and dual of a primal certificate's document
    by definition: each nonzero entry of its vectors, as rat_str text,
    under the label reference_names gives its index in the layout of
    the certificate's program."""
    rows, cols = reference_names(layout)
    return {
        "objective": rat_str(certificate.objective),
        "primal": {cols[c]: rat_str(q) for c, q in enumerate(certificate.primal) if q},
        "dual": {rows[r]: rat_str(q) for r, q in enumerate(certificate.dual) if q},
    }


def _reference_rank(layout, name):
    """The rank of the profile a label names, read loosely."""
    r = 0
    for k, t in zip(layout.sizes, name.split(".")):
        r = r * k + int(t)
    return r


def _reference_read(layout, label, row):
    """The index a row (or column) label's fields point to, read
    loosely: a malformed field raises ValueError or IndexError, and a
    field out of range may point anywhere."""
    kind, *fields = label.split(":")
    shape = (kind, len(fields))
    if row and shape == ("sup", 2):
        return layout.xi(int(fields[0]), _reference_rank(layout, fields[1]))
    if row and shape in (("ir", 2), ("ic", 3)):
        i = int(fields[0])
        if layout.form == DS:
            key, t = _reference_rank(layout, fields[1]), int(fields[1].split(".")[i])
        else:
            key = t = int(fields[1])
        return layout.eta(i, key) if kind == "ir" else layout.zeta(i, key, t, int(fields[2]))
    if not row and shape == ("x", 3):
        return layout.x(int(fields[0]), int(fields[1]), _reference_rank(layout, fields[2]))
    if not row and shape == ("p", 2):
        return layout.p(int(fields[0]), _reference_rank(layout, fields[1]))
    raise ValueError(label)


def reference_index_of(layout, label, row):
    """ProgramLayout.index_of by rendering back: the label is read
    loosely, and the index accepted only if row_label (row true) or
    col_label renders it as the same label."""
    try:
        index = _reference_read(layout, label, row)
    except (ValueError, IndexError):
        return None
    bound, render = (layout.shape[0], row_label) if row else (layout.shape[1], col_label)
    return index if 0 <= index < bound and render(layout, index) == label else None



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


def columns(alloc, pay):
    """Profile-major allocations alloc[r][i][j] and payments pay[r][i]
    as the primal's columns: per buyer, each item's allocation over the
    ranks, and per buyer its payments over the ranks."""
    return tuple(tuple(zip(*cells)) for cells in zip(*alloc)), tuple(zip(*pay))


def mechanism_of(form, alloc, pay):
    """The Mechanism with these Fraction allocations alloc[r][i][j] and
    payments pay[r][i], held in its numerators' column order."""
    return Mechanism(form, _scale(columns(alloc, pay)))


def slacks_of(form, a, b, c):
    """The PrimalSlacks with these Fraction families."""
    numerators = SlackNumerators(tuple(map(_scale, a)), tuple(map(_scale, b)), _scale(c))
    return PrimalSlacks(form, numerators)


def table_of(form, values):
    """The VirtualValueTable with these values, values[i][j][r] a
    Fraction or NEG_INF: each buyer's finite entries over the lcm of
    their denominators, and None for NEG_INF.  Tests build every table
    of Fractions through it."""
    buyers = []
    for columns in values:
        nums, den = _scale(tuple(tuple(0 if q == NEG_INF else q for q in c) for c in columns))
        marked = tuple(
            tuple(None if q == NEG_INF else n for q, n in zip(column, row))
            for column, row in zip(columns, nums)
        )
        buyers.append(Scaled(marked, den))
    return VirtualValueTable(form, tuple(buyers))


def zero_mechanism(instance, form=DS):
    alloc = (((Fraction(0),) * instance.m,) * instance.n,) * instance.profile_count
    pay = ((Fraction(0),) * instance.n,) * instance.profile_count
    return mechanism_of(form, alloc, pay)


def reference_positive_columns(instance, mechanism):
    """The dominant-strategy primal columns where the mechanism is
    positive, in column order, by definition: the layout's index
    (ProgramLayout.x and p) of each positive x_i^j(v) and p_i(v), read
    off the mechanism's profile-major views."""
    layout = ProgramLayout(DS, instance.m, instance.sizes)
    found = []
    for r, (alloc, pay) in enumerate(zip(mechanism.alloc, mechanism.pay)):
        for i, (items, paid) in enumerate(zip(alloc, pay)):
            found += [layout.x(i, j, r) for j, q in enumerate(items) if q > 0]
            if paid > 0:
                found.append(layout.p(i, r))
    return sorted(found)


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
    return slacks_of(mechanism.form, a, b, c)


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


def reference_agent_independence(instance, dual, table):
    """analysis.check_agent_independence by definition: (False, the
    first buyer's reference_slice_mismatch witness), or (True, None)."""
    for i in range(instance.n):
        witness = reference_slice_mismatch(instance, dual, i, table)
        if witness is not None:
            return False, witness
    return True, None


def reference_virtual_values(instance, dual, form):
    """The values of virtual_values_ds (form DS) or virtual_values_bayes
    (BAYES) by definition, values[i][j][r] at the profile v of rank r:
    phi_star(v) / mu(v) (Bayesian: phibar_star(v_i) / mu_i(v_i)); where
    that mass is 0, NEG_INF at the zero type on an opponent profile of
    positive mass (every Bayesian key counts as one) and 0 elsewhere.
    Regularity is not checked."""
    values = []
    for i in range(instance.n):
        t0 = instance.zero_index(i)
        columns = []
        for j in range(instance.m):
            column = []
            for v in instance.profiles():
                t = v[i]
                if form == DS:
                    mass, weight = instance.mu(v), instance.mu_minus(i, drop(i, v))
                else:
                    mass, weight = instance.mu_i(i, t), 1
                if not mass:
                    column.append(NEG_INF if weight and t == t0 else Fraction(0))
                elif form == DS:
                    column.append(phi_star(dual, instance, i, j, v) / mass)
                else:
                    column.append(phibar_star(dual, instance, i, j, t) / mass)
            columns.append(tuple(column))
        values.append(tuple(columns))
    return tuple(values)


def reference_ubvv(table, instance):
    """virtual.check_ubvv by definition, over profile tuples and the
    table's Fraction view: (checked, violations), each violation an
    (i, j, r) whose finite entry exceeds the value."""
    checked, violations = 0, []
    for v in instance.profiles():
        if not instance.mu(v):
            continue
        r = instance.rank(v)
        for i in range(instance.n):
            for j in range(instance.m):
                entry = table.values[i][j][r]
                if entry != NEG_INF:
                    checked += 1
                    if entry > instance.value(i, v[i])[j]:
                        violations.append((i, j, r))
    return checked, tuple(violations)


def reference_vwm(instance, mechanism, table):
    """virtual.check_vwm by definition, over profile tuples and the
    Fraction views of the mechanism and the table: (checked, violations),
    each violation a (kind, item, rank, buyer or None)."""
    checked, violations = 0, []
    for v in instance.profiles():
        if not instance.mu(v):
            continue
        checked += 1
        r = instance.rank(v)
        for j in range(instance.m):
            entries = [table.values[i][j][r] for i in range(instance.n)]
            best = max(entries)
            for i, entry in enumerate(entries):
                if mechanism.alloc[r][i][j] > 0:
                    if entry != best:
                        violations.append(("alloc-not-argmax", j, r, i))
                    if entry < 0:
                        violations.append(("alloc-negative", j, r, i))
            total = sold(mechanism, instance, j, v)
            if total < 1 and best > 0:
                violations.append(("unsold-max-positive", j, r, None))
            if 0 < total < 1 and best != 0:
                violations.append(("partial-max-nonzero", j, r, None))
    return checked, violations


# -- plain-Fraction references of the integer producers ----------------------


def _ladder(instance, i):
    """Buyer i's types in ascending order of their one value."""
    return sorted(range(instance.sizes[i]), key=lambda t: instance.value(i, t)[0])


def reference_canonical_flow(instance):
    """canonical_flow's (zeta, eta, xi) by definition, per profile: on
    an opponent profile of mass w, buyer i's type at ladder step u > 0
    sends w * C_u to the step below, where C_u is the buyer's mass at or
    above u; the lowest type carries eta = w; xi is the largest
    w * (C_u v_u - C_{u+1} v_{u+1}) over the buyers, or 0."""
    profiles = list(instance.profiles())
    zeta = [[None] * len(profiles) for _ in range(instance.n)]
    eta = [[Fraction(0)] * len(profiles) for _ in range(instance.n)]
    xi = [Fraction(0)] * len(profiles)
    for i, k in enumerate(instance.sizes):
        order = _ladder(instance, i)

        def above(u):
            return sum((instance.mu_i(i, t) for t in order[u:]), Fraction(0))

        def value(u):
            return instance.value(i, order[u])[0] if u < k else Fraction(0)

        for r, v in enumerate(profiles):
            w = instance.mu_minus(i, drop(i, v))
            u = order.index(v[i])
            row = [Fraction(0)] * k
            if w and u:
                row[order[u - 1]] = w * above(u)
            zeta[i][r] = tuple(row)
            if w and not u:
                eta[i][r] = w
            xi[r] = max(xi[r], w * (above(u) * value(u) - above(u + 1) * value(u + 1)))
    return tuple(map(tuple, zeta)), tuple(map(tuple, eta)), (tuple(xi),)


def reference_myerson_mechanism(instance, dual):
    """myerson_mechanism by definition: where xi > 0 the item goes to the
    first buyer whose alpha is 0, and buyer i pays
    v_u x(u) - sum over the lower steps u' of (v_{u'+1} - v_{u'}) x(u')
    along its value ladder against the same opponents."""
    profiles = list(instance.profiles())
    winner = {}
    for r, v in enumerate(profiles):
        if dual.xi[0][r] > 0:
            winner[v] = next((i for i in range(instance.n) if dual.alpha[i][0][r] == 0), None)

    def x(i, v):
        return Fraction(int(winner.get(v) == i))

    def payment(i, v):
        order = _ladder(instance, i)
        values = [instance.value(i, t)[0] for t in order]
        u = order.index(v[i])
        lower = sum(
            ((values[s + 1] - values[s]) * x(i, insert(i, order[s], drop(i, v))) for s in range(u)),
            Fraction(0),
        )
        return values[u] * x(i, v) - lower

    alloc = tuple(tuple((x(i, v),) for i in range(instance.n)) for v in profiles)
    pay = tuple(tuple(payment(i, v) for i in range(instance.n)) for v in profiles)
    return mechanism_of(DS, alloc, pay)


def reference_face_excess(instance, dual):
    """face_excess of a dominant-strategy dual by definition: every eta,
    plus zeta(t, t2) wherever report t2 is higher than t on some item,
    minus the buyer count."""
    total = Fraction(-instance.n)
    for r, v in enumerate(instance.profiles()):
        for i in range(instance.n):
            total += dual.eta[i][r]
            truth = instance.value(i, v[i])
            for t2 in range(instance.sizes[i]):
                if any(b > a for a, b in zip(truth, instance.value(i, t2))):
                    total += dual.zeta[i][r][t2]
    return total


def ds_optimum(instance):
    """The proved dominant-strategy optimum of the instance's program,
    (mechanism, slacks), as tight_downward_dual takes it."""
    proof = _proof(instance, solve_form(instance, DS), DS)
    return proof.mechanism, proof.slacks


def assert_frozen(lp):
    """lp is frozen and well formed, as make_lp would make it: every
    column in range and once in its row, no zero coefficient (make_lp
    drops it, so the programs differ), and every entry a Fraction."""
    assert make_lp(lp.sense, lp.c, lp.rows, lp.b) == lp
    entries = [*lp.c, *lp.b, *(q for row in lp.rows for _, q in row)]
    assert all(isinstance(q, Fraction) for q in entries)


def revenue_face_program(instance, revenue):
    """The optimal dual face as earlier releases searched it: the whole
    explicit dominant-strategy dual (build_dual_dslp) under
    tight_downward_dual's objective, every eta and every zeta on a
    raising pair, plus two rows that hold the dual objective to
    revenue."""
    base = build_dual_dslp(instance)
    layout = _layout(instance, DS)  # the primal's rows: base's columns
    count = instance.profile_count
    xi_cols = [layout.xi(j, r) for j in range(instance.m) for r in range(count)]
    c = [Fraction(0)] * base.ncols
    for i in range(instance.n):
        for r, (t, _) in enumerate(instance.positions[i]):
            c[layout.eta(i, r)] = Fraction(1)
            for t2 in range(instance.sizes[i]):
                truth, report = instance.value(i, t), instance.value(i, t2)
                if any(b > a for a, b in zip(truth, report)):
                    c[layout.zeta(i, r, t, t2)] = Fraction(1)
    rows = list(base.rows) + [
        tuple((col, Fraction(1)) for col in xi_cols),
        tuple((col, Fraction(-1)) for col in xi_cols),
    ]
    b = list(base.b) + [revenue, -revenue]
    return make_lp(MIN, c, rows, b)


def revenue_face_dual(instance, revenue):
    """(dual, excess) at the vertex the simplex reaches on
    revenue_face_program: its multipliers as a feasible DualSolution,
    and its objective less the buyer count."""
    certificate = solve(revenue_face_program(instance, revenue))
    dual = _dual_at(instance, _layout(instance, DS), *_scale(certificate.primal))
    assert dual.is_feasible()
    return dual, certificate.objective - instance.n


def reference_bic_to_dsic(instance, dual):
    """bic_to_dsic_dual's (zeta, eta): the Bayesian multipliers of the
    own type times the opponent mass, at every profile."""
    profiles = list(instance.profiles())
    zeta = tuple(
        tuple(
            tuple(z * instance.mu_minus(i, drop(i, v)) for z in dual.zeta[i][v[i]])
            for v in profiles
        )
        for i in range(instance.n)
    )
    eta = tuple(
        tuple(dual.eta[i][v[i]] * instance.mu_minus(i, drop(i, v)) for v in profiles)
        for i in range(instance.n)
    )
    return zeta, eta


def reference_dsic_to_bic(instance, dual):
    """dsic_to_bic_dual's (zeta, eta): per type, the dominant-strategy
    multipliers on the first opponent profile of positive mass, divided
    by that mass."""
    zeta, eta = [], []
    for i, k in enumerate(instance.sizes):
        vm = next(vm for vm in others_profiles(instance, i) if instance.mu_minus(i, vm) > 0)
        w = instance.mu_minus(i, vm)
        keys = [instance.rank(insert(i, t, vm)) for t in range(k)]
        zeta.append(tuple(tuple(z / w for z in dual.zeta[i][r]) for r in keys))
        eta.append(tuple(dual.eta[i][r] / w for r in keys))
    return tuple(zeta), tuple(eta)


def reference_regularize(instance, dual, form):
    """The (zeta, eta) that regularize_ds (form DS) or regularize_bayes
    (BAYES) makes, by its moves in Fractions: on each opponent profile
    (the Bayesian form has one family of unit weight), a zero weight
    drops every multiplier; otherwise eta at a nonzero type t moves onto
    zeta(t, 0), psi(t) less the mass of t moves onto zeta(0, t), and
    eta at the zero type becomes the weight.  psi is read off the dual
    as given."""
    zeta = [[list(row) for row in zeta_i] for zeta_i in dual.zeta]
    eta = [list(eta_i) for eta_i in dual.eta]
    for i, k in enumerate(instance.sizes):
        t0 = instance.zero_index(i)
        if form == BAYES:
            psis = [psibar(dual, instance, i, t) for t in range(k)]
            families = [(Fraction(1), list(range(k)), psis, instance.probs[i])]
        else:
            families = []
            for vm in others_profiles(instance, i):
                profiles = [insert(i, t, vm) for t in range(k)]
                families.append((
                    instance.mu_minus(i, vm),
                    [instance.rank(v) for v in profiles],
                    [psi(dual, instance, i, v) for v in profiles],
                    [instance.mu(v) for v in profiles],
                ))
        for w, keys, psis, masses in families:
            for t, key in enumerate(keys):
                if not w:
                    zeta[i][key], eta[i][key] = [Fraction(0)] * k, Fraction(0)
                elif t != t0:
                    zeta[i][key][t0] += eta[i][key]
                    zeta[i][keys[t0]][t] += psis[t] - masses[t]
                    eta[i][key] = Fraction(0)
            eta[i][keys[t0]] = w
    return (
        tuple(tuple(map(tuple, zeta_i)) for zeta_i in zeta),
        tuple(map(tuple, eta)),
    )


def iid_items_instance(n, m, seed):
    """n buyers drawn alike, each valuing each of m items at a or b
    independently, b with one shared mass q: a product instance, seeded,
    with 1 <= a < b <= 8 and q in sixths.  The zero vector is a type of
    mass 0, so n = 3, m = 2 gives 125 profiles."""
    rng = random.Random(seed)
    a = rng.randint(1, 4)
    b = a + rng.randint(1, 4)
    q = Fraction(rng.randint(1, 5), 6)
    vectors = list(product((a, b), repeat=m))
    support = [[0] * m] + [list(v) for v in vectors]
    probs = ["0"] + [str(prod(q if w == b else 1 - q for w in v)) for v in vectors]
    return validate_instance(
        {"buyers": n, "items": m, "supports": [support] * n, "probs": [probs] * n}
    )
