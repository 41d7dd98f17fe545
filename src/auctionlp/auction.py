"""Builders for the four auction programs and the optimal-face program,
and certificate round-trips.

A ProgramLayout holds the structure of a primal program: where each
variable and constraint sits.  One builder serves both forms: each
opponent slice adds its scaled dominant-strategy rows into the rows of
its keys (see model.multiplier_keys), at the layout's indices, and
extraction reads certificate values back at the same indices.
Programs and certificates hold numbers only: this module computes the
layout (_layout) wherever it builds a program or reads a vector.  A
dual program is the plain transpose of its primal (dual_of): its
columns are the primal layout's rows, and its rows the primal's
columns.

A proved optimum is a _Proof: the mechanism, its slacks and a dual
solution of equal objective.  One function accepts every optimum and
makes every proof (_accepted).  solve_form's certificates carry the one
_prove made, and the one-item closed forms (analysis.proved_certificate)
return theirs in place of a certificate; certificate_document writes
either from the proof's integer numerators.  One rule (_proof) says
whose optimum a proof or certificate is.  The optimal-face search
accepts its vertex there too, and ends in NotOptimal on a refusal.

Labels are only a rendering of the layout, used to name components in
certificate documents; programs and certificates hold none.  Their
grammar (profile keys are support indices joined by "."):

    columns     x:<i>:<j>:<vkey>     p:<i>:<vkey>
    ds rows     ic:<i>:<vkey>:<t'>   ir:<i>:<vkey>   sup:<j>:<vkey>
    bayes rows  ic:<i>:<t>:<t'>      ir:<i>:<t>      sup:<j>:<vkey>

Each of the five formats is written once (_X, _P, _IC, _IR, _SUP), and
certificate_document renders a whole section with them, family by
family, decoding no index.  index_of reads a label strictly, field by
field, and renders nothing back: a field must be spelled exactly as
the renderer writes it, and be in range.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, lcm, prod
from typing import NamedTuple

from .errors import (
    CertificateError,
    DimensionMismatch,
    InfeasibleInput,
    LabelMismatch,
    NotOptimal,
    NotRational,
    echo,
)
from .lp import (
    DeferredProgram,
    LinearProgram,
    LpCertificate,
    MAX,
    check_tableau_size,
    dual_of,
    recheck_certificate,
    solve,
)
from .model import (
    BAYES,
    DS,
    DualSolution,
    Instance,
    Mechanism,
    PrimalSlacks,
    Scaled,
    _dual_from_scaled,
    _key_rows,
    _scale,
    _utility,
    mechanism_feasible,
    mechanism_slacks,
    multiplier_keys,
    rat,
    rat_str,
    ratio,
    read_json,
)
from .virtual import GapLedger

__all__ = [
    "build_dslp",
    "build_blp",
    "build_dual_dslp",
    "build_dual_blp",
    "extract_mechanism",
    "extract_dual",
    "drev",
    "brev",
    "solve_form",
    "tight_downward_dual",
    "extend_ds",
    "extend_bayes",
    "certificate_document",
    "verify_certificate_document",
    "profile_key",
]


def profile_key(profile) -> str:
    return ".".join(str(t) for t in profile) if profile else "_"


# The label grammar of the module docstring, each format written once
_X = "x:{}:{}:{}".format  # buyer, item, profile
_P = "p:{}:{}".format  # buyer, profile
_IC = "ic:{}:{}:{}".format  # buyer, key, report
_IR = "ir:{}:{}".format  # buyer, key
_SUP = "sup:{}:{}".format  # item, profile


# ---------------------------------------------------------------------------
# Program layout

@dataclass(frozen=True)
class ProgramLayout:
    """Index arithmetic of one auction program.

    form is DS or BAYES; m and sizes are the instance's item count and
    support sizes.  Profiles r and opponent slices s are numbered by
    rank, as in Instance.

    x and p index the variables x_i^j(v) and p_i(v), the primal's
    columns.  zeta, eta and xi index the multipliers of its ic, ir and
    sup rows, which every primal lists in that order, in both forms.
    zeta and eta take the multiplier key, as in
    DualSolution: the profile rank in the dominant-strategy form, the
    own type in the Bayesian form (see model.multiplier_keys).  A
    primal certificate holds them in its dual vector.
    """

    form: str
    m: int
    sizes: tuple[int, ...]

    @cached_property
    def count(self) -> int:
        return prod(self.sizes)

    @cached_property
    def _blocks(self):
        """Where each buyer's zeta and eta multipliers start, and where
        xi starts.  One row order serves both forms: all ic rows (buyer,
        key, report), then all ir rows (buyer, key), then the sup rows;
        the forms differ only in keys per buyer."""
        keys = [self.count if self.form == DS else k for k in self.sizes]
        ics = [n * (k - 1) for n, k in zip(keys, self.sizes)]
        zeta = list(itertools.accumulate(ics, initial=0))
        eta = list(itertools.accumulate(keys, initial=zeta[-1]))
        return zeta[:-1], eta[:-1], eta[-1]

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, columns) of the primal program."""
        variables = len(self.sizes) * (self.m + 1) * self.count
        return self._blocks[2] + self.m * self.count, variables

    def x(self, i: int, j: int, r: int) -> int:
        return (i * self.m + j) * self.count + r

    def p(self, i: int, r: int) -> int:
        return (len(self.sizes) * self.m + i) * self.count + r

    def zeta(self, i: int, key: int, t: int, t2: int) -> int:
        """Multiplier of "true t, report t2" at key, whose own type is t."""
        lie = t2 - (t2 > t)  # t2 among the k - 1 reports other than t
        return self._blocks[0][i] + key * (self.sizes[i] - 1) + lie

    def eta(self, i: int, key: int) -> int:
        """Participation multiplier at key."""
        return self._blocks[1][i] + key

    def xi(self, j: int, r: int) -> int:
        return self._blocks[2] + j * self.count + r

    @cached_property
    def _names(self) -> tuple[list[tuple[int, ...]], list[str]]:
        """Each profile, and its key in the label grammar (profile_key),
        by rank: the keys join the product of the types' digit strings."""
        profiles = list(itertools.product(*map(range, self.sizes)))
        digits = [list(map(str, range(k))) for k in self.sizes]
        return profiles, list(map(".".join, itertools.product(*digits)))

    @cached_property
    def _ranks(self) -> dict[str, int]:
        """Each profile key to its rank: the only spellings a profile
        field of a label takes."""
        return dict(zip(self._names[1], range(self.count)))

    @cached_property
    def _numbers(self) -> tuple[dict[str, int], dict[str, int], list[dict[str, int]]]:
        """The canonical decimals a buyer, an item and each buyer's type
        field of a label take, each to its value: (buyers, items, types
        by buyer).  Only a number in range has a spelling."""
        n, m = len(self.sizes), self.m
        tables = {bound: {str(k): k for k in range(bound)} for bound in {n, m, *self.sizes}}
        return tables[n], tables[m], [tables[k] for k in self.sizes]

    def index_of(self, label: str, row: bool) -> int | None:
        """The row (row true) or column whose label, in the grammar of
        the module docstring, is label, or None.  The label is read
        strictly, field by field, and never rendered back: each field
        must be one of the spellings in _numbers or _ranks, and an ic
        row's report must differ from the own type."""
        kind, *parts = label.split(":")
        buyers, items, types = self._numbers
        ranks = self._ranks
        try:
            if row and kind == "sup":
                j, name = parts
                return self.xi(items[j], ranks[name])
            if row and kind in ("ic", "ir"):
                i, key, *lie = parts
                i = buyers[i]
                if self.form == DS:
                    key = ranks[key]
                    t = self._names[0][key][i]
                else:
                    key = t = types[i][key]
                if kind == "ir":
                    return None if lie else self.eta(i, key)
                (t2,) = lie
                t2 = types[i][t2]
                return None if t2 == t else self.zeta(i, key, t, t2)
            if not row and kind == "x":
                i, j, name = parts
                return self.x(buyers[i], items[j], ranks[name])
            if not row and kind == "p":
                i, name = parts
                return self.p(buyers[i], ranks[name])
        except (KeyError, ValueError):  # a spelling not in a table, a field too many or few
            pass
        return None


def _layout(instance: Instance, form: str) -> ProgramLayout:
    return ProgramLayout(form, instance.m, instance.sizes)


# ---------------------------------------------------------------------------
# Primal builders


def _build_primal(instance: Instance, form: str, number) -> LinearProgram:
    """max sum_v mu(v) sum_i p_i(v) subject to truthfulness (one row per
    buyer, key and deviation report), participation (one row per buyer
    and key), and unit supply of each item at each profile.

    Each coefficient is number(numerator, denominator), of integers read
    off the instance's tables over one denominator (supports_scaled,
    the keys' scales, mu_scaled): Fraction makes the exact program and
    operator.truediv the float program that solve_form's float pass
    reads.  Integer true division rounds correctly, so each float is
    the exact coefficient's float.  The program is well formed by
    construction (every column in range and once in its row, every
    coefficient nonzero), and is returned with list fields, unchecked:
    a solve reads it as it is, and _exact_primal freezes the exact one.

    Keys are profile ranks (DS) or own types (BAYES); see
    multiplier_keys.  Each opponent slice of nonzero scale appends its
    scaled dominant-strategy rows to the rows of its keys.

    The layout's x and p are linear in the rank (x(i, j, r) is
    x(i, j, 0) + r), and the k - 1 ic rows of one key are contiguous, in
    report order; so each buyer's columns are offsets from its rank-0
    columns, and each (slice, type) writes the coefficients of its
    scale for all of its reports.  Those are made once per distinct
    scale: every slice has scale 1 in the DS form."""
    layout = _layout(instance, form)
    n, m, count = instance.n, instance.m, instance.profile_count
    nrows, ncols = layout.shape
    zero, one = number(0, 1), number(1, 1)
    masses, mass_den = instance.mu_scaled
    c = [zero] * ncols
    rows = [[] for _ in range(nrows)]
    b = [zero] * nrows
    mu = [number(w, mass_den) if w else zero for w in masses]
    for i in range(n):
        p_i = layout.p(i, 0)
        c[p_i:p_i + count] = mu
    for j in range(m):
        xs = [layout.x(i, j, 0) for i in range(n)]
        xi_j = layout.xi(j, 0)
        for r in range(count):
            rows[xi_j + r] = [(x + r, one) for x in xs]
        b[xi_j:xi_j + count] = [one] * count
    for i, (k, (vecs, value_den)) in enumerate(zip(instance.sizes, instance.supports_scaled)):
        keys = multiplier_keys(instance, form, i)
        scales, den = keys.scales
        xs = [layout.x(i, j, 0) for j in range(m)]
        p_i = layout.p(i, 0)
        unit = den * value_den
        # scale -> its payment coefficient, negated, and per type the
        # (column, value, negated value) of each nonzero value
        coefficients = {}
        for w, family, ranks in zip(scales, keys.families, instance.ranks[i]):
            if not w:
                continue
            if w not in coefficients:
                coefficients[w] = (
                    number(w, den),
                    number(-w, den),
                    [
                        [(x, number(w * v, unit), number(-w * v, unit)) for x, v in zip(xs, vec) if v]
                        for vec in vecs
                    ],
                )
            paid, neg, types = coefficients[w]
            for t, r in enumerate(ranks):
                terms = types[t]
                truth = [(x + r, at_truth) for x, _, at_truth in terms]
                pay = (p_i + r, paid)
                # u_i at the lie minus u_i at the truth <= 0, one ic row
                # per report t2 != t, starting at the key's first lie
                first = layout.zeta(i, family[t], t, int(t == 0))
                lies = ranks[:t] + ranks[t + 1:]
                for row, lr in zip(rows[first:first + k - 1], lies):
                    for (x, v, _), at_truth in zip(terms, truth):
                        row += ((x + lr, v), at_truth)
                    row += ((p_i + lr, neg), pay)
                row = rows[layout.eta(i, family[t])]  # ir
                row += truth
                row.append(pay)
    return LinearProgram(MAX, c, rows, b)


def _exact_primal(instance: Instance, form: str) -> LinearProgram:
    """The exact program of the form, frozen into tuples."""
    lp = _build_primal(instance, form, Fraction)
    return LinearProgram(lp.sense, tuple(lp.c), tuple(map(tuple, lp.rows)), tuple(lp.b))


def build_dslp(instance: Instance) -> LinearProgram:
    """The dominant-strategy primal: one ic and ir row per profile."""
    return _exact_primal(instance, DS)


def build_blp(instance: Instance) -> LinearProgram:
    """The Bayesian primal: one ic and ir row per own type, weighted by
    the opponent mass mu_{-i}."""
    return _exact_primal(instance, BAYES)


# ---------------------------------------------------------------------------
# Dual programs


def build_dual_dslp(instance: Instance) -> LinearProgram:
    """min sum xi, one row per primal variable: the expected-virtual-value
    bound per x_i^j(v) and the payment-weight bound per p_i(v).  The
    transpose of build_dslp (dual_of): its columns are the rows of the
    primal's layout, its rows the primal's columns."""
    return dual_of(build_dslp(instance))


def build_dual_blp(instance: Instance) -> LinearProgram:
    """The transpose of build_blp, indexed as build_dual_dslp is."""
    return dual_of(build_blp(instance))


# ---------------------------------------------------------------------------
# Certificate extraction


class _Proof(NamedTuple):
    """A proved optimum of the instance's program in the mechanism's
    form: the mechanism, its slacks, and a dual solution of equal
    objective, each checked feasible.  _accepted makes every one: for
    _prove, off a primal point and its row multipliers, and for a closed
    form (analysis.proved_certificate), off Myerson's auction and a
    canonical flow.  certificate_document writes either kind."""

    instance: Instance
    mechanism: Mechanism
    slacks: PrimalSlacks
    dual: DualSolution

    @property
    def objective(self) -> Fraction:
        return self.dual.objective()


def _proof(instance: Instance, certificate, form: str) -> _Proof:
    """The proof that certificate is the instance's optimum in the form:
    the one rule for whose optimum a proof or certificate is.  A _Proof,
    passed itself or carried as certificate.proof, whose instance equals
    this one is returned in its own form only (LabelMismatch in another),
    and a bare _Proof of another instance raises LabelMismatch.  Any
    other certificate must have the form's primal shape (LabelMismatch
    if not) and is proved on the model (_prove): CertificateError unless
    the pair is optimal and has the stated objective."""
    proof = certificate if isinstance(certificate, _Proof) else certificate.proof
    if proof is certificate or (isinstance(proof, _Proof) and proof.instance == instance):
        if proof.instance != instance or proof.mechanism.form != form:
            raise LabelMismatch(f"proof is not of this instance's {form} optimum")
        return proof
    layout = _layout(instance, form)
    if (len(certificate.dual), len(certificate.primal)) != layout.shape:
        raise LabelMismatch(f"certificate is not of the {form} primal's shape")
    proof = _prove(instance, layout, _scale(certificate.primal), _scale(certificate.dual))
    if proof.dual.objective() != certificate.objective:
        raise CertificateError("objective mismatch")
    return proof


def extract_mechanism(
    instance: Instance, certificate: LpCertificate, form: str
) -> Mechanism:
    """The allocation and payments of an optimal primal certificate
    produced from build_dslp or build_blp: the mechanism its proof
    (_proof) built.  A certificate whose pair is not optimal raises
    CertificateError."""
    return _proof(instance, certificate, form).mechanism


def _mechanism_entries(instance: Instance, layout: ProgramLayout, vector):
    """(alloc, pay) read off a primal vector, in its own column order
    (Mechanism.scaled).  The layout's x and p are linear in the rank, so
    each (buyer, item) and each buyer's payments are one slice of the
    vector."""
    count = instance.profile_count
    alloc = tuple(
        tuple(vector[x : x + count] for x in (layout.x(i, j, 0) for j in range(instance.m)))
        for i in range(instance.n)
    )
    pay = tuple(vector[p : p + count] for p in (layout.p(i, 0) for i in range(instance.n)))
    return alloc, pay


def extract_dual(
    instance: Instance, certificate: LpCertificate, form: str
) -> DualSolution:
    """The dual solution of an optimal primal certificate produced from
    build_dslp or build_blp: the one its proof (_proof) built.  A
    certificate whose pair is not optimal raises CertificateError, and
    one of another shape (a dual program's among them) or a proof of
    another optimum LabelMismatch (_proof)."""
    return _proof(instance, certificate, form).dual


def _dual_at(instance: Instance, layout: ProgramLayout, nums, den: int) -> DualSolution:
    """The dual solution that a vector of multiplier numerators over den
    stands for, unchecked: _accepted checks it feasible."""
    zeta, eta, xi = _multipliers(instance, layout, nums)
    multipliers = [Scaled(pair, den) for pair in zip(zeta, eta)]
    return _dual_from_scaled(instance, layout.form, multipliers, Scaled(xi, den))


def _multipliers(instance: Instance, layout: ProgramLayout, values):
    """(zeta, eta, xi) read off a vector of multiplier numerators, 0 on
    zeta's diagonal.  A key's k - 1 ic rows are contiguous, in report order
    without its own type; its buyer's ir rows and each item's sup rows
    are contiguous in key and rank order."""
    count = instance.profile_count
    xi = tuple(values[x : x + count] for x in (layout.xi(j, 0) for j in range(instance.m)))
    zeta, eta = [], []
    for i, k in enumerate(instance.sizes):
        positions = multiplier_keys(instance, layout.form, i).positions
        rows = []
        for key, (t, _) in enumerate(positions):
            first = layout.zeta(i, key, t, int(t == 0))
            lies = values[first : first + k - 1]
            rows.append(lies[:t] + (0,) + lies[t:])
        zeta.append(tuple(rows))
        first = layout.eta(i, 0)
        eta.append(values[first : first + len(positions)])
    return tuple(zeta), tuple(eta), xi


# ---------------------------------------------------------------------------
# Optimal revenues


def solve_form(instance: Instance, form: str) -> LpCertificate:
    """Solve the primal program of the given form to optimality.  The
    model proves each vertex the solver proposes (_accept), so the
    certificate carries the mechanism, its slacks and the dual solution
    that extraction returns.  The program is one builder in either
    arithmetic (_build_primal): the float pass reads it built in floats,
    and the exact pass built with Fraction, only if the model refuses
    the float proposal.  The solver's tableau guard is run on the
    layout's shape first, so an oversize program is refused unbuilt."""
    layout = _layout(instance, form)
    check_tableau_size(*layout.shape)
    program = DeferredProgram(partial(_build_primal, instance, form))
    return solve(program, partial(_accept, instance, layout))


def _accept(instance: Instance, layout: ProgramLayout, lp, x, y) -> LpCertificate:
    """The exact check a solve_form solve hands each vertex to: x and y,
    each put over one denominator once, proved optimal on the model
    through the layout of the program (_prove), or refused with
    CertificateError.  The program lp itself is not read."""
    x, y = tuple(x), tuple(y)
    proof = _prove(instance, layout, _scale(x), _scale(y))
    return LpCertificate(x, y, proof.dual.objective(), proof=proof)


def drev(instance: Instance) -> Fraction:
    """Optimal revenue over dominant-strategy implementations."""
    return solve_form(instance, DS).objective


def brev(instance: Instance) -> Fraction:
    """Optimal revenue over Bayesian implementations."""
    return solve_form(instance, BAYES).objective


# ---------------------------------------------------------------------------
# The optimal dual face


def _raising_pairs(instance: Instance, i: int) -> list[tuple[int, int]]:
    """Buyer i's (true t, report t2) pairs whose report is higher on
    some item, compared on the value numerators."""
    vecs = instance.supports_scaled[i].nums
    return [
        (t, t2)
        for t, t2 in itertools.permutations(range(len(vecs)), 2)
        if any(w2 > w for w, w2 in zip(vecs[t], vecs[t2]))
    ]


def tight_downward_dual(instance: Instance, mechanism: Mechanism, slacks: PrimalSlacks):
    """Search the optimal dual face for a solution whose payment rows
    are all tight and whose deviation mass never runs from a lower
    value to a higher one on any item.

    The face is read off a proved dominant-strategy optimum, a mechanism
    and its slacks (a DS primal certificate's _proof, or characterize's
    evidence), by complementary slackness (Schrijver, Theory of Linear
    and Integer Programming, 1986, ch. 7): a feasible dual is optimal
    exactly when it is 0 on every primal row with positive slack and
    the dual row of every positive primal entry holds with equality.
    So the face program is dual_of the DS primal (build_dslp) restricted
    to its tight rows, -A_T^T y <= -c, plus each positive entry's row
    of it negated; every point of it is on the face, and every point of
    the face is in it.  A feasible mechanism that is not optimal leaves
    it empty, and NotOptimal is raised.

    Minimizes total participation mass plus the mass on raising pairs
    over that program.  Returns (dual, excess): excess 0 means both
    goals were met exactly, and the regularized table then stays at or
    below the values entrywise.  Single-item instances always admit
    excess 0.  The face has many minimizers; this returns the one
    vertex the simplex's pivot path reaches, and it is the only function
    here that does.  The vertex is accepted as every optimum is
    (_accepted): a feasible dual of the full program whose objective is
    the mechanism's revenue.  Only a face program built wrong reaches a
    vertex it refuses, so a refusal raises NotOptimal.
    """
    if not mechanism_feasible(instance, mechanism, slacks):
        raise InfeasibleInput("mechanism violates feasibility")
    primal = build_dslp(instance)
    layout = _layout(instance, DS)
    tight = _tight_rows(instance, layout, slacks)  # (row, weight) pairs
    kept = tuple(primal.rows[r] for r, _ in tight)
    face = dual_of(replace(primal, rows=kept, b=tuple(primal.b[r] for r, _ in tight)))
    # each positive entry's row again, negated, so that it holds with equality
    positive = _positive_columns(mechanism)
    rows = face.rows + tuple(tuple((col, -coef) for col, coef in face.rows[j]) for j in positive)
    b = face.b + tuple(-face.b[j] for j in positive)
    weights = tuple(weight for _, weight in tight)
    certificate = solve(replace(face, c=weights, rows=rows, b=b))
    y = [0] * primal.nrows
    for (r, _), value in zip(tight, certificate.primal):
        y[r] = value
    dual = _dual_at(instance, layout, *_scale(tuple(y)))
    # total participation mass alone already sums to at least one per buyer
    excess = certificate.objective - instance.n
    if excess < 0:
        raise NotOptimal(f"optimal-face search reached excess {excess} below 0")
    try:
        _accepted(instance, mechanism, slacks, dual)
    except CertificateError as exc:
        raise NotOptimal(f"optimal-face dual refused: {exc}") from None
    return dual, excess


def _tight_rows(instance: Instance, layout: ProgramLayout, slacks: PrimalSlacks):
    """The DS primal rows a mechanism with these slacks meets with
    equality, in row order, read off the slack numerators: ic rows
    (buyer, profile, report), ir rows (buyer, profile), sup rows (item,
    profile).  Each comes as a (row, weight) pair, its weight in
    tight_downward_dual's objective: 1 on every ir row and on the ic
    row of every raising pair, else 0."""
    (a, b, (c, _)) = slacks.scaled
    one, zero = Fraction(1), Fraction(0)
    tight = []
    for i, (a_i, _) in enumerate(a):
        raising = set(_raising_pairs(instance, i))
        for r, (t, _) in enumerate(instance.positions[i]):
            tight.extend(
                (layout.zeta(i, r, t, t2), one if (t, t2) in raising else zero)
                for t2, gap in enumerate(a_i[r])
                if t2 != t and not gap
            )
    for i, (b_i, _) in enumerate(b):
        tight.extend((layout.eta(i, r), one) for r, gap in enumerate(b_i) if not gap)
    for j, c_j in enumerate(c):
        tight.extend((layout.xi(j, r), zero) for r, gap in enumerate(c_j) if not gap)
    return tight


def _positive_columns(mechanism: Mechanism) -> list[int]:
    """The primal columns where the mechanism is positive, in column
    order, read off its numerators.  They hold alloc[i][j] and then
    pay[i] as x(i, j, .) and p(i, .) lie in the primal vector, so an
    entry's column is its place in that order."""
    (alloc, pay), _ = mechanism.scaled
    entries = itertools.chain(*itertools.chain(*alloc), *pay)
    return [col for col, q in enumerate(entries) if q > 0]


# ---------------------------------------------------------------------------
# Extension to off-support profiles


def _member_index(instance: Instance, i: int, vec) -> int | None:
    for t, support_vec in enumerate(instance.supports[i]):
        if support_vec == vec:
            return t
    return None


def _query(instance: Instance, query):
    """The query profile as rationals: one value vector per buyer, one
    coordinate per item."""
    query = tuple(tuple(rat(c) for c in vec) for vec in query)
    if len(query) != instance.n or any(len(vec) != instance.m for vec in query):
        raise DimensionMismatch("query needs one value per buyer and item")
    return query


def _best_report(utilities) -> int:
    """Report with the highest utility; ties go to the lowest index."""
    return max(range(len(utilities)), key=utilities.__getitem__)


def extend_ds(instance: Instance, mechanism: Mechanism, query):
    """Evaluate the support mechanism at an arbitrary value profile.

    On support the rows are returned unchanged.  With exactly one buyer
    off support, that buyer best-responds over its support against the
    others' reports and receives that row; the remaining buyers are
    held at the zero type, which gets nothing and pays nothing.  With
    two or more buyers off support every buyer is held at the zero
    type.  The returned pair is (allocation rows, payment row).
    """
    query = _query(instance, query)
    members = [_member_index(instance, i, vec) for i, vec in enumerate(query)]
    off = [i for i, t in enumerate(members) if t is None]
    zero_alloc = tuple(Fraction(0) for _ in range(instance.m))
    if not off:
        profile = tuple(members)
        r = instance.rank(profile)
        return mechanism.alloc[r], mechanism.pay[r]
    if len(off) == 1:
        d = off[0]
        # the opponents' slice, read off the profile where d has type 0
        s = instance.positions[d][instance.rank(members[:d] + [0] + members[d + 1:])][1]
        ranks = instance.ranks[d][s]
        u = [_utility(query[d], mechanism.alloc[r][d], mechanism.pay[r][d]) for r in ranks]
        r = ranks[_best_report(u)]
        alloc = tuple(
            mechanism.alloc[r][i] if i == d else zero_alloc
            for i in range(instance.n)
        )
        pay = tuple(
            mechanism.pay[r][i] if i == d else Fraction(0)
            for i in range(instance.n)
        )
        return alloc, pay
    alloc = tuple(zero_alloc for _ in range(instance.n))
    pay = tuple(Fraction(0) for _ in range(instance.n))
    return alloc, pay


def extend_bayes(instance: Instance, mechanism: Mechanism, query):
    """Interim allocation and payment for each buyer at an arbitrary
    value profile: off-support values report the support type with the
    best interim utility (ties to the lowest index)."""
    query = _query(instance, query)
    alloc_rows, pay_row = [], []
    (alloc, pay), den = mechanism.scaled
    for i, vec in enumerate(query):
        scales = multiplier_keys(instance, BAYES, i).scales
        rows = _key_rows(instance, alloc, pay, i, scales.nums)
        unit = scales.den * den
        cells = [tuple(Fraction(x, unit) for x in cell) for cell in rows[0]]
        prices = [Fraction(q, unit) for q in rows[1]]
        t = _member_index(instance, i, vec)
        if t is None:
            t = _best_report([_utility(vec, *row) for row in zip(cells, prices)])
        alloc_rows.append(tuple(cells[t]))
        pay_row.append(prices[t])
    return tuple(alloc_rows), tuple(pay_row)


# ---------------------------------------------------------------------------
# Certificate documents

# the entries of a document's ledger: GapLedger's families and their sum
_LEDGER_KEYS = (*(f.name for f in fields(GapLedger)), "gap")


def certificate_document(instance: Instance, form: str, certificate) -> dict:
    """Self-contained record of an optimal primal solve: objective,
    nonzero primal and dual entries by label, and the complementary
    slackness ledger (all zeros at an optimum).

    certificate is a primal certificate of the form's program or the
    proof of a closed form (analysis.proved_certificate), read through
    _proof: a proof not of this instance's optimum in this form raises
    LabelMismatch, and a certificate that is not optimal
    CertificateError.  Both sections are rendered from the proof's
    integer numerators (_sections); self-check proves the document
    again whichever wrote it.

    The ledger is the proved pair's, written without being summed: a
    proof checked the slacks, the multipliers, alpha, beta, x and p
    nonnegative and the revenue equal to the dual objective, so each of
    the five families is a sum of nonnegative products, and together
    they add up to a zero gap (virtual.check_cs).  Each is zero."""
    proof = _proof(instance, certificate, form)
    primal, dual = _sections(instance, proof)
    return {
        "kind": "auctionlp.certificate",
        "version": 1,
        "digest": instance.digest(),
        "form": form,
        "objective": rat_str(proof.objective),
        "primal": primal,
        "dual": dual,
        "ledger": dict.fromkeys(_LEDGER_KEYS, "0"),
    }


def _text(num: int, den: int) -> str:
    """rat_str of num / den, reduced with one gcd."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _sections(instance: Instance, proof: _Proof) -> tuple[dict, dict]:
    """The primal and dual sections of the proof's document: each
    nonzero numerator of the mechanism (alloc, pay) and of the dual
    (zeta off its diagonal, eta, xi) by its label, family by family,
    with no index decoded.  A multiplier key is named by its profile
    (DS) or its own type (BAYES), as the proof's form says."""
    form = proof.dual.form
    profiles, names = _layout(instance, form)._names
    (alloc, pay), den = proof.mechanism.scaled
    primal = {}
    for i, items in enumerate(alloc):
        for j, column in enumerate(items):
            for name, q in zip(names, column):
                if q:
                    primal[_X(i, j, name)] = _text(q, den)
    for i, column in enumerate(pay):
        for name, q in zip(names, column):
            if q:
                primal[_P(i, name)] = _text(q, den)
    nums = proof.dual.scaled
    dual = {}
    for i, ((zeta, den), (eta, _)) in enumerate(zip(nums.zeta, nums.eta)):
        if form == DS:
            keys = [(name, v[i]) for name, v in zip(names, profiles)]
        else:
            keys = [(t, t) for t in range(instance.sizes[i])]
        for (key, t), row, held in zip(keys, zeta, eta):
            for t2, q in enumerate(row):
                if q and t2 != t:
                    dual[_IC(i, key, t2)] = _text(q, den)
            if held:
                dual[_IR(i, key)] = _text(held, den)
    xi, den = nums.xi
    for j, row in enumerate(xi):
        for name, q in zip(names, row):
            if q:
                dual[_SUP(j, name)] = _text(q, den)
    return primal, dual


def _section_values(document: dict, key: str):
    """A certificate section, entry by entry: its label, and its value
    read (ratio) to a numerator and a denominator in lowest terms.  Each
    distinct value string is read once, for this section only; other
    values go to ratio each time.  A section that is not a map, or a
    value that is not a rational, raises LabelMismatch."""
    section = document.get(key)
    if not isinstance(section, dict):
        raise LabelMismatch(f"certificate {key} is not a map of labels to rationals")
    read = {}  # value string -> (numerator, denominator)
    for label, value in section.items():
        pair = read.get(value) if type(value) is str else None
        if pair is None:
            try:
                pair = ratio(value)
            except NotRational as exc:
                raise LabelMismatch(f"certificate {key}: {exc}") from None
            if type(value) is str:
                read[value] = pair
        yield label, *pair


def _section_entries(
    document: dict, key: str, layout: ProgramLayout, row: bool, unknown: list
) -> list[tuple[int, int, int]]:
    """The primal (row false) or dual section of a certificate, read in
    one pass: an (index, numerator, denominator) triple per entry
    (_section_values); a label index_of does not know goes to unknown
    instead.  Every value is read, known label or not."""
    entries = []
    for label, num, den in _section_values(document, key):
        index = layout.index_of(label, row)
        if index is None:
            unknown.append(label)
        else:
            entries.append((index, num, den))
    return entries


def verify_certificate_document(instance: Instance, document: dict) -> Fraction:
    """Re-prove a stored certificate against the instance, without
    trusting the solve that wrote it.  Returns the verified objective.
    A document of the wrong shape raises LabelMismatch, a nonzero stored
    ledger InfeasibleInput, and a certificate that is not optimal
    CertificateError.

    Each primal and dual entry is read once, straight to its layout
    index and its integer numerator and denominator (_section_entries):
    labels strictly, field by field, none rendered back, and values
    through ratio, the one reader of number text, as the ledger and the
    objective are.  The proof runs on the model, with no program built
    (_prove): the mechanism and the dual solution the entries stand for
    must be feasible, and the revenue, the dual objective and the stated
    objective equal.  A
    vector whose common denominator passes _COMMON_DENOMINATOR_BITS is
    rechecked on the program's rows and columns instead
    (recheck_certificate), where each grows its own denominator."""
    if not isinstance(document, dict) or document.get("kind") != "auctionlp.certificate":
        raise LabelMismatch("not a certificate document")
    version = document.get("version")
    # JSON true equals 1 in Python, so the type is tested too
    if type(version) is not int or version != 1:
        raise LabelMismatch(f"unknown certificate version {echo(version)}")
    if document.get("digest") != instance.digest():
        raise LabelMismatch("certificate digest does not match the instance")
    form = document.get("form")
    if form not in (DS, BAYES):
        raise LabelMismatch(f"unknown certificate form {echo(form)}")
    layout = _layout(instance, form)
    unknown = []
    # (index, numerator, denominator) per entry: the primal's columns, the dual's rows
    entries = [
        _section_entries(document, key, layout, row, unknown)
        for key, row in (("primal", False), ("dual", True))
    ]
    ledger = {label: num for label, num, _ in _section_values(document, "ledger")}
    if ledger.keys() != set(_LEDGER_KEYS):
        raise LabelMismatch(
            f"certificate ledger keys {echo(sorted(ledger))} are not {_LEDGER_KEYS}"
        )
    if unknown:
        shown = ", ".join(map(echo, sorted(unknown)[:3]))
        raise LabelMismatch(f"unknown labels: [{shown}]")
    try:
        objective = rat(document.get("objective"))
    except NotRational as exc:
        raise LabelMismatch(f"certificate objective: {exc}") from None
    sizes = layout.shape[::-1]  # columns, rows
    vectors = [_over_common_denominator(*pair) for pair in zip(sizes, entries)]
    if None in vectors:
        lp = _exact_primal(instance, form)
        x, y = ([Fraction(0)] * size for size in sizes)
        for vector, found in zip((x, y), entries):
            for index, num, den in found:
                vector[index] = Fraction(num, den)
        recheck_certificate(lp, LpCertificate(tuple(x), tuple(y), objective))
    elif _prove(instance, layout, *vectors).dual.objective() != objective:
        raise CertificateError("objective mismatch")
    if any(ledger.values()):
        raise InfeasibleInput("stored ledger is not all zeros")
    return objective


# The most bits a certificate vector's common denominator may take for
# the model re-proof.  Its lcm grows with every distinct denominator, so
# over a forged vector of many large ones it costs time quadratic in
# their number; past this cap the program's row-local checks take over.
# A valid certificate can pass it too: values over a few coprime
# 1000-bit denominators give optimal duals with a lcm of 6998 bits.
_COMMON_DENOMINATOR_BITS = 4096


def _over_common_denominator(size: int, entries) -> Scaled | None:
    """A vector of size entries, zero but for the (index, numerator,
    denominator) triples given, as integer numerators over one
    denominator, the lcm of theirs; None once that lcm passes
    _COMMON_DENOMINATOR_BITS bits."""
    factors = dict.fromkeys(den for _, _, den in entries)
    den = 1
    for q in factors:
        den = lcm(den, q)
        if den.bit_length() > _COMMON_DENOMINATOR_BITS:
            return None
    for q in factors:
        factors[q] = den // q
    nums = [0] * size
    for index, num, q in entries:
        nums[index] = num * factors[q]
    return Scaled(tuple(nums), den)


def _prove(instance: Instance, layout: ProgramLayout, primal: Scaled, dual: Scaled) -> _Proof:
    """Prove that a primal point and its row multipliers, read through
    the layout, are optimal, or raise CertificateError: the mechanism
    the point stands for (_mechanism_entries) and the dual solution the
    multipliers stand for (_dual_at) are accepted by _accepted.  Between
    them its two feasibility checks cover every entry's sign, every
    primal row and every dual column of the program.

    This is the one proof of an auction primal's optimum: it accepts
    each vertex a solve_form solve proposes (_accept), proves a primal
    certificate that carries no proof for the instance before anything
    is read from it (_proof), and re-proves a stored certificate
    (verify_certificate_document)."""
    nums, den = primal
    mechanism = Mechanism(layout.form, Scaled(_mechanism_entries(instance, layout, nums), den))
    slacks = mechanism_slacks(instance, mechanism)
    return _accepted(instance, mechanism, slacks, _dual_at(instance, layout, *dual))


def _accepted(
    instance: Instance, mechanism: Mechanism, slacks: PrimalSlacks, dual: DualSolution
) -> _Proof:
    """The proof that a mechanism, with its slacks, and a dual solution
    of its form are an optimum of the instance's program in that form,
    or CertificateError.  Four exact checks, in order: the dual is of
    the mechanism's form, the mechanism is feasible (x, p >= 0 and
    every ic, ir and sup row holds), so is the dual (zeta, eta, xi >= 0
    and every dual column holds), and the revenue equals the dual
    objective, so that by weak duality both are optimal.

    It is the one acceptance of an optimum, and the only code that
    makes a _Proof: _prove, the one-item closed form
    (analysis.proved_certificate) and the optimal-face search
    (tight_downward_dual) each accept through it."""
    if dual.form != mechanism.form:
        raise CertificateError(f"a {dual.form} dual does not prove a {mechanism.form} mechanism")
    if not mechanism_feasible(instance, mechanism, slacks):
        raise CertificateError("mechanism violates feasibility")
    if not dual.is_feasible():
        raise CertificateError("dual violates feasibility")
    if dual.objective() != mechanism.revenue(instance):
        raise CertificateError("duality gap nonzero")
    return _Proof(instance, mechanism, slacks, dual)


def write_certificate(path, document: dict) -> None:
    """Write the document as indented JSON with sorted keys, rendered
    whole first, so that the file takes one write."""
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load_certificate(path) -> dict:
    return read_json(path, LabelMismatch)
