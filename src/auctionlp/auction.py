"""Builders for the four auction programs and certificate round-trips.

A ProgramLayout holds the structure of a primal program: where each
variable and constraint sits.  One builder serves both forms: each
opponent slice adds its scaled dominant-strategy rows into the rows of
its keys (see model.multiplier_keys), at the layout's indices, and
extraction reads certificate values back at the same indices.  Every
program and certificate carries the layout it was built with.  A dual
program is the transpose of its primal (dual_of), so its columns and
rows keep the primal's indices.

Labels are only a rendering of the layout, used to name components in
certificate documents; programs and certificates hold none.  Their
grammar (profile keys are support indices joined by "."):

    columns     x:<i>:<j>:<vkey>     p:<i>:<vkey>
    ds rows     ic:<i>:<vkey>:<t'>   ir:<i>:<vkey>   sup:<j>:<vkey>
    bayes rows  ic:<i>:<t>:<t'>      ir:<i>:<t>      sup:<j>:<vkey>

row_label and col_label render one index; index_of reads a label back
and accepts the index only if it renders to the same label.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_right
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import add

from .errors import (
    DimensionMismatch,
    InfeasibleInput,
    LabelMismatch,
    NotRational,
    echo,
)
from .lp import (
    CertificateError,
    LinearProgram,
    LpCertificate,
    MAX,
    dual_of,
    make_lp,
    recheck_certificate,
    solve,
)
from .model import (
    BAYES,
    DS,
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
    read_json,
)
from .virtual import GapLedger, check_cs_bayes, check_cs_ds

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
    "extend_ds",
    "extend_bayes",
    "certificate_document",
    "verify_certificate_document",
    "profile_key",
]


def profile_key(profile) -> str:
    return ".".join(str(t) for t in profile) if profile else "_"


# ---------------------------------------------------------------------------
# Program layout

PRIMAL = "primal"
DUAL = "dual"


@dataclass(frozen=True)
class ProgramLayout:
    """Index arithmetic of one auction program.

    form is DS or BAYES; m and sizes are the instance's item count and
    support sizes.  Profiles r and opponent slices s are numbered by
    rank, as in Instance.

    x and p index the variables x_i^j(v) and p_i(v), the primal's
    columns.  zeta, eta and xi index the multipliers of its ic, ir and
    sup rows.  zeta and eta take the multiplier key, as in
    DualSolution: the profile rank in the dominant-strategy form, the
    own type in the Bayesian form (see model.multiplier_keys).

    side only marks which certificate vector holds the multipliers: the
    dual vector of a primal program (PRIMAL), or the primal point of its
    transpose (DUAL), whose columns are the primal's rows.
    """

    form: str
    side: str
    m: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        if self.form not in (DS, BAYES) or self.side not in (PRIMAL, DUAL):
            raise ValueError(f"unknown program {self.form!r}/{self.side!r}")

    @cached_property
    def count(self) -> int:
        return prod(self.sizes)

    @cached_property
    def _blocks(self):
        """Where each buyer's zeta and eta multipliers start, and where
        xi starts.  All zeta blocks come first, then all eta blocks,
        except that the Bayesian program puts each buyer's ir rows right
        after its ic rows."""
        etas = [self.count if self.form == DS else k for k in self.sizes]
        zetas = [e * (k - 1) for e, k in zip(etas, self.sizes)]
        if self.form == BAYES:
            at = list(itertools.accumulate(map(add, zetas, etas), initial=0))
            return at[:-1], [a + z for a, z in zip(at, zetas)], at[-1]
        zeta = list(itertools.accumulate(zetas, initial=0))
        eta = list(itertools.accumulate(etas, initial=zeta[-1]))
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
        """Each profile, and its key in the label grammar, by rank."""
        profiles = list(itertools.product(*map(range, self.sizes)))
        return profiles, [profile_key(v) for v in profiles]

    @cached_property
    def _row_blocks(self) -> tuple[list[int], list[tuple[int, int]]]:
        """The first row of each buyer's ic and of its ir block, in row
        order, and each block's (buyer, reports per key): k - 1 for ic,
        0 for ir.  An empty ic block sorts before the block it shares
        its first row with."""
        zeta, eta, _ = self._blocks
        blocks = sorted(
            [(z, 0, i, k - 1) for i, (z, k) in enumerate(zip(zeta, self.sizes))]
            + [(e, 1, i, 0) for i, e in enumerate(eta)]
        )
        return [b[0] for b in blocks], [b[2:] for b in blocks]

    def row_label(self, r: int) -> str:
        """The label of primal row r, the inverse of zeta, eta and xi."""
        profiles, names = self._names
        starts, blocks = self._row_blocks
        xi = self._blocks[2]
        if r >= xi:
            j, rank = divmod(r - xi, self.count)
            return f"sup:{j}:{names[rank]}"
        b = bisect_right(starts, r) - 1
        i, lies = blocks[b]
        key, lie = divmod(r - starts[b], lies) if lies else (r - starts[b], None)
        name, t = (names[key], profiles[key][i]) if self.form == DS else (key, key)
        if lie is None:
            return f"ir:{i}:{name}"
        return f"ic:{i}:{name}:{lie + (lie >= t)}"

    def col_label(self, c: int) -> str:
        """The label of primal column c, the inverse of x and p."""
        block, rank = divmod(c, self.count)
        name = self._names[1][rank]
        xs = len(self.sizes) * self.m
        if block < xs:
            i, j = divmod(block, self.m)
            return f"x:{i}:{j}:{name}"
        return f"p:{block - xs}:{name}"

    def _rank(self, name: str) -> int:
        """The rank of the profile a label names; loose, as _read is."""
        r = 0
        for k, t in zip(self.sizes, name.split(".")):
            r = r * k + int(t)
        return r

    def _read(self, label: str, row: bool) -> int:
        """The index a row (or column) label's fields point to, read
        loosely: a malformed field raises ValueError or IndexError, and a
        field out of range may point anywhere."""
        kind, *fields = label.split(":")
        shape = (kind, len(fields))
        if row and shape == ("sup", 2):
            return self.xi(int(fields[0]), self._rank(fields[1]))
        if row and shape in (("ir", 2), ("ic", 3)):
            i = int(fields[0])
            if self.form == DS:
                key, t = self._rank(fields[1]), int(fields[1].split(".")[i])
            else:
                key = t = int(fields[1])
            return self.eta(i, key) if kind == "ir" else self.zeta(i, key, t, int(fields[2]))
        if not row and shape == ("x", 3):
            return self.x(int(fields[0]), int(fields[1]), self._rank(fields[2]))
        if not row and shape == ("p", 2):
            return self.p(int(fields[0]), self._rank(fields[1]))
        raise ValueError(label)

    def index_of(self, label: str, row: bool) -> int | None:
        """The row (row true) or column that row_label or col_label
        renders as label, or None.  The label is read loosely and the
        index accepted only if it renders back to the same label."""
        try:
            index = self._read(label, row)
        except (ValueError, IndexError):
            return None
        bound, render = (self.shape[0], self.row_label) if row else (self.shape[1], self.col_label)
        return index if 0 <= index < bound and render(index) == label else None


def _layout(instance: Instance, form: str, side: str) -> ProgramLayout:
    return ProgramLayout(form, side, instance.m, instance.sizes)


# ---------------------------------------------------------------------------
# Primal builders


def _build_primal(instance: Instance, form: str) -> LinearProgram:
    """max sum_v mu(v) sum_i p_i(v) subject to truthfulness (one row per
    buyer, key and deviation report), participation (one row per buyer
    and key), and unit supply of each item at each profile.

    Keys are profile ranks (DS) or own types (BAYES); see
    multiplier_keys.  Each opponent slice of nonzero scale appends its
    scaled dominant-strategy rows to the rows of its keys.

    The layout's x and p are linear in the rank (x(i, j, r) is
    x(i, j, 0) + r), and the k - 1 ic rows of one key are contiguous, in
    report order; so each buyer's columns are offsets from its rank-0
    columns, and each (slice, type) scales and negates its values once
    for all of its reports."""
    layout = _layout(instance, form, PRIMAL)
    n, m, count = instance.n, instance.m, instance.profile_count
    nrows, ncols = layout.shape
    zero, one = Fraction(0), Fraction(1)
    mu = instance.mu_scaled.fractions()
    c = [zero] * ncols
    rows = [[] for _ in range(nrows)]
    b = [zero] * nrows
    for i in range(n):
        p_i = layout.p(i, 0)
        c[p_i:p_i + count] = mu
    for j in range(m):
        xs = [layout.x(i, j, 0) for i in range(n)]
        xi_j = layout.xi(j, 0)
        for r in range(count):
            rows[xi_j + r] = [(x + r, one) for x in xs]
        b[xi_j:xi_j + count] = [one] * count
    for i, (k, supports) in enumerate(zip(instance.sizes, instance.supports)):
        keys = multiplier_keys(instance, form, i)
        scales, den = keys.scales
        xs = [layout.x(i, j, 0) for j in range(m)]
        p_i = layout.p(i, 0)
        for w, family, ranks in zip(scales, keys.families, instance.ranks[i]):
            if not w:
                continue
            w = one if w == den else Fraction(w, den)
            neg = -w
            for t, r in enumerate(ranks):
                vec = supports[t] if w == 1 else [w * v for v in supports[t]]
                terms = [(x, v) for x, v in zip(xs, vec) if v]
                truth = [(x + r, -v) for x, v in terms]
                pay = (p_i + r, w)
                # u_i at the lie minus u_i at the truth <= 0, one ic row
                # per report t2 != t, starting at the key's first lie
                first = layout.zeta(i, family[t], t, int(t == 0))
                lies = ranks[:t] + ranks[t + 1:]
                for row, lr in zip(rows[first:first + k - 1], lies):
                    for (x, v), at_truth in zip(terms, truth):
                        row += ((x + lr, v), at_truth)
                    row += ((p_i + lr, neg), pay)
                row = rows[layout.eta(i, family[t])]  # ir
                row += truth
                row.append(pay)
    return make_lp(MAX, c, rows, b, layout)


def build_dslp(instance: Instance) -> LinearProgram:
    """The dominant-strategy primal: one ic and ir row per profile."""
    return _build_primal(instance, DS)


def build_blp(instance: Instance) -> LinearProgram:
    """The Bayesian primal: one ic and ir row per own type, weighted by
    the opponent mass mu_{-i}."""
    return _build_primal(instance, BAYES)


# ---------------------------------------------------------------------------
# Dual programs


def _transposed(primal: LinearProgram) -> LinearProgram:
    """dual_of the primal, carrying the primal's layout marked DUAL."""
    return replace(dual_of(primal), layout=replace(primal.layout, side=DUAL))


def build_dual_dslp(instance: Instance) -> LinearProgram:
    """min sum xi, one row per primal variable: the expected-virtual-value
    bound per x_i^j(v) and the payment-weight bound per p_i(v).  The
    transpose of build_dslp."""
    return _transposed(build_dslp(instance))


def build_dual_blp(instance: Instance) -> LinearProgram:
    """The transpose of build_blp."""
    return _transposed(build_blp(instance))


# ---------------------------------------------------------------------------
# Certificate extraction


def extract_mechanism(
    instance: Instance, certificate: LpCertificate, form: str
) -> Mechanism:
    """Read the allocation and payments out of a primal certificate
    produced from build_dslp or build_blp."""
    return _checked_mechanism(instance, certificate, form)[0]


def _checked_mechanism(
    instance: Instance, certificate: LpCertificate, form: str
) -> tuple[Mechanism, PrimalSlacks]:
    """extract_mechanism, also returning the slacks its feasibility
    check evaluated."""
    layout = _layout(instance, form, PRIMAL)
    if certificate.layout != layout:
        raise LabelMismatch(f"certificate is not from the {form} primal builder")
    return _feasible_mechanism(instance, layout, *_scale(certificate.primal))


def _feasible_mechanism(
    instance: Instance, layout: ProgramLayout, nums, den: int
) -> tuple[Mechanism, PrimalSlacks]:
    """The mechanism that a primal vector of numerators over den stands
    for, and its slacks.  Raises InfeasibleInput unless the mechanism is
    feasible: x, p >= 0 and every ic, ir and sup row holds."""
    mechanism = Mechanism(layout.form, Scaled(_mechanism_entries(instance, layout, nums), den))
    slacks = mechanism_slacks(instance, mechanism)
    if not mechanism_feasible(instance, mechanism, slacks):
        raise InfeasibleInput("mechanism violates feasibility")
    return mechanism, slacks


def _mechanism_entries(instance: Instance, layout: ProgramLayout, vector):
    """(alloc, pay) read off a primal vector.  The layout's x and p are
    linear in the rank, so each (buyer, item) and each buyer's payments
    are one slice of the vector."""
    n, m, count = instance.n, instance.m, instance.profile_count
    per_buyer = [
        zip(*(vector[x : x + count] for x in (layout.x(i, j, 0) for j in range(m))))
        for i in range(n)
    ]
    pay = zip(*(vector[p : p + count] for p in (layout.p(i, 0) for i in range(n))))
    return tuple(zip(*per_buyer)), tuple(pay)


def extract_dual(instance: Instance, certificate: LpCertificate, form: str):
    """Assemble a dual solution from either side: the row multipliers of
    a primal certificate, or the primal point of a dual-program
    certificate.  The certificate's layout says which, and only that
    vector is put over a common denominator."""
    layout = certificate.layout
    if layout not in (_layout(instance, form, PRIMAL), _layout(instance, form, DUAL)):
        raise LabelMismatch(f"certificate is not from the {form} builders")
    vector = certificate.dual if layout.side == PRIMAL else certificate.primal
    return _feasible_dual(instance, layout, *_scale(vector))


def _feasible_dual(instance: Instance, layout: ProgramLayout, nums, den: int):
    """The dual solution that a vector of multiplier numerators over den
    stands for.  Raises InfeasibleInput unless it is feasible: zeta, eta,
    xi >= 0 and every dual column (alpha, beta) holds."""
    zeta, eta, xi = _multipliers(instance, layout.form, layout, nums)
    multipliers = [Scaled(pair, den) for pair in zip(zeta, eta)]
    dual = _dual_from_scaled(instance, layout.form, multipliers, Scaled(xi, den))
    if not dual.is_feasible():
        raise InfeasibleInput("dual violates feasibility")
    return dual


def _multipliers(instance: Instance, form: str, layout: ProgramLayout, values):
    """(zeta, eta, xi) read off a vector of multiplier numerators, 0 on
    zeta's diagonal.  A key's k - 1 ic rows are contiguous, in report order
    without its own type; its buyer's ir rows and each item's sup rows
    are contiguous in key and rank order."""
    count = instance.profile_count
    xi = tuple(values[x : x + count] for x in (layout.xi(j, 0) for j in range(instance.m)))
    zeta, eta = [], []
    for i, k in enumerate(instance.sizes):
        positions = multiplier_keys(instance, form, i).positions
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
    """Solve the primal program of the given form to optimality."""
    return solve(build_dslp(instance) if form == DS else build_blp(instance))


def drev(instance: Instance) -> Fraction:
    """Optimal revenue over dominant-strategy implementations."""
    return solve_form(instance, DS).objective


def brev(instance: Instance) -> Fraction:
    """Optimal revenue over Bayesian implementations."""
    return solve_form(instance, BAYES).objective


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
        rows = _key_rows(instance, alloc, pay, i, scales.nums, range(len(scales.nums)))
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
    slackness ledger (all zeros at an optimum)."""
    mechanism, slacks = _checked_mechanism(instance, certificate, form)
    dual = extract_dual(instance, certificate, form)
    check = check_cs_ds if form == DS else check_cs_bayes
    ledger = check(instance, mechanism, dual, slacks=slacks)
    layout = certificate.layout
    return {
        "kind": "auctionlp.certificate",
        "version": 1,
        "digest": instance.digest(),
        "form": form,
        "objective": rat_str(certificate.objective),
        "primal": {
            layout.col_label(c): rat_str(value)
            for c, value in enumerate(certificate.primal)
            if value
        },
        "dual": {
            layout.row_label(r): rat_str(value)
            for r, value in enumerate(certificate.dual)
            if value
        },
        "ledger": {key: rat_str(getattr(ledger, key)) for key in _LEDGER_KEYS},
    }


def _document_section(document: dict, key: str) -> dict[str, Fraction]:
    """A certificate section mapping labels to rationals."""
    section = document.get(key)
    if not isinstance(section, dict):
        raise LabelMismatch(f"certificate {key} is not a map of labels to rationals")
    try:
        return {label: rat(value) for label, value in section.items()}
    except NotRational as exc:
        raise LabelMismatch(f"certificate {key}: {exc}") from None


def verify_certificate_document(instance: Instance, document: dict) -> Fraction:
    """Re-prove a stored certificate against the instance, without
    trusting the solve that wrote it.  Returns the verified objective.
    A document of the wrong shape raises LabelMismatch, a nonzero stored
    ledger InfeasibleInput, and a certificate that is not optimal
    CertificateError.

    The labels are read to layout indices, and the proof runs on the
    model, with no program built (_reprove): the mechanism and the dual
    solution the entries stand for must be feasible, and the revenue,
    the stated objective and the dual objective equal.  A vector whose
    common denominator passes _COMMON_DENOMINATOR_BITS is rechecked on
    the program's rows and columns instead (recheck_certificate), where
    each grows its own denominator."""
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
    layout = _layout(instance, form, PRIMAL)
    primal = _document_section(document, "primal")
    dual = _document_section(document, "dual")
    ledger = _document_section(document, "ledger")
    if ledger.keys() != set(_LEDGER_KEYS):
        raise LabelMismatch(
            f"certificate ledger keys {echo(sorted(ledger))} are not {_LEDGER_KEYS}"
        )
    # (index, value) per entry: the primal's columns, the dual's rows
    entries = ([], [])
    unknown = []
    for found, section, row in zip(entries, (primal, dual), (False, True)):
        for label, value in section.items():
            index = layout.index_of(label, row)
            if index is None:
                unknown.append(label)
            else:
                found.append((index, value))
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
        lp = build_dslp(instance) if form == DS else build_blp(instance)
        x, y = ([Fraction(0)] * size for size in sizes)
        for vector, found in zip((x, y), entries):
            for index, value in found:
                vector[index] = value
        recheck_certificate(lp, LpCertificate(tuple(x), tuple(y), objective))
    else:
        _reprove(instance, layout, *vectors, objective)
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
    """A vector of size entries, zero but for the (index, value) pairs
    given, as integer numerators over one denominator, the lcm of
    theirs; None once that lcm passes _COMMON_DENOMINATOR_BITS bits."""
    factors = dict.fromkeys(value.denominator for _, value in entries)
    den = 1
    for q in factors:
        den = lcm(den, q)
        if den.bit_length() > _COMMON_DENOMINATOR_BITS:
            return None
    for q in factors:
        factors[q] = den // q
    nums = [0] * size
    for index, value in entries:
        nums[index] = value.numerator * factors[value.denominator]
    return Scaled(tuple(nums), den)


def _reprove(
    instance: Instance, layout: ProgramLayout, primal: Scaled, dual: Scaled, objective: Fraction
) -> None:
    """Prove that a primal point and its row multipliers, read through
    the layout, are optimal with the stated objective, or raise
    CertificateError: every entry is nonnegative, the mechanism the
    point stands for is feasible (_feasible_mechanism), so are the
    multipliers (_feasible_dual), and revenue = objective = dual
    objective, so that by weak duality both are optimal.  Between them
    the two model checks cover every primal row and every dual column
    of the program."""
    if min(primal.nums) < 0 or min(dual.nums) < 0:
        raise CertificateError("certificate entry negative")
    try:
        mechanism, _ = _feasible_mechanism(instance, layout, *primal)
        solution = _feasible_dual(instance, layout, *dual)
    except InfeasibleInput as exc:
        raise CertificateError(str(exc)) from None
    if mechanism.revenue(instance) != objective:
        raise CertificateError("objective mismatch")
    if solution.objective() != objective:
        raise CertificateError("duality gap nonzero")


def write_certificate(path, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_certificate(path) -> dict:
    return read_json(path, LabelMismatch)
