"""Builders for the four auction programs and certificate round-trips.

Column and row labels carry the full index of every variable and
constraint, so certificates map back to mechanisms and dual solutions
by label instead of positional bookkeeping.

Label grammar (profile keys are support indices joined by ".", or "_"
for the empty opponent profile of a single buyer):

    primal columns   x:<i>:<j>:<vkey>     p:<i>:<vkey>
    ds rows          ic:<i>:<vkey>:<t'>   ir:<i>:<vkey>   sup:<j>:<vkey>
    bayes rows       ic:<i>:<t>:<t'>      ir:<i>:<t>      sup:<j>:<vkey>
    dual ds columns  zeta:<i>:<t>:<t'>:<skey>  eta:<i>:<vkey>  xi:<j>:<vkey>
    dual bayes cols  zeta:<i>:<t>:<t'>         eta:<i>:<t>     xi:<j>:<vkey>
    dual rows        dx:<i>:<j>:<vkey>    dp:<i>:<vkey>
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InfeasibleInput, LabelMismatch, NotOptimal, NotRational
from .lp import (
    DANTZIG,
    OPTIMAL,
    LinearProgram,
    LpCertificate,
    MAX,
    MIN,
    make_lp,
    recheck_certificate,
    solve,
)
from .model import (
    BAYES,
    DS,
    DualSolutionBayes,
    DualSolutionDS,
    Instance,
    Mechanism,
    bayes_dual_from_multipliers,
    ds_dual_from_multipliers,
    mechanism_feasible,
    rat,
    rat_str,
)

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
    "parse_profile_key",
]


def profile_key(profile) -> str:
    return ".".join(str(t) for t in profile) if profile else "_"


def parse_profile_key(key: str) -> tuple[int, ...]:
    if key == "_":
        return ()
    return tuple(int(part) for part in key.split("."))


# ---------------------------------------------------------------------------
# Primal builders


def _primal_columns(instance: Instance):
    """Column labels with x block first, then p block; payment columns
    carry the objective weight mu(v)."""
    labels = []
    objective = []
    ranked = list(instance.profiles())
    for i in range(instance.n):
        for j in range(instance.m):
            for profile in ranked:
                labels.append(f"x:{i}:{j}:{profile_key(profile)}")
                objective.append(Fraction(0))
    for i in range(instance.n):
        for profile in ranked:
            labels.append(f"p:{i}:{profile_key(profile)}")
            objective.append(instance.mu(profile))
    return labels, objective, ranked


def _xcol(instance: Instance, i: int, j: int, r: int) -> int:
    return (i * instance.m + j) * instance.profile_count + r


def _pcol(instance: Instance, i: int, r: int) -> int:
    return (instance.n * instance.m + i) * instance.profile_count + r


def _supply_rows(instance: Instance, ranked, rows, b, labels) -> None:
    for j in range(instance.m):
        for r, profile in enumerate(ranked):
            row = [(_xcol(instance, i, j, r), Fraction(1)) for i in range(instance.n)]
            rows.append(row)
            b.append(Fraction(1))
            labels.append(f"sup:{j}:{profile_key(profile)}")


def build_dslp(instance: Instance) -> LinearProgram:
    """max sum_v mu(v) sum_i p_i(v) subject to per-profile truthfulness
    (one row per buyer, profile, and deviation report), per-profile
    participation, and unit supply of each item at each profile."""
    col_labels, objective, ranked = _primal_columns(instance)
    rows, b, row_labels = [], [], []
    for i in range(instance.n):
        for r, profile in enumerate(ranked):
            vec = instance.value(i, profile[i])
            for t2 in range(instance.sizes[i]):
                if t2 == profile[i]:
                    continue
                lie = instance.insert(i, t2, instance.drop(i, profile))
                lr = instance.rank(lie)
                # u_i at the lie minus u_i at the truth <= 0
                row = []
                for j in range(instance.m):
                    if vec[j]:
                        row.append((_xcol(instance, i, j, lr), vec[j]))
                        row.append((_xcol(instance, i, j, r), -vec[j]))
                row.append((_pcol(instance, i, lr), Fraction(-1)))
                row.append((_pcol(instance, i, r), Fraction(1)))
                rows.append(row)
                b.append(Fraction(0))
                row_labels.append(f"ic:{i}:{profile_key(profile)}:{t2}")
    for i in range(instance.n):
        for r, profile in enumerate(ranked):
            vec = instance.value(i, profile[i])
            row = [
                (_xcol(instance, i, j, r), -vec[j])
                for j in range(instance.m)
                if vec[j]
            ]
            row.append((_pcol(instance, i, r), Fraction(1)))
            rows.append(row)
            b.append(Fraction(0))
            row_labels.append(f"ir:{i}:{profile_key(profile)}")
    _supply_rows(instance, ranked, rows, b, row_labels)
    return make_lp(MAX, objective, rows, b, row_labels, col_labels)


def build_blp(instance: Instance) -> LinearProgram:
    """Same variables as build_dslp; truthfulness and participation rows
    are weighted by mu_{-i} and indexed by own type only."""
    col_labels, objective, ranked = _primal_columns(instance)
    rows, b, row_labels = [], [], []
    for i in range(instance.n):
        slices = [
            (vm, instance.mu_minus(i, vm)) for vm in instance.others_profiles(i)
        ]
        for t in range(instance.sizes[i]):
            vec = instance.value(i, t)
            for t2 in range(instance.sizes[i]):
                if t2 == t:
                    continue
                row = []
                for vm, w in slices:
                    if not w:
                        continue
                    r = instance.rank(instance.insert(i, t, vm))
                    lr = instance.rank(instance.insert(i, t2, vm))
                    for j in range(instance.m):
                        if vec[j]:
                            row.append((_xcol(instance, i, j, lr), w * vec[j]))
                            row.append((_xcol(instance, i, j, r), -w * vec[j]))
                    row.append((_pcol(instance, i, lr), -w))
                    row.append((_pcol(instance, i, r), w))
                rows.append(row)
                b.append(Fraction(0))
                row_labels.append(f"ic:{i}:{t}:{t2}")
        for t in range(instance.sizes[i]):
            vec = instance.value(i, t)
            row = []
            for vm, w in slices:
                if not w:
                    continue
                r = instance.rank(instance.insert(i, t, vm))
                for j in range(instance.m):
                    if vec[j]:
                        row.append((_xcol(instance, i, j, r), -w * vec[j]))
                row.append((_pcol(instance, i, r), w))
            rows.append(row)
            b.append(Fraction(0))
            row_labels.append(f"ir:{i}:{t}")
    _supply_rows(instance, ranked, rows, b, row_labels)
    return make_lp(MAX, objective, rows, b, row_labels, col_labels)


# ---------------------------------------------------------------------------
# Explicit dual builders

Key = tuple


def _ds_dual_columns(instance: Instance):
    """zeta block (i, t, t', opponent slice), then eta (i, profile),
    then xi (j, profile).  Returns labels plus index maps."""
    labels = []
    zcol: dict[Key, int] = {}
    ecol: dict[Key, int] = {}
    xcol: dict[Key, int] = {}
    for i in range(instance.n):
        slices = list(instance.others_profiles(i))
        for t in range(instance.sizes[i]):
            for t2 in range(instance.sizes[i]):
                if t2 == t:
                    continue
                for s, vm in enumerate(slices):
                    zcol[(i, t, t2, s)] = len(labels)
                    labels.append(f"zeta:{i}:{t}:{t2}:{profile_key(vm)}")
    for i in range(instance.n):
        for profile in instance.profiles():
            ecol[(i, instance.rank(profile))] = len(labels)
            labels.append(f"eta:{i}:{profile_key(profile)}")
    for j in range(instance.m):
        for profile in instance.profiles():
            xcol[(j, instance.rank(profile))] = len(labels)
            labels.append(f"xi:{j}:{profile_key(profile)}")
    return labels, zcol, ecol, xcol


def build_dual_dslp(instance: Instance) -> LinearProgram:
    """min sum xi, one row per primal variable: the expected-virtual-value
    bound per x_i^j(v) and the payment-weight bound per p_i(v)."""
    col_labels, zcol, ecol, xcol = _ds_dual_columns(instance)
    objective = [Fraction(0)] * len(col_labels)
    for idx in xcol.values():
        objective[idx] = Fraction(1)
    rows, b, row_labels = [], [], []
    ranked = list(instance.profiles())
    for i in range(instance.n):
        for j in range(instance.m):
            for r, profile in enumerate(ranked):
                t = profile[i]
                s = instance.others_rank(i, instance.drop(i, profile))
                vt = instance.value(i, t)[j]
                # phi_i^j(v) - xi^j(v) <= 0
                row = []
                if vt:
                    row.append((ecol[(i, r)], vt))
                for t2 in range(instance.sizes[i]):
                    if t2 == t:
                        continue
                    if vt:
                        row.append((zcol[(i, t, t2, s)], vt))
                    v2 = instance.value(i, t2)[j]
                    if v2:
                        row.append((zcol[(i, t2, t, s)], -v2))
                row.append((xcol[(j, r)], Fraction(-1)))
                rows.append(row)
                b.append(Fraction(0))
                row_labels.append(f"dx:{i}:{j}:{profile_key(profile)}")
    for i in range(instance.n):
        for r, profile in enumerate(ranked):
            t = profile[i]
            s = instance.others_rank(i, instance.drop(i, profile))
            # -psi_i(v) <= -mu(v)
            row = [(ecol[(i, r)], Fraction(-1))]
            for t2 in range(instance.sizes[i]):
                if t2 == t:
                    continue
                row.append((zcol[(i, t, t2, s)], Fraction(-1)))
                row.append((zcol[(i, t2, t, s)], Fraction(1)))
            rows.append(row)
            b.append(-instance.mu(profile))
            row_labels.append(f"dp:{i}:{profile_key(profile)}")
    return make_lp(MIN, objective, rows, b, row_labels, col_labels)


def _bayes_dual_columns(instance: Instance):
    labels = []
    zcol: dict[Key, int] = {}
    ecol: dict[Key, int] = {}
    xcol: dict[Key, int] = {}
    for i in range(instance.n):
        for t in range(instance.sizes[i]):
            for t2 in range(instance.sizes[i]):
                if t2 == t:
                    continue
                zcol[(i, t, t2)] = len(labels)
                labels.append(f"zeta:{i}:{t}:{t2}")
    for i in range(instance.n):
        for t in range(instance.sizes[i]):
            ecol[(i, t)] = len(labels)
            labels.append(f"eta:{i}:{t}")
    for j in range(instance.m):
        for profile in instance.profiles():
            xcol[(j, instance.rank(profile))] = len(labels)
            labels.append(f"xi:{j}:{profile_key(profile)}")
    return labels, zcol, ecol, xcol


def build_dual_blp(instance: Instance) -> LinearProgram:
    col_labels, zcol, ecol, xcol = _bayes_dual_columns(instance)
    objective = [Fraction(0)] * len(col_labels)
    for idx in xcol.values():
        objective[idx] = Fraction(1)
    rows, b, row_labels = [], [], []
    ranked = list(instance.profiles())
    for i in range(instance.n):
        for j in range(instance.m):
            for r, profile in enumerate(ranked):
                t = profile[i]
                w = instance.mu_minus(i, instance.drop(i, profile))
                vt = instance.value(i, t)[j]
                # mu_{-i}(v_{-i}) phibar_i^j(v_i) - xi^j(v) <= 0
                row = []
                if w and vt:
                    row.append((ecol[(i, t)], w * vt))
                for t2 in range(instance.sizes[i]):
                    if t2 == t:
                        continue
                    if w and vt:
                        row.append((zcol[(i, t, t2)], w * vt))
                    v2 = instance.value(i, t2)[j]
                    if w and v2:
                        row.append((zcol[(i, t2, t)], -w * v2))
                row.append((xcol[(j, r)], Fraction(-1)))
                rows.append(row)
                b.append(Fraction(0))
                row_labels.append(f"dx:{i}:{j}:{profile_key(profile)}")
    for i in range(instance.n):
        for r, profile in enumerate(ranked):
            t = profile[i]
            w = instance.mu_minus(i, instance.drop(i, profile))
            row = []
            if w:
                row.append((ecol[(i, t)], -w))
                for t2 in range(instance.sizes[i]):
                    if t2 == t:
                        continue
                    row.append((zcol[(i, t, t2)], -w))
                    row.append((zcol[(i, t2, t)], w))
            rows.append(row)
            b.append(-instance.mu(profile))
            row_labels.append(f"dp:{i}:{profile_key(profile)}")
    return make_lp(MIN, objective, rows, b, row_labels, col_labels)


# ---------------------------------------------------------------------------
# Certificate extraction


def _require_optimal(certificate: LpCertificate) -> None:
    if certificate.status != OPTIMAL:
        raise NotOptimal(f"certificate status is {certificate.status}")


def extract_mechanism(
    instance: Instance, certificate: LpCertificate, form: str
) -> Mechanism:
    """Read the allocation and payments out of a primal certificate
    produced from build_dslp or build_blp."""
    _require_optimal(certificate)
    expected, _, _ = _primal_columns(instance)
    if list(certificate.col_labels) != expected:
        raise LabelMismatch("certificate columns do not match the primal builder")
    x = certificate.primal
    count = instance.profile_count
    alloc = tuple(
        tuple(
            tuple(x[_xcol(instance, i, j, r)] for j in range(instance.m))
            for i in range(instance.n)
        )
        for r in range(count)
    )
    pay = tuple(
        tuple(x[_pcol(instance, i, r)] for i in range(instance.n))
        for r in range(count)
    )
    mechanism = Mechanism(form=form, alloc=alloc, pay=pay)
    if not mechanism_feasible(instance, mechanism):
        raise InfeasibleInput("extracted mechanism violates feasibility")
    return mechanism


def _group_values(labels, values, prefix):
    out = {}
    for label, value in zip(labels, values):
        parts = label.split(":")
        if parts[0] == prefix:
            out[tuple(parts[1:])] = value
    return out


def extract_dual(instance: Instance, certificate: LpCertificate, form: str):
    """Assemble a dual solution from either side: the row multipliers of
    a primal certificate, or the primal point of an explicit-dual
    certificate.  The source is detected from the label scheme."""
    _require_optimal(certificate)
    first = certificate.col_labels[0].split(":")[0] if certificate.col_labels else ""
    if first in ("x", "p"):
        labels = certificate.row_labels
        values = certificate.dual
        source = "rows"
    elif first == "zeta":
        labels = certificate.col_labels
        values = certificate.primal
        source = "cols"
    else:
        raise LabelMismatch("certificate labels match no known builder")

    if form == DS:
        expected = (
            build_dslp(instance).row_labels
            if source == "rows"
            else _ds_dual_columns(instance)[0]
        )
    elif form == BAYES:
        expected = (
            build_blp(instance).row_labels
            if source == "rows"
            else _bayes_dual_columns(instance)[0]
        )
    else:
        raise ValueError(f"unknown form {form!r}")
    if list(labels) != list(expected):
        raise LabelMismatch(f"certificate labels do not match the {form} builders")

    ics = _group_values(labels, values, "ic" if source == "rows" else "zeta")
    irs = _group_values(labels, values, "ir" if source == "rows" else "eta")
    sups = _group_values(labels, values, "sup" if source == "rows" else "xi")

    xi = tuple(
        tuple(
            sups[(str(j), profile_key(profile))]
            for profile in instance.profiles()
        )
        for j in range(instance.m)
    )
    if form == DS:
        zeta = tuple(
            tuple(
                tuple(
                    tuple(
                        Fraction(0)
                        if t2 == t
                        else (
                            ics[
                                (
                                    str(i),
                                    profile_key(instance.insert(i, t, vm)),
                                    str(t2),
                                )
                            ]
                            if source == "rows"
                            else ics[(str(i), str(t), str(t2), profile_key(vm))]
                        )
                        for vm in instance.others_profiles(i)
                    )
                    for t2 in range(instance.sizes[i])
                )
                for t in range(instance.sizes[i])
            )
            for i in range(instance.n)
        )
        eta = tuple(
            tuple(
                irs[(str(i), profile_key(profile))]
                for profile in instance.profiles()
            )
            for i in range(instance.n)
        )
        dual = ds_dual_from_multipliers(instance, zeta, eta, xi)
    else:
        zeta = tuple(
            tuple(
                tuple(
                    Fraction(0) if t2 == t else ics[(str(i), str(t), str(t2))]
                    for t2 in range(instance.sizes[i])
                )
                for t in range(instance.sizes[i])
            )
            for i in range(instance.n)
        )
        eta = tuple(
            tuple(irs[(str(i), str(t))] for t in range(instance.sizes[i]))
            for i in range(instance.n)
        )
        dual = bayes_dual_from_multipliers(instance, zeta, eta, xi)
    if not dual.is_feasible():
        raise InfeasibleInput("extracted dual violates feasibility")
    return dual


# ---------------------------------------------------------------------------
# Optimal revenues


def solve_form(instance: Instance, form: str) -> LpCertificate:
    """Solve the primal program of the given form to optimality."""
    lp = build_dslp(instance) if form == DS else build_blp(instance)
    certificate = solve(lp, rule=DANTZIG)
    _require_optimal(certificate)
    return certificate


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


def _best_response(instance, mechanism, i, vec, vm) -> int:
    """Support report maximizing vec's utility against opponents vm;
    ties go to the lowest support index."""
    best, best_u = 0, None
    for t in range(instance.sizes[i]):
        profile = instance.insert(i, t, vm)
        r = instance.rank(profile)
        u = sum(
            (vec[j] * mechanism.alloc[r][i][j] for j in range(instance.m)),
            Fraction(0),
        ) - mechanism.pay[r][i]
        if best_u is None or u > best_u:
            best, best_u = t, u
    return best


def extend_ds(instance: Instance, mechanism: Mechanism, query):
    """Evaluate the support mechanism at an arbitrary value profile.

    On support the rows are returned unchanged.  With exactly one buyer
    off support, that buyer best-responds over its support against the
    others' reports and receives that row; the remaining buyers are
    held at the zero type, which gets nothing and pays nothing.  With
    two or more buyers off support every buyer is held at the zero
    type.  The returned pair is (allocation rows, payment row).
    """
    query = tuple(tuple(rat(c) for c in vec) for vec in query)
    members = [_member_index(instance, i, vec) for i, vec in enumerate(query)]
    off = [i for i, t in enumerate(members) if t is None]
    zero_alloc = tuple(Fraction(0) for _ in range(instance.m))
    if not off:
        profile = tuple(members)
        r = instance.rank(profile)
        return mechanism.alloc[r], mechanism.pay[r]
    if len(off) == 1:
        d = off[0]
        vm = tuple(t for i, t in enumerate(members) if i != d)
        t_star = _best_response(instance, mechanism, d, query[d], vm)
        r = instance.rank(instance.insert(d, t_star, vm))
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
    query = tuple(tuple(rat(c) for c in vec) for vec in query)
    alloc_rows, pay_row = [], []
    for i, vec in enumerate(query):
        t = _member_index(instance, i, vec)
        if t is None:
            t = _interim_best_response(instance, mechanism, i, vec)
        alloc = [Fraction(0)] * instance.m
        pay = Fraction(0)
        for vm in instance.others_profiles(i):
            w = instance.mu_minus(i, vm)
            if not w:
                continue
            r = instance.rank(instance.insert(i, t, vm))
            for j in range(instance.m):
                alloc[j] += w * mechanism.alloc[r][i][j]
            pay += w * mechanism.pay[r][i]
        alloc_rows.append(tuple(alloc))
        pay_row.append(pay)
    return tuple(alloc_rows), tuple(pay_row)


def _interim_best_response(instance, mechanism, i, vec) -> int:
    best, best_u = 0, None
    for t in range(instance.sizes[i]):
        u = Fraction(0)
        for vm in instance.others_profiles(i):
            w = instance.mu_minus(i, vm)
            if not w:
                continue
            r = instance.rank(instance.insert(i, t, vm))
            u += w * (
                sum(
                    (vec[j] * mechanism.alloc[r][i][j] for j in range(instance.m)),
                    Fraction(0),
                )
                - mechanism.pay[r][i]
            )
        if best_u is None or u > best_u:
            best, best_u = t, u
    return best


# ---------------------------------------------------------------------------
# Certificate documents


def certificate_document(instance: Instance, form: str, certificate) -> dict:
    """Self-contained record of an optimal primal solve: objective,
    nonzero primal and dual entries by label, and the complementary
    slackness ledger (all zeros at an optimum)."""
    from .virtual import check_cs_bayes, check_cs_ds

    _require_optimal(certificate)
    mechanism = extract_mechanism(instance, certificate, form)
    dual = extract_dual(instance, certificate, form)
    check = check_cs_ds if form == DS else check_cs_bayes
    ledger = check(instance, mechanism, dual)
    return {
        "kind": "auctionlp.certificate",
        "version": 1,
        "digest": instance.digest(),
        "form": form,
        "objective": rat_str(certificate.objective),
        "primal": {
            label: rat_str(value)
            for label, value in zip(certificate.col_labels, certificate.primal)
            if value
        },
        "dual": {
            label: rat_str(value)
            for label, value in zip(certificate.row_labels, certificate.dual)
            if value
        },
        "ledger": {
            "ic": rat_str(ledger.ic),
            "ir": rat_str(ledger.ir),
            "supply": rat_str(ledger.supply),
            "alloc": rat_str(ledger.alloc),
            "pay": rat_str(ledger.pay),
            "gap": rat_str(ledger.gap),
        },
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
    """Re-verify a stored certificate against the instance: rebuild the
    program, reconstruct the full vectors, and recheck optimality and
    the ledger.  Returns the verified objective.  A document of the
    wrong shape raises LabelMismatch."""
    if not isinstance(document, dict) or document.get("kind") != "auctionlp.certificate":
        raise LabelMismatch("not a certificate document")
    if document.get("digest") != instance.digest():
        raise LabelMismatch("certificate digest does not match the instance")
    form = document.get("form")
    lp = build_dslp(instance) if form == DS else build_blp(instance)
    primal_map = _document_section(document, "primal")
    dual_map = _document_section(document, "dual")
    unknown = set(primal_map) - set(lp.col_labels)
    unknown |= set(dual_map) - set(lp.row_labels)
    if unknown:
        raise LabelMismatch(f"unknown labels: {sorted(unknown)[:3]}")
    x = tuple(primal_map.get(label, Fraction(0)) for label in lp.col_labels)
    y = tuple(dual_map.get(label, Fraction(0)) for label in lp.row_labels)
    try:
        objective = rat(document.get("objective"))
    except NotRational as exc:
        raise LabelMismatch(f"certificate objective: {exc}") from None
    recheck_certificate(
        lp,
        LpCertificate(
            status=OPTIMAL,
            col_labels=lp.col_labels,
            row_labels=lp.row_labels,
            primal=x,
            dual=y,
            objective=objective,
        ),
    )
    if any(_document_section(document, "ledger").values()):
        raise InfeasibleInput("stored ledger is not all zeros")
    return objective


def write_certificate(path, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_certificate(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
