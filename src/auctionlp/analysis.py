"""Separate-selling revenue, the agent-independence check, and the
equivalence engine connecting Bayesian and dominant-strategy optima."""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from math import lcm
from typing import Iterator

from .auction import (
    _accepted,
    _proof,
    _raising_pairs,
    drev,
    solve_form,
    tight_downward_dual,
)
from .errors import CertificateError, DimensionMismatch, NotAgentIndependent, NotOptimal
from .model import (
    BAYES,
    DS,
    DualSolution,
    Instance,
    Mechanism,
    RevenueReport,
    Scaled,
    _dual_from_scaled,
    mechanism_slacks,
    rat_str,
    validate_instance,
)
from .oracles import gen_instance
from .virtual import (
    check_cs_ds,
    check_ubvv,
    regularize_bayes,
    regularize_ds,
    virtual_values_ds,
)

__all__ = [
    "srev",
    "item_revenue",
    "item_marginal",
    "canonical_flow",
    "myerson_mechanism",
    "face_excess",
    "tight_downward_dual",
    "check_agent_independence",
    "bic_to_dsic_dual",
    "dsic_to_bic_dual",
    "proved_certificate",
    "characterize",
    "is_iid",
    "revenue_record",
    "gen_records",
]


# ---------------------------------------------------------------------------
# Separate selling


def item_marginal(instance: Instance, j: int) -> Instance:
    """Single-item instance selling only coordinate j: per buyer, the
    marginal of that coordinate with masses summed over the others and
    values sorted ascending."""
    supports = []
    probs = []
    for i in range(instance.n):
        masses: dict[Fraction, Fraction] = {}
        for t in range(instance.sizes[i]):
            w = instance.value(i, t)[j]
            masses[w] = masses.get(w, Fraction(0)) + instance.mu_i(i, t)
        values = sorted(masses)
        supports.append([(w,) for w in values])
        probs.append([masses[w] for w in values])
    return validate_instance(
        {
            "buyers": instance.n,
            "items": 1,
            "supports": supports,
            "probs": probs,
        }
    )


def item_revenue(instance: Instance, j: int) -> Fraction:
    """Optimal revenue of selling item j alone, on its marginal: the
    dominant-strategy closed form (proved_certificate) when its checks
    accept it, else (ironing would change a positive virtual value) the
    marginal's dominant-strategy program."""
    marginal = item_marginal(instance, j)
    optimum = proved_certificate(marginal, DS)
    if optimum is not None:
        return optimum.objective
    return drev(marginal)


def srev(instance: Instance) -> Fraction:
    """Revenue of selling each item separately by its optimal
    single-item auction on the item's marginal distribution."""
    return sum((item_revenue(instance, j) for j in range(instance.m)), Fraction(0))


# ---------------------------------------------------------------------------
# Single-item closed forms


def _value_ladder(instance: Instance, i: int) -> tuple[list[int], list[int], int]:
    """Buyer i's types in ascending order of their single value, and
    the numerators of their values over their denominator."""
    vecs, den = instance.supports_scaled[i]
    values = [vec[0] for vec in vecs]
    return sorted(range(len(values)), key=values.__getitem__), values, den


def _ladder_flow(instance: Instance):
    """The canonical flow's Bayesian multipliers and its xi, read off
    each buyer's value ladder: per buyer, its (zeta, eta) over its mass
    denominator P, and xi over X.  The types in ascending value order
    send zeta(u, u - 1) = C_u, where C_u is the buyer's mass at or above
    u, and the lowest type carries eta = 1.  On an opponent slice of
    mass w, w times these are the flow's multipliers (canonical_flow),
    and the expected virtual value at u is then
    w * (C_u v_u - C_{u+1} v_{u+1}) = w * (f_u v_u - C_{u+1} (v_{u+1} - v_u)),
    mu(v) times the discrete Myerson virtual value; xi at each profile
    is the largest over the buyers, or 0.

    With buyer i's opponent masses over W and its values over V, its
    virtual values are over P * W * V, which xi holds over their lcm X."""
    if instance.m != 1:
        raise DimensionMismatch("the canonical flow is defined for one item")
    dens = [
        p.den * w.den * v.den
        for p, w, v in zip(
            instance.probs_scaled, instance.mu_minus_scaled, instance.supports_scaled
        )
    ]
    xi_den = lcm(*dens)
    xi = [0] * instance.profile_count
    multipliers = []
    for i, k in enumerate(instance.sizes):
        order, values, _ = _value_ladder(instance, i)
        probs, p_den = instance.probs_scaled[i]
        to_xi = xi_den // dens[i]
        # above[u]: the mass of the types from the u-th lowest up
        above = list(itertools.accumulate((probs[t] for t in reversed(order)), initial=0))[::-1]
        # value_above[u]: C_u v_u, 0 past the top
        value_above = [above[u] * values[t] for u, t in enumerate(order)] + [0]
        # drops[u]: f_u times the virtual value at u, so phi = w * drops[u]
        drops = [value_above[u] - value_above[u + 1] for u in range(k)]
        # (type, its drop over X) where the virtual value is positive
        positive = [(t, drop * to_xi) for t, drop in zip(order, drops) if drop > 0]
        for w, ranks in zip(instance.mu_minus_scaled[i].nums, instance.ranks[i]):
            if not w:
                continue
            for t, drop in positive:
                r = ranks[t]
                phi = w * drop
                if phi > xi[r]:
                    xi[r] = phi
        zeta, eta = [(0,) * k] * k, [0] * k
        eta[order[0]] = p_den
        for u in range(1, k):
            row = [0] * k
            row[order[u - 1]] = above[u]
            zeta[order[u]] = tuple(row)
        multipliers.append(Scaled((tuple(zeta), tuple(eta)), p_den))
    return multipliers, Scaled((tuple(xi),), xi_den)


def canonical_flow(instance: Instance) -> DualSolution:
    """The downward canonical flow of a single-item instance, unironed
    (Cai, Devanur and Weinberg 2016; discrete virtual values as in
    Elkind 2007): on each of buyer i's opponent slices, of mass w, w
    times the ladder multipliers of _ladder_flow, so that the lowest
    type carries eta = w, with its xi.  The dual's alpha and beta derive
    the virtual values again from the multipliers, so is_feasible()
    checks the construction.  The objective is E[max_i phi_i(v_i)^+];
    it is the optimal revenue unless ironing would change a positive
    virtual value.  The flow is the dominant-strategy spread of its
    Bayesian image (_flow_image), multiplier for multiplier."""
    multipliers, xi = _ladder_flow(instance)
    return _dual_from_scaled(instance, DS, _spread(instance, multipliers), xi)


def _flow_image(instance: Instance) -> DualSolution:
    """The canonical flow's Bayesian image: the ladder multipliers of
    _ladder_flow as a Bayesian dual, with the flow's xi.  It equals
    dsic_to_bic_dual of the flow, and bic_to_dsic_dual maps it back to
    the flow, without reading the flow."""
    multipliers, xi = _ladder_flow(instance)
    return _dual_from_scaled(instance, BAYES, multipliers, xi)


def myerson_mechanism(instance: Instance, dual: DualSolution) -> Mechanism:
    """The single-item auction a canonical flow, or its Bayesian image,
    prices; the two have the same alpha zeros.  At each profile
    where xi > 0 the item goes to the first buyer whose alpha is 0 there,
    one of highest virtual value.  Along each opponent slice's value
    ladder a buyer pays v_u x(u) minus the sum of (v_{u'+1} - v_{u'})
    x(u') over the lower types u', the threshold when the allocation
    rises along the ladder.  Allocations and payments are numerators
    over the lcm of the buyers' value denominators.  The caller checks
    feasibility."""
    n, count = instance.n, instance.profile_count
    nums = dual.scaled
    # each profile's alphas, one per buyer
    alphas = zip(*[scaled.nums[0] for scaled in nums.alpha])
    winner = [
        column.index(0) if x > 0 and 0 in column else None
        for x, column in zip(nums.xi.nums[0], alphas)
    ]
    ladders = [_value_ladder(instance, i) for i in range(n)]
    den = lcm(*(value_den for _, _, value_den in ladders))
    pay = [[0] * n for _ in range(count)]
    for i, (order, values, value_den) in enumerate(ladders):
        unit = den // value_den
        # (type, value over den) up the ladder
        ladder = [(t, values[t] * unit) for t in order]
        for ranks in instance.ranks[i]:
            paid = held = 0
            for t, value in ladder:
                r = ranks[t]
                x = winner[r] == i
                paid += value * (x - held)
                held = x
                pay[r][i] = paid
    # the allocation at a profile of each winner, or of none
    cells = {
        won: tuple((den,) if i == won else (0,) for i in range(n)) for won in (None, *range(n))
    }
    alloc = tuple([cells[won] for won in winner])
    return Mechanism(DS, Scaled((alloc, tuple(map(tuple, pay))), den))


def _myerson_auction(instance: Instance, dual: DualSolution, form: str):
    """The proof (auction._Proof) that Myerson's auction, priced off a
    single-item dual of the form, and the dual are an optimum of the
    form, as auction._accepted accepts it, or None where it refuses."""
    mechanism = Mechanism(form, myerson_mechanism(instance, dual).scaled)
    try:
        return _accepted(instance, mechanism, mechanism_slacks(instance, mechanism), dual)
    except CertificateError:
        return None


def proved_certificate(instance: Instance, form: str):
    """The form's optimum in closed form, as its proof (auction._Proof),
    or None: on one item, Myerson's auction priced off the canonical
    flow (dominant-strategy form) or off the flow's Bayesian image
    (Bayesian form, _flow_image; no flow is built), when the one
    acceptance of an optimum (auction._accepted) accepts the pair.  None
    on more items, or where it refuses (ironing would change a positive
    virtual value); the program answers then.  It is the one closed-form
    entry: solve, SRev and characterize read it.  certificate_document
    writes the proof as it writes a solve_form certificate, and the
    proof's objective is the optimum."""
    if instance.m != 1:
        return None
    dual = canonical_flow(instance) if form == DS else _flow_image(instance)
    return _myerson_auction(instance, dual, form)


# ---------------------------------------------------------------------------
# Dual selection


def face_excess(instance: Instance, dual: DualSolution) -> Fraction:
    """What tight_downward_dual minimizes, less the buyer count: total
    participation mass plus the mass on raising pairs, minus n."""
    nums = dual.scaled
    total = Fraction(-instance.n)
    for i, ((zeta, zeta_den), (eta, eta_den)) in enumerate(zip(nums.zeta, nums.eta)):
        raising = sum(
            zeta[ranks[t]][t2]
            for t, t2 in _raising_pairs(instance, i)
            for ranks in instance.ranks[i]
        )
        total += Fraction(sum(eta), eta_den) + Fraction(raising, zeta_den)
    return total


def _tight_dual(instance: Instance, report: RevenueReport):
    """A (dual, excess) pair minimizing the face program, from what
    characterize reported: its agent-independent witness, when there is
    one and three exact checks accept it (it is feasible, its objective
    is DRev, and its face_excess is 0).  Weak duality puts such a dual
    on the optimal face, where the excess is never below 0, so it is a
    minimizer, though not necessarily the vertex tight_downward_dual
    pins.  Otherwise the face program of the report's DS optimum
    answers."""
    dual = report.ai_witness
    if dual is not None and dual.is_feasible() and dual.objective() == report.drev:
        excess = face_excess(instance, dual)
        if excess == 0:
            return dual, excess
    return tight_downward_dual(instance, *report.ds_optimum)


# ---------------------------------------------------------------------------
# Agent independence


def _reference_slice(instance: Instance, i: int) -> int:
    for s, w in enumerate(instance.mu_minus_scaled[i].nums):
        if w > 0:
            return s
    raise AssertionError("opponent masses cannot all vanish")


def _slice_mismatch(instance: Instance, dual: DualSolution, i: int, table=None):
    """The first place, in order of type and then slice, where buyer
    i's eta or zeta on an opponent slice differ from the reference
    slice's after weighting by the opponent masses, or where the
    table's virtual values differ on a mass-bearing slice: a (kind,
    indices) witness, or None.  The weighted comparisons cross-multiply
    integer numerators: the dual's over its per-buyer denominators and
    the opponent masses over theirs, which cancel on both sides."""
    weights, slices = instance.mu_minus_scaled[i].nums, instance.ranks[i]
    ref = _reference_slice(instance, i)
    wref = weights[ref]
    zeta, eta = dual.scaled.zeta[i].nums, dual.scaled.eta[i].nums
    values = () if table is None else table.values[i]
    for t in range(instance.sizes[i]):
        base = slices[ref][t]
        eta_ref, zeta_ref = eta[base], zeta[base]
        for s, ranks in enumerate(slices):
            if s == ref:
                continue
            r, w = ranks[t], weights[s]
            if w:
                for j, column in enumerate(values):
                    if column[r] != column[base]:
                        return ("phi", (i, j, t, s))
            if eta[r] * wref != eta_ref * w:
                return ("eta", (i, t, s))
            for t2, (z, zr) in enumerate(zip(zeta[r], zeta_ref)):
                if t2 != t and z * wref != zr * w:
                    return ("zeta", (i, t, t2, s))
    return None


def check_agent_independence(instance: Instance, dual: DualSolution, table=None):
    """Check that buyer-level dual data does not depend on the others'
    values: virtual values agree across mass-bearing opponent slices,
    and eta and zeta agree across all slices after weighting by the
    opponent masses.  table, when given, is virtual_values_ds of dual;
    otherwise it is built here.  Returns (ok, witness)."""
    if table is None:
        table = virtual_values_ds(instance, dual)
    for i in range(instance.n):
        witness = _slice_mismatch(instance, dual, i, table)
        if witness is not None:
            return False, witness
    return True, None


# ---------------------------------------------------------------------------
# The equivalence constructions


def bic_to_dsic_dual(
    instance: Instance, dual: DualSolution
) -> DualSolution:
    """Spread a Bayesian dual across opponent slices by the opponent
    mass: the result is feasible for the dominant-strategy dual with
    the same objective, and is agent-independent by construction.
    Buyer i's multipliers over Z and its opponent masses over W give
    numerators over Z * W."""
    nums = dual.scaled
    multipliers = [Scaled((z.nums, e.nums), z.den) for z, e in zip(nums.zeta, nums.eta)]
    spread = _spread(instance, multipliers)
    return _mapped(_dual_from_scaled(instance, DS, spread, nums.xi), dual)


def _spread(instance: Instance, multipliers) -> list[Scaled]:
    """Each buyer's Bayesian (zeta, eta) over Z, written at every
    profile of its own type times the opponent mass of the profile's
    slice: the dominant-strategy multipliers over Z * W, with the
    opponent masses over W."""
    count = instance.profile_count
    spread = []
    for slices, ((zeta_i, eta_i), den), (weights, w_den) in zip(
        instance.ranks, multipliers, instance.mu_minus_scaled
    ):
        idle = (0,) * len(zeta_i)
        zeta, eta = [idle] * count, [0] * count
        # only a nonzero row or eta on a slice of nonzero mass moves
        # off the zeros these start at
        rows = [(t, row) for t, row in enumerate(zeta_i) if any(row)]
        held = [(t, e) for t, e in enumerate(eta_i) if e]
        for w, ranks in zip(weights, slices):
            if w:
                for t, row in rows:
                    zeta[ranks[t]] = tuple([z * w for z in row])
                for t, e in held:
                    eta[ranks[t]] = e * w
        spread.append(Scaled((tuple(zeta), tuple(eta)), den * w_den))
    return spread


def _mapped(result, dual):
    """The mapped dual, once it is feasible with dual's objective."""
    if not result.is_feasible():
        raise NotOptimal("mapped dual lost feasibility")
    if result.objective() != dual.objective():
        raise NotOptimal("mapped dual changed the objective")
    return result


def dsic_to_bic_dual(
    instance: Instance, dual: DualSolution
) -> DualSolution:
    """Invert bic_to_dsic_dual on an agent-independent dual by reading
    each buyer's multipliers off a mass-bearing opponent slice.  Dividing
    by that slice's mass w / W scales the numerators by W and the
    denominator by w."""
    nums = dual.scaled
    multipliers = []
    for i in range(instance.n):
        witness = _slice_mismatch(instance, dual, i)
        if witness is not None:
            kind, indices = witness
            raise NotAgentIndependent(f"{kind} varies across slices: {indices}")
        ref = _reference_slice(instance, i)
        weights, w_den = instance.mu_minus_scaled[i]
        base = instance.ranks[i][ref]
        (zeta_i, den), eta_i = nums.zeta[i], nums.eta[i].nums
        zeta = tuple(tuple(z * w_den for z in zeta_i[r]) for r in base)
        eta = tuple(eta_i[r] * w_den for r in base)
        multipliers.append(Scaled((zeta, eta), den * weights[ref]))
    return _mapped(_dual_from_scaled(instance, BAYES, multipliers, nums.xi), dual)


# ---------------------------------------------------------------------------
# Characterization


def is_iid(instance: Instance) -> bool:
    return all(
        instance.supports[i] == instance.supports[0]
        and instance.probs[i] == instance.probs[0]
        for i in range(instance.n)
    )


def characterize(instance: Instance) -> RevenueReport:
    """Compute the three revenues, and when the Bayesian and
    dominant-strategy optima agree, produce the agent-independent
    dominant-strategy dual witnessing the equality.

    DRev and BRev are the objectives of two proofs (auction._Proof):
    both from proved_certificate when it accepts both forms, else, on
    more items too, both from the programs' solves.  Both forms come
    from the closed form or neither, so that where either form refuses
    the report is the programs' own.  The witness is
    bic_to_dsic_dual of the regularized Bayesian dual, save when both
    proofs are closed forms and regularization returns the flow's image
    itself: the image's spread is then the flow (canonical_flow), the
    dominant-strategy proof's dual, which is the witness, and whose
    slackness ledger with the mechanism is zero by the proof; a mapped
    witness has its ledger checked.  The report keeps the
    dominant-strategy proof's mechanism and slacks as ds_optimum, and
    the witness's dominant-strategy virtual-value table, which the
    agent-independence check reads, as witness_table."""
    ds = proved_certificate(instance, DS)
    bayes = proved_certificate(instance, BAYES) if ds else None
    closed = bayes is not None
    if not closed:
        ds, bayes = (_proof(instance, solve_form(instance, form), form) for form in (DS, BAYES))
    drev_value, brev_value = ds.objective, bayes.objective
    if instance.m == 1:
        # SRev is DRev: the item's marginal is the instance with its types
        # sorted, and relabeling types does not move DRev
        srev_value = drev_value
    else:
        srev_value = srev(instance)

    report = RevenueReport(
        brev=brev_value, drev=drev_value, srev=srev_value, ds_optimum=(ds.mechanism, ds.slacks)
    )
    ai_witness = table = None
    findings = []
    if report.brev_eq_drev:
        regular = regularize_bayes(instance, bayes.dual, revenue=brev_value)
        if closed and regular is bayes.dual:
            # proved optimal with the mechanism: its ledger is zero
            ai_witness = ds.dual
        else:
            ai_witness = bic_to_dsic_dual(instance, regular)
            if not check_cs_ds(instance, ds.mechanism, ai_witness, slacks=ds.slacks).optimal:
                findings.append("witness-not-dsic-optimal")
        table = virtual_values_ds(instance, ai_witness)
        ok, witness = check_agent_independence(instance, ai_witness, table)
        if not ok:
            findings.append(f"witness-not-agent-independent:{witness}")

    if is_iid(instance) and instance.n >= 3 and report.equality_split:
        findings.append(
            "iid-equality-split:"
            f"brev={rat_str(brev_value)},drev={rat_str(drev_value)},"
            f"srev={rat_str(srev_value)}"
        )

    return replace(
        report, ai_witness=ai_witness, findings=tuple(findings), witness_table=table
    )


def revenue_record(
    index: int, seed: int, instance: Instance, report: RevenueReport
) -> dict:
    """The JSON record of one generated instance: where it stands in the
    run, its generator seed and digest, the three revenues, their
    equality flags and the findings."""
    return {
        "index": index,
        "seed": seed,
        "digest": instance.digest(),
        "brev": rat_str(report.brev),
        "drev": rat_str(report.drev),
        "srev": rat_str(report.srev),
        "brev_eq_drev": report.brev_eq_drev,
        "drev_eq_srev": report.drev_eq_srev,
        "srev_eq_brev": report.srev_eq_brev,
        "findings": list(report.findings),
    }


def gen_records(spec: dict, seed: int, count: int, cap: int = 256) -> Iterator[dict]:
    """The revenue_record of each of count instances drawn from spec at
    seeds seed, seed + 1, ..., each made when it is asked for, so that a
    reader may stop the run.  `cap` bounds each instance's profile
    count, and a bad spec raises, as in gen_instance.

    An i.i.d. spec of at least three buyers is scanned: its records
    also carry all_equal_consistent, bayes_gap, tight_excess and
    ubvv_ok.  The tight dual behind tight_excess and ubvv_ok is the
    agent-independent witness characterize built when BRev = DRev, once
    _tight_dual's checks accept it, with excess 0; otherwise the face
    program read off the report's DS optimum is solved.  ubvv_ok reads
    the regularized tight dual's table: the report's witness_table when
    regularization returns the witness itself, as it returns any
    regular dual, and a table built from it otherwise.
    all_equal_consistent is False exactly when one revenue equality
    holds without the other two."""
    for index in range(count):
        instance = gen_instance(spec, seed + index, cap=cap)
        report = characterize(instance)
        record = revenue_record(index, seed + index, instance, report)
        if spec.get("iid") and instance.n >= 3:
            dual, excess = _tight_dual(instance, report)
            regular = regularize_ds(instance, dual, revenue=report.drev)
            if regular is report.ai_witness:
                table = report.witness_table
            else:
                table = virtual_values_ds(instance, regular)
            record.update(
                all_equal_consistent=not report.equality_split,
                bayes_gap=rat_str(report.brev - report.drev),
                tight_excess=rat_str(excess),
                ubvv_ok=check_ubvv(table, instance).ok,
            )
        yield record
