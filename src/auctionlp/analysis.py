"""Separate-selling revenue, the agent-independence check, and the
equivalence engine connecting Bayesian and dominant-strategy optima."""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from math import lcm
from typing import Iterator

from .auction import (
    _certificate_of,
    _proof,
    _raising_pairs,
    drev,
    solve_form,
    tight_downward_dual,
)
from .errors import DimensionMismatch, NotAgentIndependent, NotOptimal
from .model import (
    BAYES,
    DS,
    DualSolution,
    Instance,
    Mechanism,
    RevenueReport,
    Scaled,
    _dual_from_scaled,
    mechanism_feasible,
    mechanism_slacks,
    rat_str,
    validate_instance,
)
from .oracles import gen_instance, gen_shape
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
    "iid_scan",
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
    """Optimal revenue of selling item j alone, on its marginal.

    Myerson's auction answers when two exact checks accept it: the
    canonical flow is a feasible dual, whose objective bounds the
    revenue from above, and the auction it prices is a feasible
    mechanism with the same revenue.  Otherwise (ironing would change a
    positive virtual value) the marginal's dominant-strategy program
    does."""
    marginal = item_marginal(instance, j)
    optimum = _ds_optimum(marginal)
    if optimum is not None:
        return optimum[0].objective()
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


def canonical_flow(instance: Instance) -> DualSolution:
    """The downward canonical flow of a single-item instance, unironed
    (Cai, Devanur and Weinberg 2016; discrete virtual values as in
    Elkind 2007).

    On each of buyer i's opponent slices, of mass w, the types in
    ascending value order send zeta(u, u - 1) = w * C_u, where C_u is
    the buyer's mass at or above u, and the lowest type carries
    eta = w.  The expected virtual value at u is then
    w * (C_u v_u - C_{u+1} v_{u+1}) = w * (f_u v_u - C_{u+1} (v_{u+1} - v_u)),
    mu(v) times the discrete Myerson virtual value, and xi at each
    profile is the largest over the buyers, or 0.  The dual's alpha and
    beta derive these coefficients again from the multipliers, so
    is_feasible() checks the construction.  The objective is
    E[max_i phi_i(v_i)^+]; it is the optimal revenue unless ironing
    would change a positive virtual value.

    The flow is built on numerators: with buyer i's masses over P, its
    opponent masses over W and its values over V, its multipliers are
    over P * W and its virtual values over P * W * V, which xi holds
    over their lcm X."""
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
        weights, w_den = instance.mu_minus_scaled[i]
        to_xi = xi_den // dens[i]
        # above[u]: the mass of the types from the u-th lowest up
        above = list(itertools.accumulate((probs[t] for t in reversed(order)), initial=0))[::-1]
        # value_above[u]: C_u v_u, 0 past the top
        value_above = [above[u] * values[t] for u, t in enumerate(order)] + [0]
        # drops[u]: f_u times the virtual value at u, so phi = w * drops[u]
        drops = [value_above[u] - value_above[u + 1] for u in range(k)]
        zeta_i = [None] * instance.profile_count
        eta_i = [0] * instance.profile_count
        idle = (0,) * k
        for w, ranks in zip(weights, instance.ranks[i]):
            if not w:
                for r in ranks:
                    zeta_i[r] = idle
                continue
            eta_i[ranks[order[0]]] = w * p_den
            zeta_i[ranks[order[0]]] = idle
            for u in range(1, k):
                row = [0] * k
                row[order[u - 1]] = w * above[u]
                zeta_i[ranks[order[u]]] = tuple(row)
            for t, drop in zip(order, drops):
                if drop > 0:
                    r = ranks[t]
                    phi = w * drop * to_xi
                    if phi > xi[r]:
                        xi[r] = phi
        multipliers.append(Scaled((tuple(zeta_i), tuple(eta_i)), p_den * w_den))
    return _dual_from_scaled(instance, DS, multipliers, Scaled((tuple(xi),), xi_den))


def myerson_mechanism(instance: Instance, dual: DualSolution) -> Mechanism:
    """The single-item auction a canonical flow prices.  At each profile
    where xi > 0 the item goes to the first buyer whose alpha is 0 there,
    one of highest virtual value.  Along each opponent slice's value
    ladder a buyer pays v_u x(u) minus the sum of (v_{u'+1} - v_{u'})
    x(u') over the lower types u', the threshold when the allocation
    rises along the ladder.  Allocations and payments are numerators
    over the lcm of the buyers' value denominators.  The caller checks
    feasibility."""
    n, count = instance.n, instance.profile_count
    nums = dual.scaled
    alpha = [scaled.nums[0] for scaled in nums.alpha]
    winner = [None] * count
    for r, x in enumerate(nums.xi.nums[0]):
        if x > 0:
            winner[r] = next((i for i in range(n) if alpha[i][r] == 0), None)
    ladders = [_value_ladder(instance, i) for i in range(n)]
    den = lcm(*(value_den for _, _, value_den in ladders))
    pay = [[0] * n for _ in range(count)]
    for i, (order, values, value_den) in enumerate(ladders):
        unit = den // value_den
        for ranks in instance.ranks[i]:
            paid = held = 0
            for t in order:
                r = ranks[t]
                x = int(winner[r] == i)
                paid += values[t] * unit * (x - held)
                held = x
                pay[r][i] = paid
    alloc = tuple(tuple((den,) if i == won else (0,) for i in range(n)) for won in winner)
    return Mechanism(DS, Scaled((alloc, tuple(map(tuple, pay))), den))


def _myerson_auction(instance: Instance, dual: DualSolution):
    """(Myerson's auction, its slacks) when the dual is feasible and the
    auction it prices is a feasible dominant-strategy mechanism whose
    revenue is the dual's objective, both checked exactly; by weak
    duality that revenue is then DRev.  Else None."""
    if not dual.is_feasible():
        return None
    mechanism = myerson_mechanism(instance, dual)
    slacks = mechanism_slacks(instance, mechanism)
    if mechanism_feasible(instance, mechanism, slacks) and (
        mechanism.revenue(instance) == dual.objective()
    ):
        return mechanism, slacks
    return None


def _ds_optimum(instance: Instance):
    """(the canonical flow, Myerson's auction, its slacks) of a
    single-item instance when _myerson_auction accepts them: a proved
    dominant-strategy optimum, by its two exact checks.  Else None."""
    flow = canonical_flow(instance)
    auction = _myerson_auction(instance, flow)
    return None if auction is None else (flow, *auction)


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
    multipliers = []
    for i, positions in enumerate(instance.positions):
        weights, w_den = instance.mu_minus_scaled[i]
        (zeta_i, den), eta_i = nums.zeta[i], nums.eta[i].nums
        zeta = tuple(tuple(z * weights[s] for z in zeta_i[t]) for t, s in positions)
        eta = tuple(eta_i[t] * weights[s] for t, s in positions)
        multipliers.append(Scaled((zeta, eta), den * w_den))
    return _mapped(_dual_from_scaled(instance, DS, multipliers, nums.xi), dual)


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


def _bayes_optimum(instance: Instance, flow: DualSolution, mechanism: Mechanism):
    """(the flow's Bayesian image, the auction in the Bayesian form, its
    slacks there) for a proved dominant-strategy optimum (_ds_optimum),
    when two more exact checks pass: the auction is feasible in the
    Bayesian form, and the image is a feasible Bayesian dual of the
    flow's objective R.  The auction keeps its revenue R, so weak
    duality makes R BRev.  Else None."""
    # the same auction, so the same revenue, held to the Bayesian rows
    bayes = Mechanism(BAYES, mechanism.scaled)
    slacks = mechanism_slacks(instance, bayes)
    if not mechanism_feasible(instance, bayes, slacks):
        return None
    try:
        # feasible with the flow's objective, or it raises
        return dsic_to_bic_dual(instance, flow), bayes, slacks
    except (NotAgentIndependent, NotOptimal):
        return None


def proved_certificate(instance: Instance, form: str):
    """The form's optimum in closed form, as a primal certificate of the
    form's program, or None.  On one item, Myerson's auction and the
    canonical flow answer the dominant-strategy form when _ds_optimum's
    two exact checks accept them, and the auction and the flow's
    Bayesian image answer the Bayesian form when _bayes_optimum's two
    checks accept those too.  None on more items, or where a check
    refuses (ironing would change a positive virtual value); the
    program answers then.  The certificate carries the proof
    (auction._certificate_of), as solve_form's do."""
    if instance.m != 1:
        return None
    optimum = _ds_optimum(instance)
    if optimum is not None and form == BAYES:
        flow, mechanism, _ = optimum
        optimum = _bayes_optimum(instance, flow, mechanism)
    if optimum is None:
        return None
    dual, mechanism, slacks = optimum
    return _certificate_of(instance, mechanism, slacks, dual)


def _myerson_proof(instance: Instance):
    """(R, R, the Bayesian image, Myerson's auction, its slacks, the
    flow) when both closed forms accept the single-item instance, at
    the flow's objective R: _ds_optimum, then _bayes_optimum.  Weak
    duality on each side then makes R both DRev and BRev.  Else None.

    The flow is a proved optimal dominant-strategy dual, and the image's
    dominant-strategy spread (bic_to_dsic_dual) equals it: the image
    exists only if no opponent slice's eta or zeta differs from the
    reference slice's scaled by the slice masses (0 on a slice of no
    mass), and the spread scales them back by the same masses, keeps xi
    and derives every other family from these."""
    optimum = _ds_optimum(instance)
    if optimum is None:
        return None
    flow, mechanism, slacks = optimum
    bayes = _bayes_optimum(instance, flow, mechanism)
    if bayes is None:
        return None
    revenue = flow.objective()
    return revenue, revenue, bayes[0], mechanism, slacks, flow


def characterize(instance: Instance) -> RevenueReport:
    """Compute the three revenues, and when the Bayesian and
    dominant-strategy optima agree, produce the agent-independent
    dominant-strategy dual witnessing the equality.

    The witness is built from one evidence record, (DRev, BRev, a
    Bayesian optimal dual, a dominant-strategy optimal mechanism, its
    slacks, the canonical flow or None).  On one item the canonical flow
    and Myerson's auction give it when _myerson_proof accepts them;
    otherwise, and on more items, the proofs of both primal solves do,
    with no flow.  The witness is bic_to_dsic_dual of the regularized
    Bayesian dual, save when regularization returns the flow's image
    itself: the flow is then that spread already (see _myerson_proof),
    and is the witness.  The report keeps the mechanism and its slacks
    as ds_optimum, and the witness's dominant-strategy virtual-value
    table, which the agent-independence check reads, as
    witness_table."""
    evidence = _myerson_proof(instance) if instance.m == 1 else None
    if evidence is None:
        ds_cert, bayes_cert = solve_form(instance, DS), solve_form(instance, BAYES)
        ds, bayes = _proof(instance, ds_cert, DS), _proof(instance, bayes_cert, BAYES)
        evidence = (
            ds_cert.objective, bayes_cert.objective, bayes.dual, ds.mechanism, ds.slacks, None
        )
    drev_value, brev_value, bayes_dual, mechanism, slacks, flow = evidence
    if instance.m == 1:
        # SRev is DRev: the item's marginal is the instance with its types
        # sorted, and relabeling types does not move DRev
        srev_value = drev_value
    else:
        srev_value = srev(instance)

    report = RevenueReport(
        brev=brev_value, drev=drev_value, srev=srev_value, ds_optimum=(mechanism, slacks)
    )
    ai_witness = table = None
    findings = []
    if report.brev_eq_drev:
        regular = regularize_bayes(instance, bayes_dual, revenue=brev_value)
        if flow is not None and regular is bayes_dual:
            ai_witness = flow
        else:
            ai_witness = bic_to_dsic_dual(instance, regular)
        ledger = check_cs_ds(instance, mechanism, ai_witness, slacks=slacks)
        if not ledger.optimal:
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


def iid_scan(family: dict, seed: int, count: int, cap: int = 256) -> list[dict]:
    """gen_records of the i.i.d. family (n defaults to 3 here); a family
    below three buyers is excluded with a notice, and a bad family
    raises, as in gen_instance."""
    spec = {"n": 3, **family, "iid": True}
    gen_shape(spec, cap)  # refuses a bad family before its n is read
    n = spec["n"]
    if n < 3:
        return [
            {
                "notice": "excluded",
                "reason": "the all-equal implication needs at least 3 buyers",
                "n": n,
            }
        ]
    return list(gen_records(spec, seed, count, cap))


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
