"""Complementary slackness ledger, dual regularization, virtual value
tables, and the welfare-maximization and upper-bound checks.

Single-buyer virtual values are cross-checked against the closed-form
ironed formula (helpers.myerson_formula); where the optimal regular
dual is not unique, the disagreement must be witnessed by the face
probe (helpers.regular_phi_range)."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from auctionlp import virtual
from auctionlp.auction import (
    BAYES,
    DS,
    brev,
    drev,
    extract_dual,
    extract_mechanism,
    solve_form,
)
from auctionlp.errors import InfeasibleInput, MissingZeroType, NotOptimal, NotRegular
from auctionlp.analysis import bic_to_dsic_dual, canonical_flow, check_agent_independence
from auctionlp.oracles import gen_instance
from auctionlp.model import (
    NEG_INF,
    Instance,
    _scale,
    dual_from_multipliers,
)
from auctionlp.virtual import (
    check_cs,
    check_ubvv,
    check_vwm,
    regularity_witness,
    regularize,
    virtual_values,
)
from helpers import (
    drop,
    mechanism_of,
    myerson_formula,
    others_rank,
    reference_agent_independence,
    reference_ubvv,
    reference_virtual_values,
    reference_vwm,
    regular_phi_range,
    sold,
    table_of,
    zero_mechanism,
)

F = Fraction


def optimal_pair(instance, form=DS):
    cert = solve_form(instance, form)
    mech = extract_mechanism(instance, cert, form)
    dual = extract_dual(instance, cert, form)
    return cert, mech, dual


# -- ledger -----------------------------------------------------------------


def test_ledger_vanishes_on_optimal_pair(u123, pair12):
    for instance in (u123, pair12):
        cert, mech, dual = optimal_pair(instance)
        ledger = check_cs(instance, mech, dual)
        assert ledger.gap == 0
        assert ledger.optimal
        assert (ledger.ic, ledger.ir, ledger.supply, ledger.alloc, ledger.pay) == (
            0, 0, 0, 0, 0,
        )
        bcert, bmech, bdual = optimal_pair(instance, BAYES)
        bledger = check_cs(instance, bmech, bdual)
        assert bledger.gap == 0


def test_ledger_against_zero_mechanism(u123):
    cert, _, dual = optimal_pair(u123)
    ledger = check_cs(u123, zero_mechanism(u123, DS), dual)
    assert ledger.gap == dual.objective() == cert.objective
    assert not ledger.optimal


def test_ledger_tracks_supply_perturbation(u12):
    cert, mech, dual = optimal_pair(u12)
    bumped = tuple(
        tuple(x + F(1, 7) for x in col) for col in dual.xi
    )
    dual2 = dual_from_multipliers(u12, DS, dual.zeta, dual.eta, bumped)
    assert dual2.is_feasible()
    ledger = check_cs(u12, mech, dual2)
    assert ledger.gap == dual2.objective() - mech.revenue(u12)
    expected_supply = sum(
        F(1, 7) * (1 - sold(mech, u12, 0, profile))
        for profile in u12.profiles()
    )
    extra_alloc = sum(
        F(1, 7) * mech.alloc[u12.rank(profile)][0][0]
        for profile in u12.profiles()
    )
    assert ledger.supply == expected_supply
    assert ledger.alloc == extra_alloc
    assert ledger.supply + ledger.alloc == F(3, 7)


def test_ledger_rejects_tampered_alpha(pair12):
    _, mech, dual = optimal_pair(pair12)
    # raise alpha where the mechanism allocates, so the alloc family moves
    # but the dual stays nonnegative
    r = next(r for r, row in enumerate(mech.alloc) if row[0][0] > 0)
    alpha = [[list(col) for col in buyer] for buyer in dual.alpha]
    alpha[0][0][r] += F(1, 5)
    alpha = tuple(_scale(tuple(map(tuple, buyer))) for buyer in alpha)
    tampered = replace(dual, scaled=dual.scaled._replace(alpha=alpha))
    assert tampered.is_feasible()
    with pytest.raises(NotOptimal, match="objective gap"):
        check_cs(pair12, mech, tampered)


def test_ledger_rejects_infeasible_sides(u12):
    cert, mech, dual = optimal_pair(u12)
    overcharged = tuple(tuple(p + 1 for p in row) for row in mech.pay)
    sell_at_loss = mechanism_of(DS, mech.alloc, overcharged)
    with pytest.raises(InfeasibleInput):
        check_cs(u12, sell_at_loss, dual)
    negative_eta = tuple(
        tuple(-x if x else x for x in row) for row in dual.eta
    )
    broken = dual_from_multipliers(u12, DS, dual.zeta, negative_eta, dual.xi)
    if not broken.is_feasible():
        with pytest.raises(InfeasibleInput):
            check_cs(u12, mech, broken)


def test_per_form_names_are_the_one_functions(pair12):
    # the benchmark's tracer binds a per-form name of each step; each
    # gives the one function's result on a dual of either form
    for form in (DS, BAYES):
        cert, mech, dual = optimal_pair(pair12, form)
        ledger = check_cs(pair12, mech, dual)
        regular = regularize(pair12, dual, revenue=cert.objective)
        table = virtual_values(pair12, regular)
        assert regular.form == table.form == form
        for suffix in ("ds", "bayes"):
            assert getattr(virtual, f"check_cs_{suffix}")(pair12, mech, dual) == ledger
            assert getattr(virtual, f"regularize_{suffix}")(pair12, dual, cert.objective) == regular
            assert getattr(virtual, f"virtual_values_{suffix}")(pair12, regular) == table


# -- regularization ---------------------------------------------------------


def test_regularize_ds_frozen_small_uniform(u12):
    cert, _, dual = optimal_pair(u12)
    reg = regularize(u12, dual, revenue=cert.objective)
    assert reg.objective() == cert.objective == 1
    assert reg.is_feasible()
    assert regularity_witness(u12, reg) is None
    # one buyer: type t sits at the profile of rank t
    nonzero = {
        (t, t2): reg.zeta[0][t][t2]
        for t in range(3)
        for t2 in range(3)
        if reg.zeta[0][t][t2]
    }
    assert nonzero == {(1, 0): F(1), (2, 1): F(1, 2)}
    assert reg.eta[0] == (F(1), F(0), F(0))


def test_regularize_is_idempotent(u123):
    cert, _, dual = optimal_pair(u123)
    reg = regularize(u123, dual, revenue=cert.objective)
    assert regularize(u123, reg, revenue=cert.objective) == reg


def idle_zeta(instance, dual):
    """Whether some zeta of a dominant-strategy dual is nonzero at a
    profile whose opponents have mass 0, where regularize drops it."""
    return any(
        any(dual.zeta[i][r])
        for r, v in enumerate(instance.profiles())
        for i in range(instance.n)
        if instance.mu_minus(i, drop(i, v)) == 0
    )


@pytest.mark.parametrize("form", [DS, BAYES])
def test_regularization_is_a_projection(form):
    # Regularizing twice gives the first result, the very object.  A
    # dual comes back itself exactly when it is regular already: the
    # certificate's dual is not, its regularization and (on one item,
    # where it is optimal) the canonical flow are.  Neither a regular
    # dual nor a regularized one holds zeta where the opponents have no
    # mass.
    kept = rewritten = 0
    for spec, seeds in (
        ({"n": 2, "m": 1, "support": 2}, range(8)),
        ({"n": 2, "m": 2, "support": 2}, range(6)),
        ({"n": 3, "m": 1, "support": 2, "iid": True}, range(6)),
    ):
        for seed in seeds:
            instance = gen_instance(spec, seed)
            cert, _, dual = optimal_pair(instance, form)
            revenue = cert.objective
            once = regularize(instance, dual, revenue=revenue)
            duals = [dual, once]
            if form == DS and instance.m == 1:
                flow = canonical_flow(instance)
                if flow.is_feasible() and flow.objective() == revenue:
                    duals.append(flow)
            for candidate in duals:
                result = regularize(instance, candidate, revenue=revenue)
                assert regularize(instance, result, revenue=revenue) is result
                regular = regularity_witness(instance, candidate) is None
                assert (result is candidate) == regular
                kept += regular
                rewritten += not regular
                if form == DS:
                    assert not idle_zeta(instance, result)
                    assert not (regular and idle_zeta(instance, candidate))
    assert rewritten == 20 and kept == (34 if form == DS else 20)


def test_regularize_drops_zeta_where_opponents_have_no_mass(pair12):
    # No certificate dual above holds zeta on a massless slice, so one is
    # made: a cycle of zeta between the zero type and type 2, against
    # buyer 1's massless zero type, paid for by xi at that profile.  It is
    # feasible, and optimal for the overpaid objective, but not regular,
    # and regularization drops the cycle.
    cert, _, dual = optimal_pair(pair12)
    regular = regularize(pair12, dual, revenue=cert.objective)
    s0 = others_rank(pair12, 0, (0,))
    assert pair12.mu_minus(0, (0,)) == 0
    low, high = pair12.ranks[0][s0][0], pair12.ranks[0][s0][2]
    zeta = [[list(row) for row in zeta_i] for zeta_i in regular.zeta]
    zeta[0][low][2] += 1
    zeta[0][high][0] += 1
    xi = [list(regular.xi[0])]
    xi[0][high] += 2  # the cycle's virtual value at the type-2 profile
    moved = dual_from_multipliers(pair12, DS, frozen(zeta), regular.eta, frozen(xi))
    revenue = cert.objective + 2
    assert moved.is_feasible() and moved.objective() == revenue
    assert idle_zeta(pair12, moved)
    result = regularize(pair12, moved, revenue=revenue)
    assert result is not moved and not idle_zeta(pair12, result)
    assert result.zeta == regular.zeta and result.xi == moved.xi


def test_regularize_rejects_suboptimal_objective(u12):
    _, _, dual = optimal_pair(u12)
    with pytest.raises(NotOptimal):
        regularize(u12, dual, revenue=drev(u12) + 1)


def test_regularize_rejects_infeasible_dual(u12):
    _, _, dual = optimal_pair(u12)
    negated = dual_from_multipliers(
        u12,
        DS,
        dual.zeta,
        tuple(tuple(x - 1 for x in row) for row in dual.eta),
        dual.xi,
    )
    with pytest.raises(InfeasibleInput):
        regularize(u12, negated, revenue=drev(u12))


def test_regularize_bayes_round_trip(pair12):
    cert, _, dual = optimal_pair(pair12, BAYES)
    reg = regularize(pair12, dual, revenue=cert.objective)
    assert reg.objective() == cert.objective
    assert regularity_witness(pair12, reg) is None
    for i in (0, 1):
        assert reg.eta[i] == (F(1), F(0), F(0))


# -- regularity witnesses ---------------------------------------------------


def zeros_like_zeta(instance):
    return [
        [[F(0) for _ in range(k)] for _ in range(instance.profile_count)]
        for k in instance.sizes
    ]


def frozen(nested):
    if isinstance(nested, list):
        return tuple(frozen(x) for x in nested)
    return nested


def test_witness_detects_virtual_on_zero_mass_slice(pair12):
    zeta = zeros_like_zeta(pair12)
    s0 = others_rank(pair12, 0, (0,))
    zeta[0][pair12.ranks[0][s0][1]][0] = F(1)
    eta = tuple(tuple(F(0) for _ in pair12.profiles()) for _ in range(2))
    xi = ((F(0),) * pair12.profile_count,)
    dual = dual_from_multipliers(pair12, DS, frozen(zeta), eta, xi)
    witness = regularity_witness(pair12, dual)
    assert witness is not None
    assert witness[0] == "virtual"
    assert witness[1][0] == 0


def test_witness_detects_source(u12):
    # eta weight parked on a nonzero type; zeta keeps psi right at the
    # zero type so the source condition is the first to fail
    zeta = zeros_like_zeta(u12)
    zeta[0][1][0] = F(1)
    eta = ((F(1), F(1), F(0)),)
    xi = ((F(0), F(0), F(0)),)
    dual = dual_from_multipliers(u12, DS, frozen(zeta), eta, xi)
    assert regularity_witness(u12, dual) == ("source", (0, (1,)))


def test_witness_detects_trans(u12):
    zeta = zeros_like_zeta(u12)
    eta = ((F(1), F(0), F(0)),)
    xi = ((F(0), F(0), F(0)),)
    dual = dual_from_multipliers(u12, DS, frozen(zeta), eta, xi)
    assert regularity_witness(u12, dual) == ("trans", (0, (0,)))


def test_witness_accepts_regular(u12):
    _, _, dual = optimal_pair(u12)
    reg = regularize(u12, dual, revenue=1)
    assert regularity_witness(u12, reg) is None


def test_checks_refuse_an_instance_without_a_zero_type():
    # the constructor checks nothing (validate_instance adds or refuses
    # the zero vector), so an Instance built directly may lack it
    instance = Instance(1, 1, (((F(1),), (F(2),)),), ((F(1, 2), F(1, 2)),))
    assert instance.zero_index(0) is None
    zeta = frozen(zeros_like_zeta(instance))
    eta, xi = ((F(0), F(0)),), ((F(0), F(0)),)
    for form, check in ((DS, regularity_witness), (BAYES, virtual_values)):
        dual = dual_from_multipliers(instance, form, zeta, eta, xi)
        with pytest.raises(MissingZeroType, match="^buyer 0 has no zero vector in support$"):
            check(instance, dual)


def bayes_dual_with_regular_buyer0(pair12, zeta1, eta1):
    # buyer 0 carries the regular dual of one uniform {1, 2} buyer:
    # psibar meets the masses (0, 1/2, 1/2) with eta only on the zero type
    zeta0 = ((F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1, 2), F(0)))
    eta0 = (F(1), F(0), F(0))
    xi = ((F(0),) * pair12.profile_count,)
    return dual_from_multipliers(pair12, BAYES, (zeta0, frozen(zeta1)), (eta0, eta1), xi)


def test_bayes_witness_detects_source(pair12):
    # buyer 1 parks eta weight on type 1; zeta keeps psibar right at the
    # zero type so the source condition is the first to fail
    zeta1 = [[F(0)] * 3 for _ in range(3)]
    zeta1[1][0] = F(1)
    dual = bayes_dual_with_regular_buyer0(pair12, zeta1, (F(1), F(1), F(0)))
    assert regularity_witness(pair12, dual) == ("source", (1, 1))


def test_bayes_witness_detects_trans(pair12):
    zeta1 = [[F(0)] * 3 for _ in range(3)]
    dual = bayes_dual_with_regular_buyer0(pair12, zeta1, (F(1), F(0), F(0)))
    assert regularity_witness(pair12, dual) == ("trans", (1, 0))


# -- virtual value tables ---------------------------------------------------


def test_virtual_values_match_formula_on_small_uniform(u12):
    cert, mech, dual = optimal_pair(u12)
    reg = regularize(u12, dual, revenue=cert.objective)
    table = virtual_values(u12, reg)
    assert table.values[0][0] == (NEG_INF, F(0), F(2))
    formula = myerson_formula([v[0] for v in u12.supports[0]], u12.probs[0])
    assert formula == {1: F(0), 2: F(2)}
    lo, hi = regular_phi_range(u12, 0, (1,), cert.objective)
    assert (lo, hi) == (F(0), F(0))
    assert check_vwm(u12, mech, table).ok
    assert check_ubvv(table, u12).ok


def test_virtual_values_nonunique_point_stays_in_face_range(u123):
    cert, mech, dual = optimal_pair(u123)
    reg = regularize(u123, dual, revenue=cert.objective)
    table = virtual_values(u123, reg)
    formula = myerson_formula([v[0] for v in u123.supports[0]], u123.probs[0])
    assert formula == {1: F(-1), 2: F(1), 3: F(3)}
    assert table.values[0][0][2] == formula[2]
    assert table.values[0][0][3] == formula[3]
    # at the bottom type the optimal regular duals form a segment, so
    # the table entry need only land inside it; the formula value is an
    # endpoint
    lo, hi = regular_phi_range(u123, 0, (1,), cert.objective)
    assert (lo, hi) == (F(-1), F(0))
    assert lo <= table.values[0][0][1] <= hi


def test_virtual_values_require_regular_dual(u12):
    _, _, dual = optimal_pair(u12)
    if regularity_witness(u12, dual) is None:
        dual = dual_from_multipliers(
            u12,
            DS,
            dual.zeta,
            (tuple(F(1) for _ in u12.profiles()),),
            dual.xi,
        )
    with pytest.raises(NotRegular):
        virtual_values(u12, dual)


def test_bayes_table_is_constant_across_opponents(pair12):
    cert, _, dual = optimal_pair(pair12, BAYES)
    reg = regularize(pair12, dual, revenue=cert.objective)
    table = virtual_values(pair12, reg)
    per_type = {0: NEG_INF, 1: F(0), 2: F(2)}
    for i in (0, 1):
        for profile in pair12.profiles():
            assert table.values[i][0][pair12.rank(profile)] == per_type[profile[i]]


# -- welfare maximization checks --------------------------------------------


def hand_table(instance, entries):
    return table_of(DS, ((tuple(entries),),))


def pair_table(pair12, per_type):
    values = tuple(
        (
            tuple(per_type[profile[i]] for profile in pair12.profiles()),
        )
        for i in (0, 1)
    )
    return table_of(DS, values)


def mech_rows(instance, rows):
    alloc = tuple(rows[r][0] for r in range(instance.profile_count))
    pay = tuple(rows[r][1] for r in range(instance.profile_count))
    return mechanism_of(DS, alloc, pay)


def test_vwm_flags_wrong_winner(pair12):
    table = pair_table(pair12, {0: NEG_INF, 1: F(0), 2: F(2)})
    rows = {}
    for profile in pair12.profiles():
        r = pair12.rank(profile)
        best = max(profile)
        if best == 0:
            winner = None
        else:
            winner = profile.index(best)
        cells = [[F(0)], [F(0)]]
        if winner is not None:
            cells[winner][0] = F(1)
        rows[r] = (tuple(tuple(c) for c in cells), (F(0), F(0)))
    # hand the (1, 2) profile to the low-virtual-value buyer
    r_bad = pair12.rank((1, 2))
    rows[r_bad] = (((F(1),), (F(0),)), (F(0), F(0)))
    mech = mech_rows(pair12, rows)
    report = check_vwm(pair12, mech, table)
    kinds = {v.kind for v in report.violations}
    assert kinds == {"alloc-not-argmax"}
    v = report.violations[0]
    assert (v.item, v.rank, v.buyer) == (0, r_bad, 0)


def test_vwm_flags_negative_winner(u12):
    table = hand_table(u12, [NEG_INF, F(-1), F(2)])
    rows = {
        0: (((F(0),),), (F(0),)),
        1: (((F(1),),), (F(0),)),
        2: (((F(1),),), (F(2),)),
    }
    report = check_vwm(u12, mech_rows(u12, rows), table)
    kinds = {v.kind for v in report.violations}
    assert kinds == {"alloc-negative"}


def test_vwm_flags_unsold_positive_maximum(u12):
    table = hand_table(u12, [NEG_INF, F(0), F(2)])
    report = check_vwm(u12, zero_mechanism(u12, DS), table)
    assert [v.kind for v in report.violations] == ["unsold-max-positive"]
    assert report.violations[0].rank == 2
    assert report.checked == 2


def test_vwm_flags_partial_sale(u12):
    table = hand_table(u12, [NEG_INF, F(0), F(2)])
    rows = {
        0: (((F(0),),), (F(0),)),
        1: (((F(0),),), (F(0),)),
        2: (((F(1, 2),),), (F(1),)),
    }
    report = check_vwm(u12, mech_rows(u12, rows), table)
    kinds = {v.kind for v in report.violations}
    assert kinds == {"unsold-max-positive", "partial-max-nonzero"}


# -- value upper bound ------------------------------------------------------


def test_ubvv_accepts_and_counts(u123):
    cert, _, dual = optimal_pair(u123)
    table = virtual_values(u123, regularize(u123, dual, revenue=cert.objective))
    report = check_ubvv(table, u123)
    assert report.ok
    assert report.checked == 3


def test_ubvv_flags_doctored_entry(u12):
    table = hand_table(u12, [NEG_INF, F(3), F(2)])
    report = check_ubvv(table, u12)
    assert not report.ok
    assert report.violations == ((0, 0, 1),)
    assert report.checked == 2


def test_ubvv_skips_unbounded_entries(u12):
    # NEG_INF entries are conventions, not virtual values; they are
    # neither counted nor flagged even on a doctored table
    table = hand_table(u12, [NEG_INF, NEG_INF, F(2)])
    report = check_ubvv(table, u12)
    assert report.ok
    assert report.checked == 1


# -- numerator tables against their Fraction definitions ---------------------


# (spec, seeds): one to three buyers, one or two items, values over
# denominators up to 4, zero-mass zero types among them; 40 instances
TABLE_SHAPES = [
    ({"n": 1, "m": 1, "support": 3}, range(4)),
    ({"n": 2, "m": 1, "support": 3}, range(8)),
    ({"n": 2, "m": 1, "support": 2, "iid": True}, range(6)),
    ({"n": 3, "m": 1, "support": 2, "iid": True}, range(8)),
    ({"n": 3, "m": 1, "support": 2}, range(6)),
    ({"n": 2, "m": 2, "support": 2}, range(8)),
]
TABLE_CASES = [(spec, seed) for spec, seeds in TABLE_SHAPES for seed in seeds]


def _doctored(instance, table, rng):
    """The table with each finite entry moved to its value, or 1/7 off
    it either way, and a few entries to NEG_INF: the upper-bound check's
    edge on every entry, with argmax changes for check_vwm."""
    values = [[list(column) for column in buyer] for buyer in table.values]
    for i, buyer in enumerate(values):
        for j, column in enumerate(buyer):
            for r, entry in enumerate(column):
                if entry != NEG_INF:
                    t = instance.positions[i][r][0]
                    column[r] = instance.value(i, t)[j] + rng.choice((F(-1, 7), F(0), F(1, 7)))
                    if rng.random() < 0.1:
                        column[r] = NEG_INF
    return table_of(table.form, values)


def _phi_moved(instance, table, rng):
    """The table with one entry of one buyer moved by 1/5, or None when
    no buyer has more than one opponent slice."""
    buyers = [i for i in range(instance.n) if len(instance.ranks[i]) > 1]
    if not buyers:
        return None
    i = rng.choice(buyers)
    values = [[list(column) for column in buyer] for buyer in table.values]
    column = values[i][rng.randrange(instance.m)]
    r = rng.randrange(instance.profile_count)
    column[r] = F(1, 5) if column[r] == NEG_INF else column[r] + F(1, 5)
    return table_of(table.form, values)


def test_numerator_tables_and_checks_match_their_fraction_definitions():
    kinds, verdicts, edges, unbounded = set(), set(), 0, 0
    for spec, seed in TABLE_CASES:
        instance = gen_instance(spec, seed)
        rng = random.Random(seed)
        witness = None
        for form in (DS, BAYES):
            cert, mech, dual = optimal_pair(instance, form)
            regular = regularize(instance, dual, revenue=cert.objective)
            table = virtual_values(instance, regular)
            if form == BAYES:
                witness = bic_to_dsic_dual(instance, regular)
            expected = reference_virtual_values(instance, regular, form)
            assert table.values == expected, (spec, seed, form)
            assert table == table_of(form, expected)
            for tab in (table, _doctored(instance, table, rng)):
                ubvv = check_ubvv(tab, instance)
                assert (ubvv.checked, ubvv.violations) == reference_ubvv(tab, instance)
                vwm = check_vwm(instance, mech, tab)
                found = [(v.kind, v.item, v.rank, v.buyer) for v in vwm.violations]
                assert (vwm.checked, found) == reference_vwm(instance, mech, tab)
                verdicts.add(ubvv.ok)
                kinds.update(kind for kind, *_ in found)
            for i, buyer in enumerate(table.values):
                for j, column in enumerate(buyer):
                    for r, entry in enumerate(column):
                        edges += entry == instance.value(i, instance.positions[i][r][0])[j]
                        unbounded += entry == NEG_INF
            if form == DS:
                pairs = [(regular, table)]
            else:
                ds_table = virtual_values(instance, witness)
                pairs = [(witness, ds_table), (witness, _phi_moved(instance, ds_table, rng))]
            for ds_dual, tab in pairs:
                if tab is None:
                    continue
                found = check_agent_independence(instance, ds_dual, tab)
                assert found == reference_agent_independence(instance, ds_dual, tab)
                kinds.add(found[1][0] if found[1] else found[0])
    # both verdicts, every kind of finding, entries at their value and
    # -inf entries at zero-mass zero types
    assert verdicts == {True, False} and edges and unbounded
    assert {"phi", "zeta", True} <= kinds
    vwm_kinds = {"alloc-not-argmax", "alloc-negative", "unsold-max-positive", "partial-max-nonzero"}
    assert vwm_kinds <= kinds
