"""Separate selling, dual-face search, independence checks, the
Bayesian/dominant-strategy equivalence maps, and the characterization
report."""

import contextlib
import hashlib
import io
import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from auctionlp import analysis, auction, cli
from auctionlp.analysis import (
    bic_to_dsic_dual,
    canonical_flow,
    characterize,
    check_agent_independence,
    dsic_to_bic_dual,
    face_excess,
    gen_records,
    is_iid,
    item_marginal,
    item_revenue,
    myerson_mechanism,
    proved_certificate,
    revenue_record,
    srev,
    tight_downward_dual,
)
from auctionlp.auction import BAYES, DS, drev, extract_dual, solve_form
from auctionlp.errors import (
    CertificateError,
    DimensionMismatch,
    InfeasibleInput,
    NotAgentIndependent,
    NotOptimal,
)
from auctionlp.model import (
    NEG_INF,
    DualSolution,
    Mechanism,
    Scaled,
    _dual_from_scaled,
    _scale,
    dual_from_multipliers,
    mechanism_feasible,
    mechanism_slacks,
)
from auctionlp.oracles import gen_instance
from auctionlp.virtual import check_cs, check_ubvv, regularize, virtual_values
from conftest import build, irregular, perfbench_corpus
from helpers import ds_optimum, mechanism_of, revenue_face_dual, zero_mechanism

F = Fraction


def bayes_regular(instance):
    cert = solve_form(instance, BAYES)
    dual = extract_dual(instance, cert, BAYES)
    return regularize(instance, dual, revenue=cert.objective)


def ds_regular(instance):
    cert = solve_form(instance, DS)
    dual = extract_dual(instance, cert, DS)
    return regularize(instance, dual, revenue=cert.objective)


# -- separate selling -------------------------------------------------------


def test_item_marginal_recovers_coordinates(items12, u12):
    assert item_marginal(items12, 0) == u12
    assert item_marginal(items12, 1) == u12


def test_srev_breakdown(items12):
    assert tuple(item_revenue(items12, j) for j in range(2)) == (F(1), F(1))
    assert srev(items12) == 2
    # bundling earns DRev 9/4, and its virtual values are not per item:
    # types (1, 1) and (1, 2) agree on item 0 but get 0 and 1 for it
    table = virtual_values(items12, ds_regular(items12))
    assert table.values[0][0] == (NEG_INF, F(0), F(1), F(2), F(2))
    assert table.values[0][1] == (NEG_INF, F(0), F(2), F(0), F(2))


# -- single-item closed forms -----------------------------------------------


def lp_path(monkeypatch):
    """Route SRev, characterize's revenues and the scan's tight dual
    through their programs, as before the closed forms."""
    monkeypatch.setattr(analysis, "proved_certificate", lambda inst, *forms: None)
    monkeypatch.setattr(
        analysis,
        "_tight_dual",
        lambda inst, report: tight_downward_dual(inst, *report.ds_optimum),
    )


# (family, first seed, count): support 3 at seed 1 needs ironing; the
# two-item seeds 1 and 2 have BRev = DRev, and 0 and 3 BRev > DRev
SCAN_CORPUS = [
    ({"n": 3, "m": 1, "support": 2, "iid": True}, 1, 2),
    ({"n": 3, "m": 1, "support": 3, "iid": True}, 0, 2),
    ({"n": 3, "m": 2, "support": 2, "iid": True}, 0, 4),
]


def test_closed_forms_match_the_programs(monkeypatch):
    faced = []
    original = analysis.tight_downward_dual

    def spy(instance, mechanism, slacks):
        faced.append(instance)
        return original(instance, mechanism, slacks)

    monkeypatch.setattr(analysis, "tight_downward_dual", spy)
    closed = [list(gen_records(*scan)) for scan in SCAN_CORPUS]
    # every other instance takes its flow or its equality witness
    two_items = {"n": 3, "m": 2, "support": 2, "iid": True}
    assert faced == [gen_instance(two_items, 0), gen_instance(two_items, 3)]
    verdicts = set()
    for (family, seed, _), records in zip(SCAN_CORPUS, closed):
        if family["m"] != 1:
            continue
        for index, record in enumerate(records):
            instance = gen_instance(family, seed + index)
            revenue = F(record["drev"])
            dual = canonical_flow(instance)
            accepted = dual.is_feasible() and dual.objective() == revenue
            verdicts.add(accepted)
            if accepted:
                assert face_excess(instance, dual) == 0
                regularize(instance, dual, revenue=revenue)
    assert verdicts == {True, False}
    lp_path(monkeypatch)
    programs = [list(gen_records(*scan)) for scan in SCAN_CORPUS]
    assert closed == programs


def test_scan_builds_each_canonical_flow_once(monkeypatch):
    # A single-item instance's SRev is the certified DRev, so only the
    # closed form of both forms builds its ladder flow, once.  A two-item
    # instance builds one flow per item marginal and no tight-dual flow.
    built = []
    original = analysis._ladder_flow

    def spy(instance):
        built.append(instance)
        return original(instance)

    monkeypatch.setattr(analysis, "_ladder_flow", spy)
    for family, seed in (
        ({"n": 3, "m": 1, "support": 2, "iid": True}, 1),
        ({"n": 3, "m": 2, "support": 2, "iid": True}, 0),
    ):
        built.clear()
        (record,) = gen_records(family, seed, 1)
        instance = gen_instance(family, seed)
        if instance.m == 1:
            assert item_marginal(instance, 0) == instance
            assert built == [instance]
            assert record["srev"] == record["drev"]
        else:
            assert built == [item_marginal(instance, j) for j in range(instance.m)]


def test_single_item_srev_is_drev_without_a_marginal(monkeypatch):
    # types listed unsorted, so the item's marginal is another labeling
    # of the instance; DRev does not depend on the labeling
    instance = build(
        2,
        1,
        [[[2], [0], [1]], [[3], [1], [0]]],
        [["1/2", 0, "1/2"], ["1/3", "1/3", "1/3"]],
    )
    assert item_marginal(instance, 0) != instance
    assert srev(instance) == F(5, 3)

    def no_marginal(instance, j):
        raise AssertionError("characterize built an item marginal")

    monkeypatch.setattr(analysis, "item_marginal", no_marginal)
    report = characterize(instance)
    assert (report.brev, report.drev, report.srev) == (F(5, 3),) * 3
    assert report.findings == () and report.ai_witness is not None


@pytest.fixture(scope="module")
def spied_solves():
    """Count the LP solves under each call made through it."""
    calls = []
    original = auction.solve

    def spy(lp, *accept):
        calls.append(lp)
        return original(lp, *accept)

    def run(fn, *args):
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(auction, "solve", spy)
            result = fn(*args)
        return result, len(calls)

    return run


@pytest.mark.parametrize("n,revenue", [(1, F(5, 2)), (3, F(185, 32))])
def test_ironing_falls_back_to_the_programs(spied_solves, n, revenue):
    instance = irregular(n)
    dual = canonical_flow(instance)
    assert dual.is_feasible()
    assert dual.objective() > revenue
    if n == 1:
        assert (dual.objective(), drev(instance)) == (F(3), revenue)
    mechanism = myerson_mechanism(instance, dual)
    assert not mechanism_feasible(instance, mechanism)
    value, solves = spied_solves(srev, instance)
    assert value == revenue and solves == 1
    report = replace(characterize(instance), ai_witness=dual)
    assert report.drev == revenue
    (_, excess), solves = spied_solves(analysis._tight_dual, instance, report)
    assert excess == 0 and solves == 1


def test_regular_single_item_needs_no_program(spied_solves, u123, pair12, items12):
    with pytest.raises(DimensionMismatch):
        canonical_flow(items12)
    for instance, revenue in ((u123, F(4, 3)), (pair12, F(3, 2))):
        assert spied_solves(srev, instance) == (revenue, 0)
        flow = canonical_flow(instance)
        report = replace(characterize(instance), ai_witness=flow)
        (dual, excess), solves = spied_solves(analysis._tight_dual, instance, report)
        assert (excess, solves) == (0, 0)
        assert dual is flow
        assert myerson_mechanism(instance, dual).revenue(instance) == revenue


def _lp_revenues(instance):
    return solve_form(instance, DS).objective, solve_form(instance, BAYES).objective


def test_characterize_regular_single_item_solves_nothing(spied_solves, u123, pair12):
    iid = gen_instance({"n": 3, "m": 1, "support": 2, "iid": True}, 1)
    for instance in (u123, pair12, iid):
        report, solves = spied_solves(characterize, instance)
        assert solves == 0
        assert (report.drev, report.brev) == _lp_revenues(instance)
        assert report.srev == report.drev and report.ai_witness is not None


@pytest.mark.parametrize("n", [1, 3])
def test_characterize_irons_through_both_programs(spied_solves, n):
    instance = irregular(n)
    report, solves = spied_solves(characterize, instance)
    assert solves == 2
    assert (report.drev, report.brev) == _lp_revenues(instance)


def _bumped_payment(instance, dual):
    mechanism = myerson_mechanism(instance, dual)
    pay = [list(row) for row in mechanism.pay]
    pay[-1][0] += F(1, 4)
    return mechanism_of(mechanism.form, mechanism.alloc, tuple(map(tuple, pay)))


def test_characterize_refuses_a_tampered_proposal(spied_solves, monkeypatch, pair12):
    expected = _lp_revenues(pair12)
    flow = canonical_flow(pair12)
    doubled = tuple(tuple(2 * x for x in column) for column in flow.xi)
    inflated = dual_from_multipliers(pair12, DS, flow.zeta, flow.eta, doubled)
    assert inflated.is_feasible() and inflated.objective() == 2 * expected[0]
    flow_dual = analysis._flow_dual
    with monkeypatch.context() as patched:
        patched.setattr(
            analysis,
            "_flow_dual",
            lambda inst, form, *flow: inflated if form == DS else flow_dual(inst, form, *flow),
        )
        report, solves = spied_solves(characterize, pair12)
    assert solves == 2 and (report.drev, report.brev) == expected
    monkeypatch.setattr(analysis, "myerson_mechanism", _bumped_payment)
    report, solves = spied_solves(characterize, pair12)
    assert solves == 2 and (report.drev, report.brev) == expected


# (shape, seeds): i.i.d. and not at each shape; eight of them need ironing
DIFFERENTIAL = [
    ({"n": 2, "m": 1, "support": 2}, (100, 101, 102)),
    ({"n": 2, "m": 1, "support": 3}, (100, 101, 102)),
    ({"n": 2, "m": 1, "support": 4}, (100, 101)),
    ({"n": 3, "m": 1, "support": 2}, (100, 101, 102)),
    ({"n": 3, "m": 1, "support": 3}, (100, 101)),
    ({"n": 4, "m": 1, "support": 2}, (100, 101)),
]


def _characterize_outputs(instance, seed):
    """The revenue record and the CLI's text block of one instance."""
    reports = []

    def recorded(inst):
        reports.append(characterize(inst))
        return reports[-1]

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()) as out:
        mp.setattr(cli, "characterize", recorded)
        cli._characterize_one(instance)
    return revenue_record(0, seed, instance, reports[0]), out.getvalue()


def test_closed_form_characterize_matches_the_programs(monkeypatch):
    instances = [
        (seed, gen_instance(dict(shape, iid=iid), seed))
        for shape, seeds in DIFFERENTIAL
        for seed in seeds
        for iid in (True, False)
    ]
    proved = []
    original = analysis._accepted

    def spy(instance, mechanism, slacks, dual):
        try:
            proof = original(instance, mechanism, slacks, dual)
        except CertificateError:
            proved.append((dual.form, False))
            raise
        proved.append((dual.form, True))
        return proof

    monkeypatch.setattr(analysis, "_accepted", spy)
    closed = [_characterize_outputs(instance, seed) for seed, instance in instances]
    # 8 of the 30 refused on the DS form, and the Bayesian form, proved
    # only for the other 22, accepted each
    assert proved.count((DS, True)) == proved.count((BAYES, True)) == 22
    assert len(proved) == 30 + 22 and proved.count((DS, False)) == 8
    monkeypatch.setattr(analysis, "proved_certificate", lambda inst, *forms: None)
    programs = [_characterize_outputs(instance, seed) for seed, instance in instances]
    assert closed == programs


def test_is_iid(pair12, gap2x2, u12):
    assert is_iid(pair12)
    assert not is_iid(gap2x2)
    assert is_iid(u12)


# -- optimal-face search ----------------------------------------------------


def test_tight_dual_reaches_zero_excess(u12, u123, pair12, items12):
    for instance in (u12, u123, pair12, items12):
        dual, excess = tight_downward_dual(instance, *ds_optimum(instance))
        assert excess == 0
        assert dual.is_feasible()
        reg = regularize(instance, dual, revenue=drev(instance))
        table = virtual_values(instance, reg)
        assert check_ubvv(table, instance).ok


def test_tight_dual_frozen_small_uniform(u12):
    dual, excess = tight_downward_dual(u12, *ds_optimum(u12))
    assert excess == 0
    # one buyer: type t sits at the profile of rank t
    nonzero = {
        (t, t2): dual.zeta[0][t][t2]
        for t in range(3)
        for t2 in range(3)
        if dual.zeta[0][t][t2]
    }
    assert nonzero == {(1, 0): F(1), (2, 1): F(1, 2)}
    assert dual.eta[0] == (F(1), F(0), F(0))


# The optimal face has many points; which one the search returns depends
# on the simplex's pivot path through the dual program, so pin it.
# Shapes are i.i.d. (n, m, support); the last two end with positive
# excess.
TIGHT_DUAL_PINS = [
    ((3, 1, 2), 0, "0", "20d8670f9c72c49916850c7f67f9589dc20b8f8a702caa1f89f8fc2e66b9193c"),
    ((4, 1, 2), 1, "0", "a1e6a5ed1c2c32adc31a8afe694632f7bf6250dfc79b694428c87ed4d5e05701"),
    ((3, 2, 1), 2, "0", "44dac77ff69e33dac0d11e192676946c58568d8e546a07e96b4b8db0f189966c"),
    ((3, 1, 3), 4, "0", "f75c595bea20a28ef2bb792d727b95292a2ba7bbba4fca15b002e82c759668eb"),
    ((3, 2, 2), 0, "108/343", "fd81ed384a931f2f7678ebbc2df34b94005af47675c9c98efa38417235d3726b"),
    ((3, 2, 2), 3, "3/56", "dbabcd6e141ab409737763e496c9cdb9928fa553286a12781625f9e09f0f1173"),
]


def dual_digest(instance, dual):
    """A dual's multipliers, hashed in the nesting zeta[i][t][t2][s] of
    earlier releases."""
    zeta = tuple(
        tuple(
            tuple(tuple(dual.zeta[i][r][t2] for r in ranks) for t2 in range(k))
            for ranks in zip(*instance.ranks[i])
        )
        for i, k in enumerate(instance.sizes)
    )
    return hashlib.sha256(repr((zeta, dual.eta, dual.xi)).encode()).hexdigest()


def test_tight_dual_is_pinned():
    for (n, m, support), seed, excess, digest in TIGHT_DUAL_PINS:
        instance = gen_instance({"n": n, "m": m, "support": support, "iid": True}, seed)
        dual, got = tight_downward_dual(instance, *ds_optimum(instance))
        assert got == F(excess)
        assert dual_digest(instance, dual) == digest


def test_revenue_face_program_reaches_the_earlier_vertices():
    # The face held to DRev by two rows, as it was searched before the
    # complementary-slackness program, still reaches the vertices pinned
    # then; on these two the restricted program reaches another point of
    # the face, at the same excess 0.
    earlier = {
        ((4, 1, 2), 1): "90d9c0904ce35f367c520c6677a2e3b5da2caf6a667ed7d77f1ecdfb1838b317",
        ((3, 1, 3), 4): "20e944cee051d1dd57ca0388856c13887a214f66a8030ab76d913ac82e6d4ab1",
    }
    for ((n, m, support), seed), digest in earlier.items():
        instance = gen_instance({"n": n, "m": m, "support": support, "iid": True}, seed)
        dual, excess = revenue_face_dual(instance, drev(instance))
        assert excess == 0 and dual_digest(instance, dual) == digest


# (i.i.d. family, seeds): 142 instances for the differential test below
FACE_CORPUS = [
    ({"n": 3, "m": 2, "support": 2}, range(1, 61)),
    ({"n": 3, "m": 1, "support": 2}, range(1, 41)),
    ({"n": 4, "m": 1, "support": 2}, range(1, 11)),
    ({"n": 3, "m": 2, "support": 3}, range(1, 13)),
    ({"n": 3, "m": 1, "support": 3}, range(1, 21)),
]


def test_slackness_face_agrees_with_the_revenue_face():
    # The face program read off the DS optimum by complementary slackness
    # and the explicit dual held to DRev describe one face, so their
    # minima agree; the vertices may not, and the verdict the scan reads
    # off the regularized vertex agrees too.
    for family, seeds in FACE_CORPUS:
        for seed in seeds:
            instance = gen_instance(dict(family, iid=True), seed)
            mechanism, slacks = ds_optimum(instance)
            revenue = mechanism.revenue(instance)
            verdicts = []
            for dual, excess in (
                tight_downward_dual(instance, mechanism, slacks),
                revenue_face_dual(instance, revenue),
            ):
                regular = regularize(instance, dual, revenue=revenue)
                verdicts.append(
                    (excess, check_ubvv(virtual_values(instance, regular), instance).ok)
                )
            assert verdicts[0] == verdicts[1], (family, seed)


def test_face_excess_matches_the_face_search(u12):
    # the last pin ends with excess 3/56, through mass on raising pairs
    positive = gen_instance({"n": 3, "m": 2, "support": 2, "iid": True}, 3)
    for instance, expected in ((u12, F(0)), (positive, F(3, 56))):
        dual, excess = tight_downward_dual(instance, *ds_optimum(instance))
        assert face_excess(instance, dual) == excess == expected


def test_tight_dual_refuses_a_suboptimal_mechanism(u12, pair12):
    # No dual meets a feasible mechanism below DRev by complementary
    # slackness, so its face program is empty and no dual is built.  The
    # spy sees the face search's calls only: drev's solve proves its
    # vertex through _dual_at too.
    built = []

    def faced(instance, mechanism, slacks):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(auction, "_dual_at", lambda *args: built.append(args))
            tight_downward_dual(instance, mechanism, slacks)

    for instance in (u12, pair12):
        mechanism, _ = ds_optimum(instance)
        (alloc, pay), den = mechanism.scaled
        halved = Mechanism(DS, Scaled((alloc, pay), 2 * den))
        for suboptimal in (halved, zero_mechanism(instance)):
            slacks = mechanism_slacks(instance, suboptimal)
            assert mechanism_feasible(instance, suboptimal, slacks)
            assert suboptimal.revenue(instance) < drev(instance)
            with pytest.raises(NotOptimal):
                faced(instance, suboptimal, slacks)
        # and an infeasible one is no optimum at all
        doubled_pay = tuple(tuple(2 * q for q in row) for row in pay)
        doubled = Mechanism(DS, Scaled((alloc, doubled_pay), den))
        with pytest.raises(InfeasibleInput):
            faced(instance, doubled, mechanism_slacks(instance, doubled))
    assert built == []


def test_tight_dual_refuses_a_vertex_it_cannot_accept(monkeypatch):
    # A face vertex read back wrong stands for a program built wrong,
    # not for a bad argument: the one acceptance (auction._accepted)
    # refuses it, and the search ends in NotOptimal with its reason.
    instance = gen_instance({"n": 3, "m": 1, "support": 2, "iid": True}, 1)
    mechanism, slacks = ds_optimum(instance)
    read = auction._multipliers

    def negated_eta(instance, layout, values):
        zeta, eta, xi = read(instance, layout, values)
        k = next(k for k, q in enumerate(eta[0]) if q)
        return zeta, ((*eta[0][:k], -eta[0][k], *eta[0][k + 1:]), *eta[1:]), xi

    def doubled_xi(instance, layout, values):
        zeta, eta, xi = read(instance, layout, values)
        return zeta, eta, tuple(tuple(2 * q for q in row) for row in xi)

    for misread, reason in (
        (negated_eta, "dual violates feasibility"),
        (doubled_xi, "duality gap nonzero"),
    ):
        with monkeypatch.context() as patched:
            patched.setattr(auction, "_multipliers", misread)
            with pytest.raises(NotOptimal, match=f"^optimal-face dual refused: {reason}$"):
                tight_downward_dual(instance, mechanism, slacks)


# -- the scan's tight dual --------------------------------------------------

IID_TWO_ITEMS = {"n": 3, "m": 2, "support": 2, "iid": True}
# from the iid-scan corpus: BRev = DRev, and its equality witness has excess 0
EQUAL_SEED = 1055119864


def test_scan_takes_the_equality_witness(spied_solves):
    # the DS and Bayesian programs, and no face program
    (record,), solves = spied_solves(lambda: list(gen_records(IID_TWO_ITEMS, EQUAL_SEED, 1)))
    assert record["brev_eq_drev"] and record["tight_excess"] == "0"
    assert solves == 2


def test_scan_without_a_witness_solves_the_face(spied_solves):
    # (3, 2, 2) seed 3 is the last TIGHT_DUAL_PINS entry: BRev > DRev
    (record,), solves = spied_solves(lambda: list(gen_records(IID_TWO_ITEMS, 3, 1)))
    assert not record["brev_eq_drev"] and record["tight_excess"] == "3/56"
    assert solves == 3


def test_tight_dual_refuses_bad_witnesses(spied_solves):
    instance = gen_instance(IID_TWO_ITEMS, EQUAL_SEED)
    report = characterize(instance)
    witness = report.ai_witness
    revenue = witness.objective()
    pinned = tight_downward_dual(instance, *report.ds_optimum)
    # move participation mass so that one eta goes negative and the
    # excess and objective stay as they were
    eta = [list(column) for column in witness.eta]
    eta[0][1] += eta[0][0] + 1
    eta[0][0] = F(-1)
    eta = tuple(map(_scale, map(tuple, eta)))
    negative = replace(witness, scaled=witness.scaled._replace(eta=eta))
    doubled = tuple(tuple(2 * x for x in column) for column in witness.xi)
    inflated = dual_from_multipliers(instance, DS, witness.zeta, witness.eta, doubled)
    certified = extract_dual(instance, solve_form(instance, DS), DS)
    assert not negative.is_feasible()
    assert negative.objective() == revenue and face_excess(instance, negative) == 0
    assert inflated.is_feasible() and inflated.objective() == 2 * revenue
    assert certified.is_feasible() and certified.objective() == revenue
    assert face_excess(instance, certified) == F(95, 3456)
    for bad in (negative, inflated, certified):
        got, solves = spied_solves(
            analysis._tight_dual, instance, replace(report, ai_witness=bad)
        )
        assert (got, solves) == (pinned, 1)


def test_tight_dual_takes_the_witness_after_a_declined_flow(spied_solves):
    # characterize declines the flow, which overshoots DRev, and the
    # witness it builds from the programs has excess 0
    instance = irregular(3)
    report = characterize(instance)
    assert canonical_flow(instance).objective() > report.drev
    (dual, excess), solves = spied_solves(analysis._tight_dual, instance, report)
    assert (excess, solves) == (0, 0)
    assert dual is report.ai_witness


def test_the_witness_is_the_flow_whenever_the_flow_qualifies():
    # Why the scan offers _tight_dual the witness alone: when the
    # canonical flow is feasible with objective DRev, the witness
    # characterize builds equals it.  On the closed form it is the flow
    # itself; otherwise the flow is regular and agent-independent, and
    # the maps and regularization leave it as it is.  Then the flow
    # never qualifies without a witness.
    qualified = 0
    shapes = [(3, 2), (3, 3), (3, 4), (4, 2)]
    for (n, support), seed in itertools.product(shapes, range(10)):
        instance = gen_instance({"n": n, "m": 1, "support": support, "iid": True}, seed)
        report = characterize(instance)
        flow = canonical_flow(instance)
        if flow.is_feasible() and flow.objective() == report.drev:
            qualified += 1
            assert report.ai_witness == flow
    assert qualified >= 30


# -- carried duals ----------------------------------------------------------
#
# characterize keeps the duals it proved: on the closed form the
# canonical flow is the witness itself, and the witness's DS table
# travels on the report, so the scan reads it instead of building it
# again.


def _counted(monkeypatch, *names):
    """Count the calls characterize and the scan make to these analysis
    functions.  A name written "function:form" counts only the calls
    whose dual is of that form."""
    calls = dict.fromkeys(names, 0)
    for function in dict.fromkeys(name.split(":")[0] for name in names):
        original = getattr(analysis, function)

        def spy(*args, _function=function, _original=original, **kwargs):
            (dual,) = [arg for arg in (*args, *kwargs.values()) if isinstance(arg, DualSolution)]
            for key in (_function, f"{_function}:{dual.form}"):
                if key in calls:
                    calls[key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(analysis, function, spy)
    return calls


def test_closed_form_witness_is_the_flow(monkeypatch, pair12):
    calls = _counted(monkeypatch, "bic_to_dsic_dual", "virtual_values:ds")
    report = characterize(pair12)
    assert calls == {"bic_to_dsic_dual": 0, "virtual_values:ds": 1}
    assert report.ai_witness == canonical_flow(pair12)
    assert report.witness_table == virtual_values(pair12, report.ai_witness)


def test_two_item_witness_is_mapped_once(monkeypatch):
    instance = gen_instance(IID_TWO_ITEMS, EQUAL_SEED)
    calls = _counted(monkeypatch, "bic_to_dsic_dual", "virtual_values:ds")
    report = characterize(instance)
    assert calls == {"bic_to_dsic_dual": 1, "virtual_values:ds": 1}
    assert report.witness_table == virtual_values(instance, report.ai_witness)


@pytest.mark.parametrize(
    "family, seed, witnessed",
    [
        # two closed forms, each tight dual its witness
        ({"n": 3, "m": 1, "support": 2, "iid": True}, 1, 2),
        # BRev = DRev on two items, its witness the tight dual
        (IID_TWO_ITEMS, EQUAL_SEED, 1),
        # BRev > DRev: no witness, the face program's dual gets a table
        (IID_TWO_ITEMS, 3, 0),
    ],
)
def test_scan_builds_one_table_per_witnessed_instance(monkeypatch, family, seed, witnessed):
    count = max(witnessed, 1)
    calls = _counted(monkeypatch, "virtual_values:ds")
    records = list(gen_records(family, seed, count))
    assert calls == {"virtual_values:ds": count}
    assert sum(record["brev_eq_drev"] for record in records) == witnessed


def test_iid_scan_corpus_maps_and_tabulates_once(monkeypatch, tmp_path):
    # the benchmark's seed-1 pass: 41 instances, 33 on the closed form;
    # the 6 mappings left are the two-item witnesses, and each instance
    # gets one DS table (39 mappings and 80 tables before the duals were
    # carried forward).  Only the 2 tight duals that are not their
    # witness are regularized: building the witness's table proved it
    # regular
    ops = perfbench_corpus(monkeypatch, "iid-scan", 1, tmp_path)
    calls = _counted(monkeypatch, "bic_to_dsic_dual", "virtual_values:ds", "regularize:ds")
    with contextlib.redirect_stdout(io.StringIO()):
        assert all(cli.main(op.argv) == 0 for op in ops)
    assert len(ops) == 41
    assert calls == {"bic_to_dsic_dual": 6, "virtual_values:ds": 41, "regularize:ds": 2}


def _without_carried_duals(mp):
    """Map every witness through bic_to_dsic_dual and build every table
    the scan reads: the Bayesian regularization and the tight dual's
    selection return a value-equal copy, never the dual they were
    given, so no witness is the flow and no tight dual is the witness."""
    mp.setattr(analysis, "regularize", _bayes_copied(analysis.regularize))
    tight = analysis._tight_dual

    def tight_copy(instance, report):
        dual, excess = tight(instance, report)
        return replace(dual, scaled=dual.scaled), excess

    mp.setattr(analysis, "_tight_dual", tight_copy)


def _bayes_copied(regularize):
    """regularize, save that a Bayesian dual's result is a value-equal
    copy, never the dual it was given."""

    def regularized(instance, dual, revenue):
        regular = regularize(instance, dual, revenue=revenue)
        if dual.form == BAYES:
            regular = replace(regular, scaled=regular.scaled)
        return regular

    return regularized


# (n, m, support), i.i.d. and not, seeds 0-5: 96 instances
CARRIED_SHAPES = [
    (3, 1, 2), (3, 1, 3), (3, 1, 4), (4, 1, 2), (4, 1, 3), (3, 2, 2), (3, 2, 3), (4, 2, 2)
]


def _carried_outputs(family, seed):
    """characterize's report and the witness's table, and the scan's
    record when the buyers are drawn alike."""
    reports = []

    def recorded(inst):
        reports.append(characterize(inst))
        return reports[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "characterize", recorded)
        records = list(gen_records(family, seed, 1)) if family["iid"] else None
    report = reports[0] if reports else characterize(gen_instance(family, seed))
    return report, report.witness_table, records


def test_carried_duals_change_no_output():
    calls = {}
    for carried in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            if not carried:
                _without_carried_duals(mp)
            counts = _counted(mp, "bic_to_dsic_dual", "virtual_values:ds")
            outputs = [
                _carried_outputs({"n": n, "m": m, "support": support, "iid": iid}, seed)
                for (n, m, support), iid, seed in itertools.product(
                    CARRIED_SHAPES, (True, False), range(6)
                )
            ]
        calls[carried] = counts
        if carried:
            expected = outputs
    # revenues, findings and the witness by value (the flags follow),
    # the witness's table and the scan's records
    assert outputs == expected
    assert sum(report.ai_witness is not None for report, _, _ in outputs) == 78
    # 53 witnesses are the flow, and 40 scanned tight duals are witnesses
    assert calls[False]["bic_to_dsic_dual"] - calls[True]["bic_to_dsic_dual"] == 53
    assert calls[False]["virtual_values:ds"] - calls[True]["virtual_values:ds"] == 40


def test_flow_witness_ledger_is_zero_unchecked():
    # a flow witness is proved optimal with the mechanism, so characterize
    # sums no ledger for it; forcing the check (a value-equal copy of the
    # regularized dual sends the witness through bic_to_dsic_dual and
    # check_cs) changes no report, and the skipped ledger is zero
    instances = [
        gen_instance({"n": n, "m": 1, "support": support, "iid": iid}, seed)
        for (n, support), iid, seed in itertools.product(
            [(1, 3), (2, 2), (2, 4), (3, 2), (4, 2)], (True, False), range(4)
        )
    ]
    outputs, checked = {}, {}
    for forced in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if forced:
                mp.setattr(analysis, "regularize", _bayes_copied(analysis.regularize))
            calls = _counted(mp, "check_cs:ds")
            reports = [characterize(instance) for instance in instances]
        outputs[forced] = [(report, report.witness_table) for report in reports]
        checked[forced] = calls["check_cs:ds"]
    # revenues, findings and the witness by value, and the witness's table
    assert outputs[True] == outputs[False]
    witnessed = [
        (instance, report)
        for instance, (report, _) in zip(instances, outputs[False])
        if report.ai_witness is not None
    ]
    # every instance has a witness, and 34 of them are the flow
    assert (len(witnessed), checked[True], checked[False]) == (40, 40, 6)
    for instance, report in witnessed:
        mechanism, slacks = report.ds_optimum
        ledger = check_cs(instance, mechanism, report.ai_witness, slacks=slacks)
        assert (ledger.ic, ledger.ir, ledger.supply, ledger.alloc, ledger.pay) == (0,) * 5


def _raised_xi(instance, form, dual):
    """dual with xi one numerator higher at every profile: still
    feasible, but its objective passes every mechanism's revenue, so
    the closed form's revenue check refuses it."""
    nums = dual.scaled
    multipliers = [Scaled((z.nums, e.nums), z.den) for z, e in zip(nums.zeta, nums.eta)]
    (row,), den = nums.xi
    return _dual_from_scaled(instance, form, multipliers, Scaled((tuple(x + 1 for x in row),), den))


# (n, support, seed) of one-item i.i.d. instances whose DS optimum in
# closed form, Myerson's auction, is not the programs' optimal vertex
MIXED_CASES = [(2, 3, 0), (3, 2, 0), (3, 2, 3), (3, 3, 0), (3, 3, 2)]


@pytest.mark.parametrize("form", [DS, BAYES])
def test_a_mixed_refusal_takes_both_optima_from_the_programs(form):
    # the two closed forms accepted or refused together on every seeded
    # instance tried, but nothing proves they must; with one form's dual
    # tampered only that form refuses, and characterize and the scan
    # answer as they do with no closed form at all, down to the DS
    # optimum the report keeps
    other = BAYES if form == DS else DS
    for n, support, seed in MIXED_CASES:
        family = {"n": n, "m": 1, "support": support, "iid": True}
        instance = gen_instance(family, seed)

        def outputs():
            report, table, records = _carried_outputs(family, seed)
            return report, report.ds_optimum, table, records

        closed = outputs()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "proved_certificate", lambda inst, *forms: None)
            programs = outputs()
        assert closed != programs
        with pytest.MonkeyPatch.context() as mp:
            original = analysis._flow_dual

            def tampered(inst, at, *flow):
                dual = original(inst, at, *flow)
                return _raised_xi(inst, at, dual) if at == form else dual

            mp.setattr(analysis, "_flow_dual", tampered)
            assert proved_certificate(instance, form) is None
            assert proved_certificate(instance, other) is not None
            assert proved_certificate(instance, DS, BAYES) is None
            assert outputs() == programs


# -- agent independence -----------------------------------------------------


def test_witness_dual_is_agent_independent(pair12):
    witness = bic_to_dsic_dual(pair12, bayes_regular(pair12))
    ok, detail = check_agent_independence(pair12, witness)
    assert ok and detail is None


def doctored_slice_dual(pair12):
    witness = bic_to_dsic_dual(pair12, bayes_regular(pair12))
    zeta = [[list(row) for row in buyer] for buyer in witness.zeta]
    # a matched pair of bumps keeps every psi row intact, so the dual
    # stays regular while one opponent slice drifts away
    ranks = pair12.ranks[0][2]
    zeta[0][ranks[1]][0] += F(1, 8)
    zeta[0][ranks[0]][1] += F(1, 8)
    frozen = tuple(tuple(tuple(row) for row in buyer) for buyer in zeta)
    return dual_from_multipliers(pair12, DS, frozen, witness.eta, witness.xi)


def test_slice_dependence_is_detected(pair12):
    ok, detail = check_agent_independence(pair12, doctored_slice_dual(pair12))
    assert not ok
    assert detail == ("zeta", (0, 0, 1, 2))


# -- equivalence maps -------------------------------------------------------


def test_bic_to_dsic_preserves_objective(pair12):
    regular = bayes_regular(pair12)
    mapped = bic_to_dsic_dual(pair12, regular)
    assert mapped.objective() == regular.objective()
    assert mapped.is_feasible()


def test_round_trip_recovers_multipliers(pair12):
    regular = bayes_regular(pair12)
    back = dsic_to_bic_dual(pair12, bic_to_dsic_dual(pair12, regular))
    assert back == regular


def test_dsic_to_bic_rejects_slice_dependence(pair12):
    with pytest.raises(NotAgentIndependent):
        dsic_to_bic_dual(pair12, doctored_slice_dual(pair12))


# -- a dual's form ----------------------------------------------------------


@pytest.mark.parametrize("two_items", [False, True])
def test_a_dual_of_the_other_form_is_refused(pair12, two_items):
    # BRev = DRev on both instances, so each form's mechanism and the
    # other form's dual are both feasible, of equal objective: only their
    # forms tell them apart.  No proof is made of such a pair, so no
    # certificate document is written from one, and no ledger is summed.
    # A reader of one form names the form it needs on the other, and
    # regularization keeps each dual in its own form.
    instance = gen_instance(IID_TWO_ITEMS, EQUAL_SEED) if two_items else pair12
    ds, bayes = (auction._proof(instance, solve_form(instance, form), form) for form in (DS, BAYES))
    assert ds.objective == bayes.objective
    for proof, other in ((ds, bayes), (bayes, ds)):
        mechanism, slacks, form = proof.mechanism, proof.slacks, proof.mechanism.form
        with pytest.raises(CertificateError, match=f"dual does not prove a {form} mechanism"):
            auction._accepted(instance, mechanism, slacks, other.dual)
        needed = f"^a {form} dual is needed, not a {other.dual.form} one$"
        with pytest.raises(DimensionMismatch, match=needed):
            check_cs(instance, mechanism, other.dual, slacks=slacks)
        regular = regularize(instance, proof.dual, revenue=proof.objective)
        assert regular.form == form
        assert check_cs(instance, mechanism, regular, slacks=slacks).optimal
    for reader in (dsic_to_bic_dual, face_excess, check_agent_independence):
        with pytest.raises(DimensionMismatch, match="^a ds dual is needed, not a bayes one$"):
            reader(instance, bayes.dual)
    with pytest.raises(DimensionMismatch, match="^a bayes dual is needed, not a ds one$"):
        bic_to_dsic_dual(instance, ds.dual)


# -- characterization -------------------------------------------------------


def test_characterize_single_buyer(u12):
    report = characterize(u12)
    assert (report.brev, report.drev, report.srev) == (F(1), F(1), F(1))
    assert report.brev_eq_drev and report.drev_eq_srev and report.srev_eq_brev
    assert report.ai_witness is not None
    assert check_agent_independence(u12, report.ai_witness)[0]
    assert report.findings == ()


def test_characterize_correlated_gap(gap2x2):
    report = characterize(gap2x2)
    assert report.brev == F(239, 56)
    assert report.drev == F(179, 42)
    assert report.srev == F(1423, 336)
    assert not report.brev_eq_drev
    assert report.ai_witness is None
    assert report.findings == ()


def test_characterize_three_buyer_bundles():
    support = [[0, 0], [1, 1], [1, 2], [2, 1], [2, 2]]
    masses = [0, "1/4", "1/4", "1/4", "1/4"]
    inst = build(3, 2, [support] * 3, [masses] * 3)
    report = characterize(inst)
    assert report.brev == F(231, 64)
    assert report.drev == F(227, 64)
    assert report.srev == F(7, 2)
    assert not any(
        (report.brev_eq_drev, report.drev_eq_srev, report.srev_eq_brev)
    )
    assert report.findings == ()


def test_characterize_iid_triple_all_equal():
    inst = gen_instance({"n": 3, "m": 1, "support": 2, "iid": True}, 5)
    report = characterize(inst)
    assert report.brev == report.drev == report.srev == F(104, 27)
    assert report.ai_witness is not None
    assert report.findings == ()


# -- scanning ---------------------------------------------------------------


# Claim 2 splits when the buyers are drawn alike but each buyer's items
# are drawn jointly: (seed, instance digest, BRev = DRev, SRev) of
# n=3, m=2, support=2, iid=1, each with BRev = DRev > SRev
CLAIM_2_SPLITS = [
    (6, "f9ac799874020a4d", "1195/288", "3581/864"),
    (9, "4e8b11643d8355f6", "3479/768", "3263/768"),
    (12, "23eac53eecd93ed4", "298/81", "296/81"),
    (20, "53b252576ecb79c9", "1213/250", "584/125"),
    (27, "120d791d258aab85", "16804/3993", "16156/3993"),
]


def test_correlated_items_split_the_equalities():
    for seed, digest, revenue, separate in CLAIM_2_SPLITS:
        instance = gen_instance(IID_TWO_ITEMS, seed)
        report = characterize(instance)
        assert instance.digest() == digest
        assert (report.brev, report.drev, report.srev) == (F(revenue), F(revenue), F(separate))
        assert report.equality_split
        finding = f"iid-equality-split:brev={revenue},drev={revenue},srev={separate}"
        assert report.findings == (finding,)
        (record,) = gen_records(IID_TWO_ITEMS, seed, 1)
        assert record["digest"] == digest and record["findings"] == [finding]
        assert record["all_equal_consistent"] is False


@pytest.mark.parametrize(
    "family",
    [
        {"n": 3.5, "m": 1, "iid": True},
        {"n": 2.9, "m": 1, "iid": True},
        {"n": 3, "supprt": 2, "iid": True},
    ],
)
def test_iid_scan_refuses_a_bad_family(family):
    with pytest.raises(DimensionMismatch):
        next(gen_records(family, 0, 1))


def test_iid_scan_records(u12):
    spec = {"n": 3, "m": 1, "support": 2, "iid": True}
    records = list(gen_records(spec, 1, 3))
    assert [r["brev"] for r in records] == ["11/24", "189/64", "10/3"]
    for index, record in enumerate(records):
        assert record["index"] == index
        assert record["seed"] == 1 + index
        assert record["tight_excess"] == "0"
        assert record["ubvv_ok"] is True
        assert record["all_equal_consistent"] is True
        flags = (
            record["brev_eq_drev"],
            record["drev_eq_srev"],
            record["srev_eq_brev"],
        )
        assert (record["bayes_gap"] == "0") == record["brev_eq_drev"]
        assert all(flags) or not any(flags)
    assert list(gen_records(spec, 1, 3)) == records
