"""Program builders, the transposed duals, extraction, extension to
off-support profiles, and certificate documents."""

import hashlib
import io
import itertools
import json
import math
import random
import re
from dataclasses import replace
from fractions import Fraction
from functools import partial
from operator import truediv

import pytest
from hypothesis import given, strategies as st

from auctionlp import auction
from auctionlp.auction import (
    BAYES,
    DS,
    ProgramLayout,
    _accept,
    _build_primal,
    _dual_at,
    _layout,
    _mechanism_entries,
    _positive_columns,
    brev,
    build_blp,
    build_dslp,
    build_dual_blp,
    build_dual_dslp,
    certificate_document,
    drev,
    extend_bayes,
    extend_ds,
    extract_dual,
    extract_mechanism,
    load_certificate,
    profile_key,
    solve_form,
    verify_certificate_document,
    write_certificate,
)
from auctionlp.analysis import proved_certificate
from auctionlp.cli import main
from auctionlp.errors import DimensionMismatch, InfeasibleInput, LabelMismatch, NotRational
from auctionlp.lp import CertificateError, MIN, LpCertificate, dual_of, simplex, solve
from auctionlp.model import Instance, Mechanism, _scale, mechanism_feasible, rat, rat_str, ratio
from auctionlp.oracles import gen_instance
from baselines import threshold_auction_revenue
from conftest import REPROOF_PATHS, build, reprove_on
from helpers import (
    assert_frozen,
    insert,
    labels,
    others_profiles,
    parse_profile_key,
    reference_index_of,
    reference_names,
    reference_positive_columns,
    seeded_sizes,
)

F = Fraction


# -- labels -----------------------------------------------------------------


@given(st.lists(st.integers(0, 9), max_size=4).map(tuple))
def test_profile_key_round_trip(profile):
    key = profile_key(profile)
    assert parse_profile_key(key) == profile
    if not profile:
        assert key == "_"


def test_label_counts_match_dimensions(pair12, items12):
    for instance in (pair12, items12):
        profiles = math.prod(instance.sizes)
        dslp = build_dslp(instance)
        rows, cols = labels(_layout(instance, DS))
        assert len(cols) == dslp.ncols
        assert len(cols) == instance.n * instance.m * profiles + instance.n * profiles
        ic = sum(
            (size - 1) * profiles for size in instance.sizes
        )
        assert len(rows) == dslp.nrows
        assert len(rows) == ic + instance.n * profiles + instance.m * profiles
        assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)

        blp = build_blp(instance)
        b_rows, b_cols = labels(_layout(instance, BAYES))
        assert b_cols == cols
        ic_b = sum(size * (size - 1) for size in instance.sizes)
        types = sum(instance.sizes)
        assert len(b_rows) == blp.nrows == ic_b + types + instance.m * profiles
        assert len(set(b_rows)) == len(b_rows)


@pytest.mark.parametrize("form", [DS, BAYES])
def test_labels_match_their_definition(form):
    # unequal support sizes, so a mixed-up buyer or stride shows
    for n in (1, 2, 3):
        for m in (1, 2):
            layout = ProgramLayout(form, m, (3, 2, 4)[:n])
            assert labels(layout) == reference_names(layout)


# each names no row or column of a two-item program for sizes (3, 2):
# a field out of range, not in canonical form, or of the wrong kind
NOT_LABELS = [
    "", ":", "x", "x:0:0", "x:0:0:0.0:", "x:0:0:01", "x:0:0:0.0.0", "x:0:0:3.0",
    "x:0:2:0.0", "x:00:0:0.0", "x:0:0:+1.0", "x: 0:0:0.0", "x:0:0:٣.0",
    "p:2:0.0", "sup:-1:0.0", "sup:2:0.0", "ir:-1:0.0", "ir:0:3", "ic:0:0.0:0",
    "ic:0:1.0:3", "ic:0:0.0", "ic:0:x:1",
]


# support sizes of two-item layouts; a buyer with one type has no ic
# rows, so its empty block shares its first row with the next one
LAYOUT_SIZES = ((3, 2), (1,), (1, 3), (3, 1), (2, 1, 2), (1, 1, 2))


@pytest.mark.parametrize("sizes", seeded_sizes())
def test_profile_names_match_their_definition(sizes):
    layout = ProgramLayout(DS, 1, sizes)
    profiles = list(itertools.product(*map(range, sizes)))
    assert layout._names == (profiles, [profile_key(v) for v in profiles])
    assert list(layout._ranks.items()) == [(profile_key(v), r) for r, v in enumerate(profiles)]


@pytest.mark.parametrize("form", [DS, BAYES])
def test_mechanism_entries_are_the_vectors_own_columns(form):
    for sizes, m in zip(LAYOUT_SIZES, itertools.cycle((1, 2, 3))):
        layout = ProgramLayout(form, m, sizes)
        # the sizes are all _mechanism_entries reads of an instance
        instance = Instance(len(sizes), m, tuple(((0,) * m,) * k for k in sizes), ())
        vector = tuple(range(layout.shape[1]))
        count = instance.profile_count
        alloc, pay = _mechanism_entries(instance, layout, vector)
        assert alloc == tuple(
            tuple(vector[layout.x(i, j, 0) : layout.x(i, j, 0) + count] for j in range(m))
            for i in range(instance.n)
        )
        assert pay == tuple(
            vector[layout.p(i, 0) : layout.p(i, 0) + count] for i in range(instance.n)
        )
        # entry by entry, each column lists its layout index by rank
        for i, (items, paid) in enumerate(zip(alloc, pay)):
            for j, column in enumerate(items):
                assert column == tuple(layout.x(i, j, r) for r in range(count))
            assert paid == tuple(layout.p(i, r) for r in range(count))


@pytest.mark.parametrize("sizes", seeded_sizes())
def test_positive_columns_match_their_definition(sizes):
    rng = random.Random(repr(sizes))
    m = 3 if len(sizes) == 1 else rng.randint(1, 2)
    # the sizes are all the layout reads of an instance
    instance = Instance(len(sizes), m, tuple(((0,) * m,) * k for k in sizes), ())
    count, entries = instance.profile_count, (0, 0, 1, 2, Fraction(1, 3), -1)

    def column():
        # a quarter of the columns are zero throughout
        zero = rng.random() < 0.25
        return tuple(Fraction(0 if zero else rng.choice(entries)) for _ in range(count))

    alloc = tuple(tuple(column() for _ in range(m)) for _ in sizes)
    pay = tuple(column() for _ in sizes)
    mechanism = Mechanism(DS, _scale((alloc, pay)))
    assert _positive_columns(mechanism) == reference_positive_columns(instance, mechanism)


@pytest.mark.parametrize("form", [DS, BAYES])
def test_labels_read_back_to_their_index(form):
    for sizes in LAYOUT_SIZES:
        layout = ProgramLayout(form, 2, sizes)
        rows, cols = labels(layout)
        assert (rows, cols) == reference_names(layout)
        assert [layout.index_of(label, True) for label in rows] == list(range(len(rows)))
        assert [layout.index_of(label, False) for label in cols] == list(range(len(cols)))
        assert all(layout.index_of(label, False) is None for label in rows)
        assert all(layout.index_of(label, True) is None for label in cols)
    layout = ProgramLayout(form, 2, (3, 2))
    rows, cols = labels(layout)
    for label in NOT_LABELS:
        assert label not in rows and label not in cols
        assert layout.index_of(label, True) is layout.index_of(label, False) is None
        assert reference_index_of(layout, label, True) is None
        assert reference_index_of(layout, label, False) is None


@pytest.mark.parametrize("form", [DS, BAYES])
def test_labels_read_as_rendering_back_reads_them(form):
    for sizes in LAYOUT_SIZES:
        layout = ProgramLayout(form, 2, sizes)
        for label in itertools.chain(*labels(layout)):
            for row in (True, False):
                assert layout.index_of(label, row) == reference_index_of(layout, label, row)


# Arabic-Indic and full-width digits, which int() reads as ASCII ones
NON_ASCII_DIGITS = ["٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９"]

# Edits of one label field (or of one "."-separated part of a profile
# key) that the renderer never writes, save by chance the out-of-range
# number and the swapped kind.
FIELD_EDITS = {
    "leading zero": lambda part, draw: "0" + part,
    "sign": lambda part, draw: draw(st.sampled_from("+-")) + part,
    "whitespace": lambda part, draw: draw(st.sampled_from([" ", "\t", "\n"])) + part,
    "non-ascii digit": lambda part, draw: part.translate(
        str.maketrans("0123456789", draw(st.sampled_from(NON_ASCII_DIGITS)))
    ),
    "number": lambda part, draw: str(draw(st.integers(0, 12))),
}


@st.composite
def edited_labels(draw):
    """(layout, label): a label of a LAYOUT_SIZES layout, edited."""
    form, sizes = draw(st.sampled_from([DS, BAYES])), draw(st.sampled_from(LAYOUT_SIZES))
    layout = ProgramLayout(form, 2, sizes)
    rows, cols = labels(layout)
    edit = draw(st.sampled_from(["field", "drop", "add", "kind", "own report"]))
    if edit == "own report":  # an ic row whose report is its own type
        owned = [row for row in rows if not row.startswith("sup")]
        _, i, key = draw(st.sampled_from(owned)).split(":")[:3]
        own = key.split(".")[int(i)] if form == DS else key
        return layout, f"ic:{i}:{key}:{own}"
    fields = draw(st.sampled_from(rows + cols)).split(":")
    if edit == "field":
        f = draw(st.integers(1, len(fields) - 1))
        parts = fields[f].split(".")
        a = draw(st.integers(0, len(parts) - 1))
        parts[a] = draw(st.sampled_from(list(FIELD_EDITS.values())))(parts[a], draw)
        fields[f] = ".".join(parts)
    elif edit == "drop":
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif edit == "add":
        fields.insert(draw(st.integers(0, len(fields))), str(draw(st.integers(0, 3))))
    else:
        fields[0] = draw(st.sampled_from(["x", "p", "ic", "ir", "sup", "", "X", "ic "]))
    return layout, ":".join(fields)


@given(edited_labels())
def test_edited_labels_read_as_rendering_back_reads_them(case):
    layout, label = case
    for row in (True, False):
        assert layout.index_of(label, row) == reference_index_of(layout, label, row)


@pytest.mark.parametrize("form", [DS, BAYES])
def test_both_forms_share_one_row_order(form):
    # all ic rows, then all ir rows, then all sup rows; inside each kind
    # the buyer (the item, for sup) never decreases
    kinds = ("ic", "ir", "sup")
    for sizes in LAYOUT_SIZES:
        rows, _ = labels(ProgramLayout(form, 2, sizes))
        fields = [row.split(":") for row in rows]
        order = [(kinds.index(kind), int(owner)) for kind, owner, *_ in fields]
        assert order == sorted(order)


# -- dual programs are transposes ------------------------------------------

TRANSPOSE_SHAPES = [
    ({"n": 1, "m": 2, "support": 3}, 2),
    ({"n": 2, "m": 1, "support": 3}, 4),
    ({"n": 3, "m": 1, "support": 2, "iid": True}, 6),
    ({"n": 2, "m": 2, "support": 2}, 9),
]


def test_explicit_dual_matches_symbolic_dual():
    # a layout describes the primal alone: a dual program's rows are the
    # primal's columns and its columns the primal's rows
    builds = ((DS, build_dslp, build_dual_dslp), (BAYES, build_blp, build_dual_blp))
    for spec, seed in TRANSPOSE_SHAPES:
        instance = gen_instance(spec, seed)
        for form, build_primal, build_dual in builds:
            primal = build_primal(instance)
            dual = build_dual(instance)
            assert dual == dual_of(primal)
            assert dual.sense == MIN
            assert (dual.nrows, dual.ncols) == (primal.ncols, primal.nrows)
            assert _layout(instance, form).shape == (primal.nrows, primal.ncols)


# Seeded instances for the float program: two to four buyers, one or two
# items, two to five nonzero types, values and masses over denominators
# above 1.  Seed 1 of the 36- and the two-item 27-profile shape gives
# every zero type mass; every other instance has a zero-mass type.
FLOAT_PROGRAM_SHAPES = [
    {"n": 2, "m": 1, "support": 2},
    {"n": 2, "m": 1, "support": 5},
    {"n": 2, "m": 2, "support": 3},
    {"n": 3, "m": 1, "support": 3},
    {"n": 3, "m": 2, "support": 2},
    {"n": 4, "m": 1, "support": 2},
    {"n": 2, "m": 2, "support": 4, "denominator": 7},
    {"n": 3, "m": 1, "support": 2, "iid": True},
]


def pivots_of(monkeypatch, run):
    """run()'s result and the pivots it made, counted at simplex.eliminate."""
    pivots = []
    original = simplex.eliminate

    def counting(tableau, r, c):
        pivots.append(tableau.tol)
        original(tableau, r, c)

    with monkeypatch.context() as patched:
        patched.setattr(simplex, "eliminate", counting)
        result = run()
    return result, len(pivots)


def test_float_program_is_the_exact_program_in_floats(monkeypatch):
    # The float pass of solve_form reads a program built in floats from
    # the instance's integers; it holds the float of every coefficient
    # of the exact program, as converting it entry by entry gives, and
    # so solve_form reaches the certificate, in as many pivots, that
    # solving the exact program does.  No package program passes through
    # make_lp, so the exact build and its transpose are held to it here.
    zero_mass = set()
    for spec, seed in itertools.product(FLOAT_PROGRAM_SHAPES, range(4)):
        instance = gen_instance(spec, seed)
        zero_mass.add(any(not q for probs in instance.probs for q in probs))
        for form, build_exact in ((DS, build_dslp), (BAYES, build_blp)):
            exact = build_exact(instance)
            floats = _build_primal(instance, form, truediv)
            converted = simplex._in_arithmetic(exact, True)
            assert list(floats.c) == list(converted.c)
            assert list(map(list, floats.rows)) == list(map(list, converted.rows))
            assert list(floats.b) == list(converted.b)
            assert all(type(v) is float for row in floats.rows for _, v in row)
            assert_frozen(exact)
            assert_frozen(dual_of(exact))
            accept = partial(_accept, instance, _layout(instance, form))
            expected = pivots_of(monkeypatch, partial(solve, exact, accept))
            assert pivots_of(monkeypatch, partial(solve_form, instance, form)) == expected
    assert zero_mass == {True, False}


# -- four-way agreement -----------------------------------------------------


def test_four_programs_agree_on_pair(pair12):
    target = F(3, 2)
    assert threshold_auction_revenue(pair12) == target
    assert solve(build_dslp(pair12)).objective == target
    assert solve(build_dual_dslp(pair12)).objective == target
    assert solve(build_blp(pair12)).objective == target
    assert solve(build_dual_blp(pair12)).objective == target
    assert drev(pair12) == target
    assert brev(pair12) == target


def test_single_buyer_forms_coincide(u123, items12):
    assert drev(u123) == brev(u123) == F(4, 3)
    assert drev(items12) == brev(items12) == F(9, 4)


# -- extraction -------------------------------------------------------------


def test_point_mass_extraction():
    instance = build(1, 1, [[[0], [3]]], [[0, 1]])
    mech = extract_mechanism(instance, solve_form(instance, DS), DS)
    assert mechanism_feasible(instance, mech)
    assert mech.revenue(instance) == 3
    t = instance.rank((1,))
    assert mech.alloc[t][0][0] == 1
    assert mech.pay[t][0] == 3


def test_extract_dual_from_both_routes(u123):
    # strong duality through the transpose: the optimal point of the dual
    # program, read at the primal layout's rows, is a feasible dual with
    # the primal's optimal objective
    for form, build_dual, revenue in ((DS, build_dual_dslp, drev), (BAYES, build_dual_blp, brev)):
        target = revenue(u123)
        from_rows = extract_dual(u123, solve_form(u123, form), form)
        assert from_rows.objective() == target
        layout = ProgramLayout(form, u123.m, u123.sizes)
        from_cols = _dual_at(u123, layout, *_scale(solve(build_dual(u123)).primal))
        assert from_cols.is_feasible()
        assert from_cols.objective() == target


def test_extract_dual_rejects_foreign_labels(u12, u123, pair12):
    cert = solve_form(u12, DS)
    with pytest.raises(LabelMismatch):
        extract_dual(u123, cert, DS)
    # a carried ds proof cannot pass as a bayes one, even for a single
    # buyer, where the two programs coincide
    with pytest.raises(LabelMismatch):
        extract_dual(pair12, solve_form(pair12, DS), BAYES)
    with pytest.raises(LabelMismatch):
        extract_dual(u12, solve_form(u12, DS), BAYES)
    stray = LpCertificate(primal=(F(0),), dual=(F(0),), objective=F(0))
    with pytest.raises(LabelMismatch):
        extract_dual(u12, stray, DS)


def test_a_proofless_ds_certificate_of_one_buyer_reads_as_bayes(u12):
    # certificates hold numbers only: with one buyer the two programs are
    # the same, so the vectors of a ds solve, without their proof, are
    # proved on the Bayesian model and give BRev
    cert = solve(build_dslp(u12))
    assert cert.proof is None
    proof = auction._proof(u12, cert, BAYES)
    assert proof.mechanism.form == BAYES
    assert proof.objective == extract_dual(u12, cert, BAYES).objective() == brev(u12)


def test_a_stale_positional_layout_is_refused(u12):
    # proof is keyword-only, so a layout passed fourth binds nothing
    cert = solve_form(u12, DS)
    with pytest.raises(TypeError):
        LpCertificate(cert.primal, cert.dual, cert.objective, _layout(u12, DS))


# A primal certificate means an optimal pair.  Without a proof it is
# proved (auction._prove) before anything is read from it, so a pair that
# is feasible on both sides but not optimal is refused, whatever it claims,
# and so is an optimal pair that claims another objective.
def _zeroed_primal(cert, layout):
    return LpCertificate((F(0),) * len(cert.primal), cert.dual, cert.objective)


def _raised_xi(cert, layout):
    dual = list(cert.dual)
    dual[layout.xi(0, 0)] += F(1, 5)
    return LpCertificate(cert.primal, tuple(dual), cert.objective)


def _claimed_more(cert, layout):
    return LpCertificate(cert.primal, cert.dual, cert.objective + F(1, 5))


_PRIMAL_READERS = {
    "mechanism": extract_mechanism,
    "dual": extract_dual,
    "document": lambda instance, cert, form: certificate_document(instance, form, cert),
}


@pytest.mark.parametrize("form", [DS, BAYES])
@pytest.mark.parametrize("reader", list(_PRIMAL_READERS))
def test_primal_readers_refuse_a_dual_program_certificate(pair12, form, reader):
    # a dual program's certificate has the primal's lengths swapped, so
    # it is no primal certificate of either form, optimal though its
    # point is
    for build_dual in (build_dual_dslp, build_dual_blp):
        cert = solve(build_dual(pair12))
        assert cert.objective == F(3, 2)
        assert (len(cert.dual), len(cert.primal)) != _layout(pair12, form).shape
        with pytest.raises(LabelMismatch):
            _PRIMAL_READERS[reader](pair12, cert, form)


@pytest.mark.parametrize("form", [DS, BAYES])
@pytest.mark.parametrize("forge", [_zeroed_primal, _raised_xi, _claimed_more])
@pytest.mark.parametrize("reader", list(_PRIMAL_READERS))
def test_extraction_refuses_a_certificate_that_is_not_optimal(pair12, form, forge, reader):
    cert = solve_form(pair12, form)
    assert cert.objective == F(3, 2)
    forged = forge(cert, _layout(pair12, form))  # the form's shape, and no proof
    assert forged.proof is None
    with pytest.raises(CertificateError):
        _PRIMAL_READERS[reader](pair12, forged, form)


# Both forms share one dual format: zeta[i][key][t2] and eta[i][key] are
# keyed like the primal's ic and ir rows, by profile rank (DS) or own type
# (BAYES).
FORMAT_CASES = [
    ({"n": 2, "m": 1, "support": 2}, 3),
    ({"n": 3, "m": 1, "support": 1}, 1),
    ({"n": 2, "m": 2, "support": 1}, 2),
    ({"n": 2, "m": 2, "support": 1, "correlated": False}, 4),
    ({"n": 1, "m": 2, "support": 3}, 0),
]


@pytest.mark.parametrize("form", [DS, BAYES])
def test_dual_is_keyed_like_the_primal_rows(form):
    nonzero = 0
    for spec, seed in FORMAT_CASES:
        instance = gen_instance(spec, seed)
        cert = solve_form(instance, form)
        dual = extract_dual(instance, cert, form)
        layout = _layout(instance, form)
        for i, k in enumerate(instance.sizes):
            keys = instance.profile_count if form == DS else k
            assert len(dual.eta[i]) == len(dual.zeta[i]) == keys
            for key in range(keys):
                assert dual.eta[i][key] == cert.dual[layout.eta(i, key)]
                t = instance.positions[i][key][0] if form == DS else key
                assert dual.zeta[i][key][t] == 0
                for t2 in range(k):
                    if t2 != t:
                        value = cert.dual[layout.zeta(i, key, t, t2)]
                        assert dual.zeta[i][key][t2] == value
                        nonzero += value != 0
    assert nonzero > 0


@pytest.mark.parametrize("form", [DS, BAYES])
def test_proofless_certificates_read_as_proved_ones(gap2x2, form):
    instances = [gen_instance(spec, seed) for spec, seed in FORMAT_CASES] + [gap2x2]
    for instance in instances:
        cert = solve_form(instance, form)
        bare = replace(cert, proof=None)
        for read in _PRIMAL_READERS.values():
            assert read(instance, bare, form) == read(instance, cert, form)


# -- extension beyond the support -------------------------------------------


def test_extend_ds_on_support_is_identity(pair12):
    mech = extract_mechanism(pair12, solve_form(pair12, DS), DS)
    for profile in pair12.profiles():
        query = tuple(pair12.supports[i][t] for i, t in enumerate(profile))
        alloc, pay = extend_ds(pair12, mech, query)
        r = pair12.rank(profile)
        assert alloc == mech.alloc[r]
        assert pay == mech.pay[r]


def test_extend_ds_single_deviator_best_responds(pair12):
    mech = extract_mechanism(pair12, solve_form(pair12, DS), DS)
    query = ((F(5),), (F(1),))
    alloc, pay = extend_ds(pair12, mech, query)
    assert alloc[1] == (F(0),)
    assert pay[1] == 0
    got = F(5) * alloc[0][0] - pay[0]
    for t in range(pair12.sizes[0]):
        r = pair12.rank((t, 1))
        alt = F(5) * mech.alloc[r][0][0] - mech.pay[r][0]
        assert got >= alt


def test_extend_ds_two_deviators_get_nothing(pair12):
    mech = extract_mechanism(pair12, solve_form(pair12, DS), DS)
    alloc, pay = extend_ds(pair12, mech, ((F(5),), (F(7),)))
    assert all(row == (F(0),) for row in alloc)
    assert all(q == 0 for q in pay)


def test_extend_rejects_misshapen_queries(pair12):
    mech = extract_mechanism(pair12, solve_form(pair12, DS), DS)
    for query in (((F(5),),), ((F(5),), ()), ((F(5), F(1)), (F(1),))):
        with pytest.raises(DimensionMismatch):
            extend_ds(pair12, mech, query)
        with pytest.raises(DimensionMismatch):
            extend_bayes(pair12, mech, query)


def interim_row(instance, mech, i, t):
    alloc = [F(0)] * instance.m
    pay = F(0)
    for vm in others_profiles(instance, i):
        w = instance.mu_minus(i, vm)
        if not w:
            continue
        r = instance.rank(insert(i, t, vm))
        for j in range(instance.m):
            alloc[j] += w * mech.alloc[r][i][j]
        pay += w * mech.pay[r][i]
    return tuple(alloc), pay


def test_extend_bayes_on_support_gives_interim_rows(pair12):
    mech = extract_mechanism(pair12, solve_form(pair12, BAYES), BAYES)
    alloc, pay = extend_bayes(pair12, mech, ((F(2),), (F(1),)))
    for i, t in ((0, 2), (1, 1)):
        want_alloc, want_pay = interim_row(pair12, mech, i, t)
        assert alloc[i] == want_alloc
        assert pay[i] == want_pay


def test_extend_bayes_off_support_best_responds(pair12):
    mech = extract_mechanism(pair12, solve_form(pair12, BAYES), BAYES)
    alloc, pay = extend_bayes(pair12, mech, ((F(5),), (F(1),)))
    got = F(5) * alloc[0][0] - pay[0]
    for t in range(pair12.sizes[0]):
        row_alloc, row_pay = interim_row(pair12, mech, 0, t)
        assert got >= F(5) * row_alloc[0] - row_pay


# -- certificate documents --------------------------------------------------


@given(
    st.one_of(
        st.from_regex(r"[-+]?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True),
        st.text(alphabet="0123456789/+-_. e", max_size=12),
        st.integers(-(10**30), 10**30),
        st.sampled_from(["9" * 5000, "1/" + "9" * 5000, "1e100000000", None, True, 0.5, [1]]),
    )
)
def test_values_read_to_the_numerators_rat_gives(value):
    # the certificate reader's terms are those of the Fraction rat
    # builds, in lowest terms with a positive denominator, so that the
    # common denominator of a vector, and the route of its re-proof,
    # are too
    try:
        q = rat(value)
    except NotRational:
        with pytest.raises(NotRational):
            ratio(value)
    else:
        num, den = ratio(value)
        assert (num, den) == (q.numerator, q.denominator)
        assert den > 0 and math.gcd(num, den) == 1


def test_certificate_round_trip(tmp_path, u123, reproof):
    cert = solve_form(u123, DS)
    document = certificate_document(u123, DS, cert)
    assert all(value == "0" for value in document["ledger"].values())
    path = tmp_path / "cert.json"
    write_certificate(path, document)
    # the bytes json.dump streams
    streamed = io.StringIO()
    json.dump(document, streamed, indent=2, sort_keys=True)
    assert path.read_text(encoding="utf-8") == streamed.getvalue() + "\n"
    loaded = load_certificate(path)
    assert loaded == document
    assert verify_certificate_document(u123, loaded) == cert.objective


def test_certificate_rejects_wrong_instance(u12, u123):
    document = certificate_document(u123, DS, solve_form(u123, DS))
    with pytest.raises(LabelMismatch):
        verify_certificate_document(u12, document)


def test_certificate_rejects_wrong_kind(u123):
    document = certificate_document(u123, DS, solve_form(u123, DS))
    document = dict(document, kind="something-else")
    with pytest.raises(LabelMismatch):
        verify_certificate_document(u123, document)


def test_certificate_rejects_tampered_primal(u123, reproof):
    document = certificate_document(u123, DS, solve_form(u123, DS))
    label, value = next(iter(document["primal"].items()))
    document = dict(document, primal=dict(document["primal"], **{label: "7/3"}))
    with pytest.raises(CertificateError):
        verify_certificate_document(u123, document)


def test_certificate_rejects_unknown_label(u123):
    document = certificate_document(u123, DS, solve_form(u123, DS))
    document = dict(document, primal=dict(document["primal"], **{"x:9:9:9": "1"}))
    with pytest.raises(LabelMismatch):
        verify_certificate_document(u123, document)


def test_each_distinct_value_string_is_read_once(pair12, monkeypatch):
    document = certificate_document(pair12, DS, solve_form(pair12, DS))
    reads = []
    monkeypatch.setattr(auction, "ratio", lambda value: reads.append(value) or ratio(value))
    assert verify_certificate_document(pair12, document) == rat(document["objective"])
    sections = [document[key] for key in ("primal", "dual", "ledger")]
    assert sorted(reads) == sorted(v for section in sections for v in set(section.values()))
    assert len(reads) < sum(map(len, sections))


def test_a_malformed_value_under_many_labels_is_named(pair12):
    document = certificate_document(pair12, DS, solve_form(pair12, DS))
    primal = dict.fromkeys(document["primal"], "1/x")
    with pytest.raises(LabelMismatch, match="certificate primal: not a rational: '1/x'"):
        verify_certificate_document(pair12, dict(document, primal=primal))


@pytest.mark.parametrize("value", [[1], True, 1], ids=["list", "true", "int"])
def test_values_that_are_not_strings_are_each_read_by_ratio(pair12, value):
    # every "1" of the primal as the int 1, and the last of them as
    # value: ints read as ever, and neither a list nor true (equal to 1)
    # is taken for a value read before it
    document = certificate_document(pair12, DS, solve_form(pair12, DS))
    ones = [label for label, text in document["primal"].items() if text == "1"]
    assert len(ones) > 2
    primal = {**document["primal"], **dict.fromkeys(ones, 1), ones[-1]: value}
    document = dict(document, primal=primal)
    if value == 1 and type(value) is int:
        assert verify_certificate_document(pair12, document) == rat(document["objective"])
    else:
        refusal = f"certificate primal: not a rational: {value!r}"
        with pytest.raises(LabelMismatch, match=re.escape(refusal)):
            verify_certificate_document(pair12, document)


# Stored certificates name their entries by label, so the document
# format (labels included) must not drift.  pair12 has one item; the
# generated instance has three buyers and two items, so its documents
# also pin the x:<i>:1:<key> labels and the Bayesian ic rows of several
# buyers.
PAIR12_CERTIFICATE_SHA256 = {
    DS: "2e0b90052b041ae31d759764b6b86af863380718d4ac84822ce2139e5649b20e",
    BAYES: "83c65254f0d0b1225a6f2ef2544ae1a2de7229cf12ca950fb7cb87b410111f18",
}
TWO_ITEM_SPEC = ({"n": 3, "m": 2, "support": 2}, 1)
TWO_ITEM_CERTIFICATE_SHA256 = {
    DS: "9d408ba28b37c920bab3be2021324b6f7d982981ff7e21b766702f86ee1fd96a",
    BAYES: "02c7159c523b49ecc68bac68f5d819e68df64fe80086793efe44ebb967bb260b",
}


def document_sha256(instance, form):
    document = certificate_document(instance, form, solve_form(instance, form))
    text = json.dumps(document, sort_keys=True)
    return document, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("form", [DS, BAYES])
def test_certificate_document_is_pinned(pair12, form):
    _, digest = document_sha256(pair12, form)
    assert digest == PAIR12_CERTIFICATE_SHA256[form]
    instance = gen_instance(*TWO_ITEM_SPEC)
    document, digest = document_sha256(instance, form)
    assert digest == TWO_ITEM_CERTIFICATE_SHA256[form]
    assert any(label.split(":")[2] == "1" for label in document["primal"] if label[0] == "x")
    ic_buyers = {label.split(":")[1] for label in document["dual"] if label.startswith("ic:")}
    assert len(ic_buyers) > 1


# The file `solve --certificate` writes for a one-item instance, which
# the closed form answers in both forms: three buyers of support 3, one
# of whose zero types has mass.
CLOSED_FORM_SPEC = ({"n": 3, "m": 1, "support": 3}, 0)
CLOSED_FORM_FILE_SHA256 = {
    "ds": "bc4660badfdbc0ed2e0af0108b56e62eb9ecf1ed00ec6b87cfba5df5f0527c91",
    "bic": "17888941d6626e0f3bb3d8c5eb468f77d86602e9bf50880bebd3e04947293a37",
}


@pytest.mark.parametrize("flag, form", [("ds", DS), ("bic", BAYES)])
def test_closed_form_certificate_file_is_pinned(tmp_path, capsys, flag, form):
    instance = gen_instance(*CLOSED_FORM_SPEC)
    assert proved_certificate(instance, form) is not None
    path, cert = tmp_path / "instance.json", tmp_path / "cert.json"
    path.write_text(instance.to_json())
    assert main(["solve", str(path), "--form", flag, "--certificate", str(cert)]) == 0
    assert capsys.readouterr().out == "17111/6075\n"
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == CLOSED_FORM_FILE_SHA256[flag]


# The model re-proof of a stored certificate and the program's row-local
# recheck must be one check: the shared instances, the two-item one whose
# documents are pinned, and seeded ones of 27, 36 and 81 profiles.
REPROOF_SPECS = {
    "two-item": TWO_ITEM_SPEC,
    "27": ({"n": 3, "m": 1, "support": 2}, 2),
    "36": ({"n": 2, "m": 1, "support": 5, "denominator": 1, "value_range": 10}, 3),
    "81": ({"n": 4, "m": 1, "support": 2}, 4),
}


def perturbed_documents(document, layout):
    """Copies of a certificate document with one entry raised, lowered or
    negated: in each of the x, p, ic, ir and sup families, its first
    nonzero entry and its first zero one."""
    rows, cols = labels(layout)
    out = []
    for key, names in (("primal", cols), ("dual", rows)):
        section = document[key]
        for family in dict.fromkeys(name.split(":")[0] for name in names):
            members = [name for name in names if name.split(":")[0] == family]
            chosen = [name for name in members if name in section][:1]
            chosen += [name for name in members if name not in section][:1]
            for name in chosen:
                value = Fraction(section.get(name, "0"))
                for changed in (value + F(1, 7), value - F(1, 7), -value):
                    entries = dict(section, **{name: rat_str(changed)})
                    out.append(dict(document, **{key: entries}))
    return out


@pytest.mark.parametrize("form", [DS, BAYES])
@pytest.mark.parametrize("source", ["pair12", "u123", *REPROOF_SPECS])
def test_reproof_paths_agree(request, monkeypatch, source, form):
    if source in REPROOF_SPECS:
        instance = gen_instance(*REPROOF_SPECS[source])
    else:
        instance = request.getfixturevalue(source)
    certificate = solve_form(instance, form)
    document = certificate_document(instance, form, certificate)
    documents = [document, *perturbed_documents(document, _layout(instance, form))]
    outcomes = {}
    for path in REPROOF_PATHS:
        with monkeypatch.context() as patch:
            reprove_on(patch, path)
            outcomes[path] = []
            for candidate in documents:
                try:
                    outcomes[path].append(verify_certificate_document(instance, candidate))
                except CertificateError:
                    outcomes[path].append(CertificateError)
    assert outcomes["model"] == outcomes["row-local"]
    assert outcomes["model"][0] == certificate.objective
    assert outcomes["model"].count(CertificateError) > len(documents) // 2


@pytest.mark.parametrize("form", [DS, BAYES])
def test_reproof_renders_no_label(monkeypatch, form):
    # a re-proof reads each label field by field; rendering one back per
    # entry was the largest cost of self-check
    documents = []
    for source in ("27", "36", "81"):
        instance = gen_instance(*REPROOF_SPECS[source])
        certificate = solve_form(instance, form)
        document = certificate_document(instance, form, certificate)
        documents.append((instance, document, certificate.objective))

    def rendered(*fields):
        raise AssertionError("a re-proof rendered a label")

    for label_format in ("_X", "_P", "_IC", "_IR", "_SUP"):
        monkeypatch.setattr(auction, label_format, rendered)
    for instance, document, objective in documents:
        assert verify_certificate_document(instance, document) == objective


def test_certificate_rejects_nonzero_ledger(u123):
    document = certificate_document(u123, DS, solve_form(u123, DS))
    document = dict(document, ledger=dict(document["ledger"], gap="1/9"))
    with pytest.raises(InfeasibleInput):
        verify_certificate_document(u123, document)
