"""Domain types: validation, serialization, profile algebra, mechanism
slacks, and the revenue report."""

import re
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from auctionlp import model
from auctionlp.auction import extract_dual, extract_mechanism, solve_form
from auctionlp.errors import (
    DimensionMismatch,
    DuplicateSupportVector,
    MissingZeroType,
    NegativeValue,
    NonUnitMass,
    NotOptimal,
    NotRational,
    ZeroMassNonzeroType,
)
from auctionlp.model import (
    BAYES,
    DS,
    NEG_INF,
    Instance,
    RevenueReport,
    load_instance,
    mechanism_feasible,
    mechanism_slacks,
    rat,
    rat_str,
    validate_instance,
)
from helpers import (
    deviation_utility,
    drop,
    insert,
    mechanism_of,
    min_entry,
    others_count,
    others_rank,
    profile_prob,
    reference_fraction,
    utility,
    zero_mechanism,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


def data12():
    return {
        "buyers": 1,
        "items": 1,
        "supports": [[[0], [1], [2]]],
        "probs": [[0, "1/2", "1/2"]],
    }


# -- rationals --------------------------------------------------------------


def test_rat_parses_ints_strings_fractions():
    assert rat(3) == 3
    assert rat("7/2") == Fraction(7, 2)
    assert rat(" 5 ") == 5
    assert rat(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        rat(0.5)


def test_rat_refuses_exponents_past_the_digit_limit(monkeypatch):
    # before reduction: numerator mantissa * 10**e, denominator
    # 10**(decimals + max(-e, 0)), each within the limit of printable digits
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 50)
    assert rat("0.5") == Fraction(1, 2)
    assert rat("1.5e-2") == Fraction(3, 200)
    assert rat("1e49") == 10**49
    assert rat("1e-49") == Fraction(1, 10**49)
    assert rat("1.5e-48") == Fraction(15, 10**49)
    for literal in ("1e50", "1e-50", "1.25e-48", "12e49", "0e99999999", "1e10000000"):
        with pytest.raises(NotRational, match="too many digits"):
            rat(literal)
    with pytest.raises(NotRational):
        rat("1e" + "9" * 60)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # no limit
    assert rat("1e60") == 10**60


# Integer and p/q text, the literals certificate documents hold; the
# digit counts reach past the int-string limit of 4300 digits.
plain_literals = st.from_regex(r"[ \t]*[-+]?[0-9]{1,12}(/[0-9]{1,12})?[ \t]*", fullmatch=True) | (
    st.tuples(st.sampled_from(["", "-", "7/"]), st.integers(4290, 4310)).map(
        lambda pair: pair[0] + "1" * pair[1]
    )
)
# Text over the grammar's characters, a non-ASCII digit and space, and
# the "d" that CPython 3.11's fraction part matches; exponents stay
# within three digits, since the reference forms the power of ten.
other_literals = st.text(alphabet="0123456789+-/._eEd \t\u0663\u00a0", max_size=12).filter(
    lambda text: not re.search(r"[eE][-+]?[\d_]{4}", text)
)
exponent_literals = st.from_regex(
    r"\s?[-+]?[0-9_]{0,4}(\.[0-9_]{0,4})?[eE][-+]?[0-9_]{1,3}\s?", fullmatch=True
)


def _outcome(read, text, refusals):
    try:
        return read(text)
    except refusals:
        return "refused"


def _agrees_with_reference(text):
    # the same value, or a refusal (NotRational), as CPython 3.11 reads
    # it, whichever Python runs; there the live Fraction agrees too
    expected = _outcome(reference_fraction, text, (ValueError, ZeroDivisionError))
    assert _outcome(rat, text, NotRational) == expected
    if sys.version_info[:2] == (3, 11):
        assert _outcome(Fraction, text, (ValueError, ZeroDivisionError)) == expected


def test_rat_plain_literals_skip_the_exponent_check(monkeypatch):
    # only an exponent is measured against the digit limit: a literal
    # without one never asks for it, and int alone refuses a part past it
    monkeypatch.setattr(sys, "get_int_max_str_digits", None, raising=False)  # a call raises
    for text in (" 17 ", "-3/4", "+6/8", "0/5", "1/0", "7/" + "1" * 4301, "1_0", "0.5", ".25"):
        _agrees_with_reference(text)


@given(plain_literals | other_literals | exponent_literals)
@example("1.d")
@example("1 / 2")
@example("1_0")
def test_rat_agrees_with_fraction_on_text(text):
    _agrees_with_reference(text)


@pytest.mark.parametrize("value", ["1/0", "-0/0", 0.5, True, False, 2.0, "1e" + "9" * 60])
def test_rat_refuses_what_fraction_text_is_not(value):
    with pytest.raises(NotRational):
        rat(value)


def test_rat_str_plain_integers():
    assert rat_str(Fraction(4, 2)) == "2"
    assert rat_str(Fraction(-3, 4)) == "-3/4"


@given(rationals)
def test_rat_round_trip(q):
    assert rat(rat_str(q)) == q


def test_neg_inf_ordering():
    assert NEG_INF < Fraction(-10**9)
    assert NEG_INF <= NEG_INF
    assert NEG_INF == NEG_INF
    assert not NEG_INF < NEG_INF
    assert Fraction(0) > NEG_INF
    assert max(NEG_INF, Fraction(-1)) == Fraction(-1)
    assert sorted([Fraction(1), NEG_INF, Fraction(0)])[0] is NEG_INF


def test_neg_inf_orders_rationals_past_float_range():
    # Fraction compares with an infinity without converting itself to
    # a float, which would overflow here
    huge = Fraction(10**400, 3)
    with pytest.raises(OverflowError):
        float(huge)
    assert NEG_INF < -huge < huge
    assert -huge > NEG_INF and NEG_INF != -huge
    assert max(NEG_INF, -huge) == -huge
    assert sorted([huge, NEG_INF, -huge]) == [NEG_INF, -huge, huge]


# -- validation -------------------------------------------------------------


def test_validate_accepts_and_freezes():
    inst = validate_instance(data12())
    assert inst.n == 1 and inst.m == 1
    assert inst.sizes == (3,)
    assert inst.supports[0][2] == (Fraction(2),)
    assert inst.probs[0] == (0, Fraction(1, 2), Fraction(1, 2))


def test_validate_rejects_bad_mass_sum():
    bad = data12()
    bad["probs"] = [[0, "1/2", "1/3"]]
    with pytest.raises(NonUnitMass, match="^buyer 0: masses sum to 5/6, expected 1$"):
        validate_instance(bad)


def test_validate_rejects_negative_value_and_mass():
    bad = data12()
    bad["supports"] = [[[0], [-1], [2]]]
    with pytest.raises(NegativeValue, match="^buyer 0: negative coordinate -1$"):
        validate_instance(bad)
    bad = data12()
    bad["probs"] = [[0, "3/2", "-1/2"]]
    with pytest.raises(NegativeValue, match="^buyer 0: negative mass -1/2$"):
        validate_instance(bad)


def test_validate_rejects_duplicate_vector():
    bad = data12()
    bad["supports"] = [[[0], [1], [1]]]
    with pytest.raises(DuplicateSupportVector):
        validate_instance(bad)


def test_validate_requires_zero_vector():
    bad = {
        "buyers": 1,
        "items": 1,
        "supports": [[[1], [2]]],
        "probs": [["1/2", "1/2"]],
    }
    with pytest.raises(MissingZeroType):
        validate_instance(bad)
    inst = validate_instance(bad, augment_zero=True)
    assert inst.supports[0][0] == (Fraction(0),)
    assert inst.probs[0][0] == 0
    # the file's own flag works too, and the keyword overrides it
    bad["augment_zero"] = True
    assert validate_instance(bad).sizes == (3,)
    with pytest.raises(MissingZeroType):
        validate_instance(bad, augment_zero=False)


def test_validate_strict_rejects_zero_mass_nonzero_type():
    data = data12()
    data["probs"] = [[0, 0, 1]]
    validate_instance(data)
    with pytest.raises(ZeroMassNonzeroType):
        validate_instance(data, strict=True)


def test_validate_dimension_errors():
    with pytest.raises(DimensionMismatch):
        validate_instance({"buyers": 1, "items": 1})
    with pytest.raises(DimensionMismatch):
        validate_instance({"buyers": 0, "items": 1, "supports": [], "probs": []})
    bad = data12()
    bad["supports"] = [[[0, 0], [1, 1], [2, 2]]]
    with pytest.raises(DimensionMismatch):
        validate_instance(bad)
    bad = data12()
    bad["probs"] = [[0, 1]]
    with pytest.raises(DimensionMismatch):
        validate_instance(bad)
    bad = data12()
    bad["supports"] = [[]]
    bad["probs"] = [[]]
    with pytest.raises(DimensionMismatch):
        validate_instance(bad)
    with pytest.raises(DimensionMismatch):
        validate_instance(
            {"buyers": 2, "items": 1, "supports": [[[0]]], "probs": [[1]]}
        )


# -- serialization ----------------------------------------------------------


def test_json_round_trip(tmp_path):
    inst = validate_instance(data12())
    path = tmp_path / "inst.json"
    path.write_text(inst.to_json())
    again = load_instance(path)
    assert again == inst
    assert again.digest() == inst.digest()


def test_digest_distinguishes_instances():
    a = validate_instance(data12())
    other = data12()
    other["probs"] = [[0, "1/3", "2/3"]]
    b = validate_instance(other)
    assert a.digest() != b.digest()
    assert len(a.digest()) == 16


# -- profile algebra --------------------------------------------------------


def test_rank_is_row_major(pair12):
    ranks = [pair12.rank(p) for p in pair12.profiles()]
    assert ranks == list(range(pair12.profile_count))
    assert pair12.rank((1, 2)) == 1 * 3 + 2


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_drop_insert_inverse(a, b, c):
    inst = Instance(
        n=3,
        m=1,
        supports=(((Fraction(0),), (Fraction(1),), (Fraction(2),)),) * 3,
        probs=((Fraction(0), Fraction(1, 2), Fraction(1, 2)),) * 3,
    )
    profile = (a, b, c)
    for i in range(3):
        vm = drop(i, profile)
        assert insert(i, profile[i], vm) == profile
        assert others_rank(inst, i, vm) < others_count(inst, i)


def test_mu_products(pair12):
    assert pair12.mu((1, 2)) == Fraction(1, 4)
    assert pair12.mu((0, 1)) == 0
    assert pair12.mu_minus(0, (2,)) == Fraction(1, 2)
    assert profile_prob(pair12, (2, 2)) == Fraction(1, 4)
    with pytest.raises(DimensionMismatch):
        profile_prob(pair12, (0,))
    with pytest.raises(DimensionMismatch):
        profile_prob(pair12, (0, 9))


def test_zero_index(items12):
    assert items12.zero_index(0) == 0


# -- mechanisms -------------------------------------------------------------


def test_zero_mechanism_is_feasible(pair12):
    mech = zero_mechanism(pair12)
    assert mechanism_feasible(pair12, mech)
    assert mech.revenue(pair12) == 0
    slacks = mechanism_slacks(pair12, mech)
    assert slacks.feasible
    assert min_entry(slacks) == 0


def test_posted_price_mechanism_slacks(u12):
    # sell at price 2: types 0 and 1 get nothing, type 2 buys
    alloc = ((( Fraction(0),),), ((Fraction(0),),), ((Fraction(1),),))
    pay = ((Fraction(0),), (Fraction(0),), (Fraction(2),))
    mech = mechanism_of("ds", alloc, pay)
    assert mechanism_feasible(u12, mech)
    assert mech.revenue(u12) == 1
    assert utility(mech, u12, 0, (2,)) == 0
    # type 2 reporting 1 gets the empty row; type 1 reporting 2 overpays
    assert deviation_utility(mech, u12, 0, (2,), 1) == 0
    assert deviation_utility(mech, u12, 0, (1,), 2) == -1
    slacks = mechanism_slacks(u12, mech)
    assert slacks.a[0][2][1] == 0
    assert slacks.a[0][1][2] == 1
    assert slacks.c[0][0] == 1
    assert slacks.c[0][2] == 0


def test_infeasible_mechanism_detected(u12):
    # charging type 1 more than its value breaks participation
    alloc = (((Fraction(0),),), ((Fraction(1),),), ((Fraction(1),),))
    pay = ((Fraction(0),), (Fraction(2),), (Fraction(2),))
    mech = mechanism_of("ds", alloc, pay)
    assert not mechanism_feasible(u12, mech)
    assert min_entry(mechanism_slacks(u12, mech)) < 0


def test_mechanism_dimension_checks(u12, pair12):
    with pytest.raises(DimensionMismatch, match="profile count"):
        mechanism_slacks(pair12, zero_mechanism(u12))
    zero = Fraction(0)
    # u12's three profiles, with two buyers, then with two items
    for alloc, pay, mismatch in (
        ((((zero,), (zero,)),) * 3, ((zero, zero),) * 3, "buyer"),
        ((((zero, zero),),) * 3, ((zero,),) * 3, "item"),
    ):
        with pytest.raises(DimensionMismatch, match=f"{mismatch} dimension"):
            mechanism_slacks(u12, mechanism_of("ds", alloc, pay))


def test_bounds_checked_separately(u12):
    # an over-unit allocation leaves a negative sup slack (1 - 2), which
    # refuses it: x <= 1 needs no test of its own
    alloc = (((Fraction(0),),), ((Fraction(0),),), ((Fraction(2),),))
    pay = ((Fraction(0),), (Fraction(0),), (Fraction(0),))
    mech = mechanism_of("ds", alloc, pay)
    assert not mechanism_feasible(u12, mech)


def _entries(nested):
    """Every number in a nested tuple."""
    if isinstance(nested, tuple):
        return [q for part in nested for q in _entries(part)]
    return [nested]


def _depth(nested):
    """How deep the first entry of a nested tuple sits."""
    depth = 0
    while isinstance(nested, tuple):
        nested, depth = nested[0], depth + 1
    return depth


def _with_entry(nested, path, value):
    """nested with the entry at the index path replaced."""
    if not path:
        return value
    k = path[0]
    return nested[:k] + (_with_entry(nested[k], path[1:], value),) + nested[k + 1 :]


def _variants(mechanism):
    """The mechanism, the mechanism scaled by 2/3 (feasible whenever the
    mechanism is, with fractional allocations), and copies with one
    allocation or payment entry moved onto or past its bound."""
    last = len(mechanism.pay) - 1
    yield mechanism
    scale = Fraction(2, 3)
    yield mechanism_of(
        mechanism.form,
        tuple(tuple(tuple(x * scale for x in cell) for cell in row) for row in mechanism.alloc),
        tuple(tuple(p * scale for p in prow) for prow in mechanism.pay),
    )
    for value in (Fraction(-1, 5), Fraction(1), Fraction(3, 2)):
        yield mechanism_of(
            mechanism.form, _with_entry(mechanism.alloc, (last, 0, 0), value), mechanism.pay
        )
    for value in (Fraction(-1, 3), Fraction(0), Fraction(5, 2)):
        yield mechanism_of(
            mechanism.form, mechanism.alloc, _with_entry(mechanism.pay, (last, 0), value)
        )


def test_sign_tests_agree_with_value_comparisons(u12, pair12, items12):
    # feasible, mechanism_feasible and is_feasible read numerators; they
    # must decide as min_entry >= 0 and the bounds 0 <= x <= 1, p >= 0
    decisions = set()
    for instance in (u12, pair12, items12):
        bases = [zero_mechanism(instance)]
        for form in (DS, BAYES):
            cert = solve_form(instance, form)
            bases.append(extract_mechanism(instance, cert, form))
            dual = extract_dual(instance, cert, form)
            checked = ("zeta", "eta", "xi", "alpha", "beta")
            for fam in checked:
                family = getattr(dual, fam)
                for value in (Fraction(-1, 7), Fraction(0), Fraction(2, 7)):
                    first = _with_entry(family, (0,) * _depth(family), value)
                    split = model._scale(first) if fam == "xi" else tuple(map(model._scale, first))
                    changed = replace(dual, scaled=dual.scaled._replace(**{fam: split}))
                    entries = [q for f in checked for q in _entries(getattr(changed, f))]
                    assert changed.is_feasible() == (min(entries) >= 0)
        for base in bases:
            for mechanism in _variants(base):
                slacks = mechanism_slacks(instance, mechanism)
                assert slacks.feasible == (min_entry(slacks) >= 0)
                bounds = all(0 <= x <= 1 for x in _entries(mechanism.alloc)) and all(
                    p >= 0 for p in _entries(mechanism.pay)
                )
                feasible = mechanism_feasible(instance, mechanism)
                assert feasible == (bounds and min_entry(slacks) >= 0)
                decisions.add((bounds, slacks.feasible))
    assert decisions == {(True, True), (True, False), (False, True), (False, False)}


def test_dual_reads_its_feasibility_once(monkeypatch, pair12):
    # a dual is frozen, so its sign test runs on the first read only
    dual = replace(extract_dual(pair12, solve_form(pair12, DS), DS))
    calls = []
    original = model._negative

    def counted(*families):
        calls.append(families)
        return original(*families)

    monkeypatch.setattr(model, "_negative", counted)
    assert [dual.is_feasible() for _ in range(3)] == [True] * 3
    assert len(calls) == 1


def nested_ints(depth):
    """Tuples of ints nested depth levels below the outer one
    throughout; any tuple may be empty."""
    nested = st.lists(st.integers(-3, 3), max_size=4).map(tuple)
    for _ in range(depth):
        nested = st.lists(nested, max_size=3).map(tuple)
    return nested


@given(st.integers(0, 3).flatmap(nested_ints))
@example(((), (-1,)))
@example((((),), ((2, -1),)))
def test_any_negative_matches_its_definition(nested):
    assert model._any_negative(nested) == any(q < 0 for q in _entries(nested))


# -- revenue report ---------------------------------------------------------


def test_revenue_report_flags():
    report = RevenueReport(Fraction(3), Fraction(3), Fraction(2))
    assert report.brev_eq_drev and not report.drev_eq_srev
    assert not report.srev_eq_brev
    assert report.findings == ()
    # the flags are read off the revenues, so none can disagree with them
    same = RevenueReport(Fraction(1), Fraction(1), Fraction(1))
    assert same.brev_eq_drev and same.drev_eq_srev and same.srev_eq_brev


def test_revenue_report_rejects_bad_ordering():
    with pytest.raises(NotOptimal, match="revenue ordering violated"):
        RevenueReport(
            brev=Fraction(1),
            drev=Fraction(2),
            srev=Fraction(0),
        )
