"""Revenue baselines and seeded generation.

Baseline values are hand-derived in the comments; the LP side never
enters except as the upper bound in the final invariant test."""

from fractions import Fraction

import pytest

from auctionlp.auction import ProgramLayout, brev, build_dslp, drev
from auctionlp.errors import DimensionMismatch, ScaleLimit
from auctionlp.model import DS
from auctionlp.oracles import gen_instance, gen_shape
from baselines import menu_grid_revenue, posted_price_revenue, threshold_auction_revenue
from conftest import build

F = Fraction


# -- posted price -----------------------------------------------------------


def test_posted_price_small_uniform():
    # price 1 sells to both mass points, price 2 to one of two
    assert posted_price_revenue([0, 1, 2], [0, F(1, 2), F(1, 2)]) == 1
    # price 2 sells with probability 2/3
    assert posted_price_revenue([0, 1, 2, 3], [0, F(1, 3), F(1, 3), F(1, 3)]) == F(4, 3)


def test_posted_price_point_mass():
    assert posted_price_revenue([F(7, 3)], [1]) == F(7, 3)


def test_posted_price_rejects_length_mismatch():
    with pytest.raises(DimensionMismatch):
        posted_price_revenue([1, 2], [1])


# -- reserve-price auction --------------------------------------------------


def test_threshold_auction_on_pair(pair12):
    # reserve 2: rows (1,2), (2,1), (2,2) each collect 2, 2, 1+1;
    # reserves 0 and 1 both collect 5/4
    assert threshold_auction_revenue(pair12) == F(3, 2)
    assert threshold_auction_revenue(pair12) == drev(pair12)


def test_threshold_auction_single_buyer_matches_posted_price(u123):
    assert threshold_auction_revenue(u123) == F(4, 3)


def test_threshold_auction_needs_single_item(items12):
    with pytest.raises(DimensionMismatch):
        threshold_auction_revenue(items12)


# -- menu search ------------------------------------------------------------


def test_menu_grid_single_item(u12):
    assert menu_grid_revenue(u12, 1) == 1 == drev(u12)


def test_menu_grid_two_items(items12):
    # bundling both items at price 3 is deterministic, so even the
    # coarsest grid reaches the optimum
    assert menu_grid_revenue(items12, 1) == F(9, 4)
    assert menu_grid_revenue(items12, 2) == F(9, 4)
    assert menu_grid_revenue(items12, 4) == F(9, 4) == drev(items12)


def test_menu_grid_refinement_is_monotone(items12):
    assert menu_grid_revenue(items12, 1) <= menu_grid_revenue(items12, 2)
    assert menu_grid_revenue(items12, 2) <= menu_grid_revenue(items12, 4)


def test_menu_grid_rejects_bad_shapes(pair12, u12):
    with pytest.raises(DimensionMismatch):
        menu_grid_revenue(pair12, 1)
    with pytest.raises(DimensionMismatch):
        menu_grid_revenue(u12, 0)


def test_menu_grid_type_cap():
    count = 66
    values = [[k] for k in range(count)]
    masses = [0] + [F(1, count - 1)] * (count - 1)
    wide = build(1, 1, [values], [masses])
    with pytest.raises(ScaleLimit):
        menu_grid_revenue(wide, 1)


def test_menu_grid_assignment_cap(items12):
    with pytest.raises(ScaleLimit):
        menu_grid_revenue(items12, 4, max_assignments=1000)


# -- seeded generation ------------------------------------------------------


def test_gen_instance_is_deterministic():
    spec = {"n": 2, "m": 1, "support": 2}
    a = gen_instance(spec, 11)
    b = gen_instance(spec, 11)
    assert a == b
    assert a.digest() == b.digest()
    assert gen_instance(spec, 12).digest() != a.digest()


# Instance.digest() of drawn instances, covering joint, product and
# i.i.d. buyers: the draws themselves are pinned, not only their
# determinism, so a rewrite of the draw loops must make the same rng calls.
GEN_PINS = [
    ({"n": 2, "m": 1, "support": 2}, 0, "c83abccdd2fa1b39"),
    ({"n": 3, "m": 1, "support": 3, "iid": True}, 1, "0f8a21037f264e9e"),
    ({"n": 2, "m": 2, "support": 2}, 2, "d9c4e3b337287102"),
    ({"n": 2, "m": 2, "support": 2, "correlated": False}, 3, "7eda77b42dd3a865"),
    ({"n": 2, "m": 2, "support": [1, 2], "correlated": False}, 4, "b5c4371379641b53"),
    ({"n": 3, "m": 2, "support": 1, "iid": True, "correlated": False}, 5, "72cf6c228f72cc43"),
    (
        {"n": 2, "m": 3, "support": [2, 3], "value_range": 6, "denominator": 8},
        6,
        "85c4d4b634809dbb",
    ),
    (
        {"n": 2, "m": 2, "support": 3, "iid": True, "value_range": 2, "denominator": 1},
        7,
        "89bdb87e88ededbc",
    ),
]


@pytest.mark.parametrize("spec,seed,digest", GEN_PINS)
def test_gen_instance_draws_are_pinned(spec, seed, digest):
    assert gen_instance(spec, seed).digest() == digest


def test_gen_instance_profile_cap():
    with pytest.raises(ScaleLimit):
        gen_instance({"n": 3, "m": 1, "support": 7}, 0)
    gen_instance({"n": 3, "m": 1, "support": 7}, 0, cap=512)


@pytest.mark.parametrize(
    "spec",
    [
        {"n": 2, "m": 1, "support": 2},
        {"n": 1, "m": 2, "support": 4},
        {"n": 2, "m": 2, "support": 1, "correlated": False},
        {"n": 3, "m": 1, "support": [1, 2, 3]},
        {"n": 3, "m": 2, "support": 1, "iid": True},
    ],
)
def test_gen_shape_gives_the_drawn_program(spec):
    # The CLI bounds a --gen spec's dominant-strategy tableau by this
    # shape, taking its right-hand sides as nonnegative (no artificial
    # columns), before anything is drawn.
    for seed in (0, 1):
        instance = gen_instance(spec, seed)
        m, sizes = gen_shape(spec)
        assert (m, sizes) == (instance.m, tuple(instance.sizes))
        lp = build_dslp(instance)
        assert ProgramLayout(DS, m, sizes).shape == (lp.nrows, lp.ncols)
        assert all(q >= 0 for q in lp.b)


def test_gen_instance_iid_shares_distribution():
    inst = gen_instance({"n": 3, "m": 1, "support": 2, "iid": True}, 5)
    assert inst.supports[0] == inst.supports[1] == inst.supports[2]
    assert inst.probs[0] == inst.probs[1] == inst.probs[2]


def test_gen_instance_product_masses_factorize():
    inst = gen_instance(
        {"n": 1, "m": 2, "support": 2, "correlated": False}, 9
    )
    first = sorted({vec[0] for vec in inst.supports[0]})
    second = sorted({vec[1] for vec in inst.supports[0]})
    assert len(inst.supports[0]) == len(first) * len(second)
    marg0 = {w: F(0) for w in first}
    marg1 = {w: F(0) for w in second}
    for vec, q in zip(inst.supports[0], inst.probs[0]):
        marg0[vec[0]] += q
        marg1[vec[1]] += q
    for vec, q in zip(inst.supports[0], inst.probs[0]):
        assert q == marg0[vec[0]] * marg1[vec[1]]


def test_gen_instance_per_buyer_support_list():
    inst = gen_instance({"n": 2, "m": 1, "support": [1, 2]}, 3)
    assert inst.sizes == (2, 3)
    with pytest.raises(DimensionMismatch):
        gen_instance({"n": 2, "m": 1, "support": [1, 2, 3]}, 3)
    with pytest.raises(DimensionMismatch):
        gen_instance({"n": 2, "m": 1, "support": [1, 2], "iid": True}, 3)


def test_gen_instance_rejects_bad_sizes():
    with pytest.raises(DimensionMismatch):
        gen_instance({"n": 0}, 1)
    with pytest.raises(DimensionMismatch):
        gen_instance({"n": 1, "support": 0}, 1)


# The spec boundary: gen_instance, gen_shape (and so iid_scan) refuse
# what the CLI's --gen parser refuses, instead of coercing it.
SPEC_READERS = [lambda spec: gen_instance(spec, 0), gen_shape]


@pytest.mark.parametrize("read", SPEC_READERS)
def test_gen_spec_rejects_unknown_key(read):
    with pytest.raises(DimensionMismatch, match="unknown generator spec key 'supprt'"):
        read({"n": 2, "supprt": 9})


@pytest.mark.parametrize("read", SPEC_READERS)
@pytest.mark.parametrize(
    "spec", [{"n": 2.9}, {"m": "2"}, {"n": 2, "support": [1, 2.0]}, {"value_range": None}]
)
def test_gen_spec_rejects_non_integer_count(read, spec):
    with pytest.raises(DimensionMismatch, match="is not an integer"):
        read(spec)


@pytest.mark.parametrize("read", SPEC_READERS)
@pytest.mark.parametrize(
    "spec,named",
    [
        ({"n": 0}, "'n' is not positive: 0"),
        ({"m": -2}, "'m' is not positive: -2"),
        ({"value_range": 0}, "'value_range' is not positive: 0"),
        ({"denominator": 0}, "'denominator' is not positive: 0"),
        ({"n": 2, "support": [2, 0]}, r"'support' is not positive: \[2, 0\]"),
    ],
)
def test_gen_spec_rejects_count_below_one(read, spec, named):
    with pytest.raises(DimensionMismatch, match=f"generator spec value for {named}$"):
        read(spec)


@pytest.mark.parametrize("read", SPEC_READERS)
@pytest.mark.parametrize("spec", [{"n": True}, {"n": 2, "support": [1, False]}])
def test_gen_spec_rejects_boolean_count(read, spec):
    with pytest.raises(DimensionMismatch, match="is not an integer"):
        read(spec)


@pytest.mark.parametrize("read", SPEC_READERS)
@pytest.mark.parametrize("spec", [{"n": 3, "iid": "false"}, {"correlated": 0}])
def test_gen_spec_rejects_non_boolean_flag(read, spec):
    with pytest.raises(DimensionMismatch, match="is not a boolean"):
        read(spec)


@pytest.mark.parametrize("read", SPEC_READERS)
@pytest.mark.parametrize("spec", [{"x" * 5000: 1}, {"n": "x" * 5000}, {"iid": [0] * 2000}])
def test_gen_spec_echoes_long_input_short(read, spec):
    with pytest.raises(DimensionMismatch) as err:
        read(spec)
    assert "..." in str(err.value) and len(str(err.value)) < 200


# -- baselines never beat the optimum ---------------------------------------


def test_baselines_are_lower_bounds():
    for seed in range(4):
        inst = gen_instance({"n": 2, "m": 1, "support": 2}, seed)
        assert threshold_auction_revenue(inst) <= drev(inst)
    for seed in range(4):
        inst = gen_instance({"n": 1, "m": 2, "support": 2}, seed)
        assert menu_grid_revenue(inst, 2) <= drev(inst) <= brev(inst)
