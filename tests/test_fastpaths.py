"""The rank-table paths against definition-level references.

mechanism_slacks and the alpha/beta slacks of the dual assembly are
computed per slice and per type; helpers.reference_slacks and
helpers.reference_dual_slacks evaluate every entry on its own from the
definitions of utilities and dual coefficients.  Both must agree exactly on
optimal pairs and on perturbed, infeasible ones.  The primal builders and
the mass tables they read are checked entry by entry against
helpers.reference_primal and Instance.mu / mu_minus.

The one builder and the one slack pass rest on an identity checked here
against the dominant-strategy program: a Bayesian row is the
opponent-mass-weighted sum of dominant-strategy rows."""

import itertools
import random
from fractions import Fraction

import pytest

from auctionlp.auction import (
    build_blp,
    build_dslp,
    extract_dual,
    extract_mechanism,
    solve_form,
)
from auctionlp.model import (
    BAYES,
    DS,
    Mechanism,
    dual_from_multipliers,
    mechanism_slacks,
    multiplier_keys,
)
from auctionlp.oracles import gen_instance
from helpers import min_entry, reference_dual_slacks, reference_primal, reference_slacks

F = Fraction

SHAPES = [
    ({"n": 1, "m": 1, "support": 4}, (3, 8)),  # one buyer
    ({"n": 2, "m": 1, "support": 3}, (1, 2)),
    ({"n": 3, "m": 1, "support": 2}, (4, 5)),
    ({"n": 4, "m": 1, "support": 2}, (6,)),
    ({"n": 2, "m": 2, "support": 3}, (7, 9)),  # two items
    ({"n": 2, "m": 2, "support": 1, "correlated": False}, (11, 12)),
]
CASES = [(spec, seed) for spec, seeds in SHAPES for seed in seeds]


def _instances():
    return [gen_instance(spec, seed) for spec, seed in CASES]


def test_corpus_covers_zero_mass_zero_types():
    # zero-mass zero types give zero-mass opponent slices; positive-mass
    # ones put weight on the zero type's rows
    masses = {
        instance.probs[i][instance.zero_index(i)] == 0
        for instance in _instances()
        for i in range(instance.n)
    }
    assert masses == {True, False}


def _perturbed(mechanism, rng):
    """Overcharge and overallocate at random profiles, so that some
    slack entries turn negative."""
    alloc = tuple(
        tuple(tuple(x + F(rng.randint(0, 2), 3) for x in cell) for cell in row)
        for row in mechanism.alloc
    )
    pay = tuple(
        tuple(p + F(rng.randint(-1, 3), 2) for p in row) for row in mechanism.pay
    )
    return Mechanism(form=mechanism.form, alloc=alloc, pay=pay)


def _random_multipliers(instance, form, rng):
    def q():
        return F(rng.randint(0, 4), rng.randint(1, 3))

    count = instance.profile_count
    if form == DS:
        # drawn in the order (t, t2, s), then keyed by profile rank
        draws = [
            [
                [[F(0) if t2 == t else q() for _ in range(count // k)] for t2 in range(k)]
                for t in range(k)
            ]
            for k in instance.sizes
        ]
        zeta = tuple(
            tuple(tuple(row[s] for row in draws[i][t]) for t, s in positions)
            for i, positions in enumerate(instance.positions)
        )
        eta = tuple(tuple(q() for _ in range(count)) for _ in instance.sizes)
    else:
        zeta = tuple(
            tuple(tuple(F(0) if t2 == t else q() for t2 in range(k)) for t in range(k))
            for k in instance.sizes
        )
        eta = tuple(tuple(q() for _ in range(k)) for k in instance.sizes)
    xi = tuple(tuple(q() for _ in range(count)) for _ in range(instance.m))
    return zeta, eta, xi


@pytest.mark.parametrize("form", [DS, BAYES])
@pytest.mark.parametrize("spec, seed", CASES)
def test_slacks_match_definition(spec, seed, form):
    instance = gen_instance(spec, seed)
    mechanism = extract_mechanism(instance, solve_form(instance, form), form)
    assert mechanism_slacks(instance, mechanism) == reference_slacks(instance, mechanism)
    bad = _perturbed(mechanism, random.Random(seed))
    slacks = mechanism_slacks(instance, bad)
    assert min_entry(slacks) < 0
    assert slacks == reference_slacks(instance, bad)


@pytest.mark.parametrize("form", [DS, BAYES])
@pytest.mark.parametrize("spec, seed", CASES)
def test_dual_slacks_match_definition(spec, seed, form):
    instance = gen_instance(spec, seed)
    dual = extract_dual(instance, solve_form(instance, form), form)
    assert (dual.alpha, dual.beta) == reference_dual_slacks(instance, dual, form)
    multipliers = _random_multipliers(instance, form, random.Random(seed))
    other = dual_from_multipliers(instance, form, *multipliers)
    assert not other.is_feasible()
    assert (other.alpha, other.beta) == reference_dual_slacks(instance, other, form)



def _weighted_sum(rows, weights):
    """sum_s weights[s] * rows[s] of sparse program rows, as a map from
    column to nonzero coefficient."""
    total = {}
    for row, w in zip(rows, weights):
        for j, coef in row:
            total[j] = total.get(j, 0) + w * coef
    return {j: coef for j, coef in total.items() if coef}


@pytest.mark.parametrize("spec, seed", CASES)
def test_bayesian_rows_are_weighted_sums_of_ds_rows(spec, seed):
    """A Bayesian ic/ir row, and its slack, is the sum over opponent
    slices s of mu_{-i}(s) times the dominant-strategy row at the same
    own type and report; multiplier_keys' scales are those weights."""
    instance = gen_instance(spec, seed)
    ds, bayes = build_dslp(instance), build_blp(instance)
    assert (bayes.sense, bayes.c) == (ds.sense, ds.c)
    for j, r in itertools.product(range(instance.m), range(instance.profile_count)):
        supply = ds.layout.xi(j, r), bayes.layout.xi(j, r)
        assert ds.rows[supply[0]] == bayes.rows[supply[1]]
        assert ds.b[supply[0]] == bayes.b[supply[1]] == 1
    assert not any(bayes.b[: bayes.layout.xi(0, 0)])

    # any allocation and payments, feasible or not
    rng = random.Random(seed)
    n, m, count = instance.n, instance.m, instance.profile_count
    alloc = tuple(
        tuple(tuple(F(rng.randint(0, 3), 3) for _ in range(m)) for _ in range(n))
        for _ in range(count)
    )
    pay = tuple(tuple(F(rng.randint(-1, 3), 2) for _ in range(n)) for _ in range(count))
    ds_slacks = mechanism_slacks(instance, Mechanism(form=DS, alloc=alloc, pay=pay))
    bayes_slacks = mechanism_slacks(instance, Mechanism(form=BAYES, alloc=alloc, pay=pay))
    assert bayes_slacks.c == ds_slacks.c
    for i, k in enumerate(instance.sizes):
        weights = [instance.mu_minus(i, vm) for vm in instance.others_profiles(i)]
        assert multiplier_keys(instance, BAYES, i)[4] == tuple(weights)
        assert set(multiplier_keys(instance, DS, i)[4]) == {1}
        for t in range(k):
            ranks = [slice_ranks[t] for slice_ranks in instance.ranks[i]]
            ds_rows = [ds.rows[ds.layout.eta(i, r)] for r in ranks]
            bayes_row = bayes.rows[bayes.layout.eta(i, t)]
            assert _weighted_sum([bayes_row], [1]) == _weighted_sum(ds_rows, weights)
            utility = sum(w * ds_slacks.b[i][r] for w, r in zip(weights, ranks))
            assert bayes_slacks.b[i][t] == utility
            for t2 in range(k):
                if t2 == t:
                    continue
                ds_rows = [ds.rows[ds.layout.zeta(i, r, t, t2)] for r in ranks]
                bayes_row = bayes.rows[bayes.layout.zeta(i, t, t, t2)]
                assert _weighted_sum([bayes_row], [1]) == _weighted_sum(ds_rows, weights)
                margin = sum(w * ds_slacks.a[i][r][t2] for w, r in zip(weights, ranks))
                assert bayes_slacks.a[i][t][t2] == margin


# correlated and i.i.d. draws, one to four buyers, one to three items
BUILD_SHAPES = [
    ({"n": 1, "m": 1, "support": 4}, (3, 8)),
    ({"n": 1, "m": 3, "support": 2}, (2,)),
    ({"n": 2, "m": 2, "support": 3}, (7, 9)),
    ({"n": 2, "m": 3, "support": 2}, (4,)),
    ({"n": 3, "m": 1, "support": 2, "iid": True}, (1, 5)),
    ({"n": 3, "m": 2, "support": 2, "iid": True}, (3,)),
    ({"n": 2, "m": 2, "support": 1, "correlated": False}, (11,)),
    ({"n": 4, "m": 1, "support": 2}, (6,)),
]
BUILD_CASES = [(spec, seed) for spec, seeds in BUILD_SHAPES for seed in seeds]


def test_build_corpus_has_zero_mass_opponent_slices():
    # a zero-mass slice adds nothing to the Bayesian rows of its buyer
    instances = [gen_instance(spec, seed) for spec, seed in BUILD_CASES]
    assert any(0 in slices for instance in instances for slices in instance.mu_minus_by_slice)


@pytest.mark.parametrize("spec, seed", BUILD_CASES)
def test_builders_and_mass_tables_match_definition(spec, seed):
    instance = gen_instance(spec, seed)
    assert instance.mu_by_rank == tuple(map(instance.mu, instance.profiles()))
    for i, slices in enumerate(instance.mu_minus_by_slice):
        assert slices == tuple(instance.mu_minus(i, vm) for vm in instance.others_profiles(i))
    for form, build in ((DS, build_dslp), (BAYES, build_blp)):
        lp, reference = build(instance), reference_primal(instance, form)
        assert lp.layout == reference.layout
        assert (lp.sense, lp.c, lp.b) == (reference.sense, reference.c, reference.b)
        # tuple equality: the same entries in the same order, row by row
        assert lp.rows == reference.rows
