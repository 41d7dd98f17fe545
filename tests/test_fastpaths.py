"""The rank-table paths against definition-level references.

mechanism_slacks and the alpha/beta slacks of the dual assembly are
computed per slice and per type; helpers.reference_slacks and
helpers.reference_dual_slacks evaluate every entry on its own from the
model's utilities and dual coefficients.  Both must agree exactly on
optimal pairs and on perturbed, infeasible ones."""

import random
from fractions import Fraction

import pytest

from auctionlp.auction import extract_dual, extract_mechanism, solve_form
from auctionlp.model import (
    BAYES,
    DS,
    Mechanism,
    bayes_dual_from_multipliers,
    ds_dual_from_multipliers,
    mechanism_slacks,
)
from auctionlp.oracles import gen_instance
from helpers import reference_dual_slacks, reference_slacks

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
    assert slacks.min_entry() < 0
    assert slacks == reference_slacks(instance, bad)


@pytest.mark.parametrize("form", [DS, BAYES])
@pytest.mark.parametrize("spec, seed", CASES)
def test_dual_slacks_match_definition(spec, seed, form):
    instance = gen_instance(spec, seed)
    dual = extract_dual(instance, solve_form(instance, form), form)
    assert (dual.alpha, dual.beta) == reference_dual_slacks(instance, dual, form)
    assemble = ds_dual_from_multipliers if form == DS else bayes_dual_from_multipliers
    other = assemble(instance, *_random_multipliers(instance, form, random.Random(seed)))
    assert not other.is_feasible()
    assert (other.alpha, other.beta) == reference_dual_slacks(instance, other, form)
