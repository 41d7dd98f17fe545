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
from math import lcm

import pytest

from auctionlp.analysis import _slice_mismatch
from auctionlp.auction import (
    ProgramLayout,
    build_blp,
    build_dslp,
    extract_dual,
    extract_mechanism,
    solve_form,
)
from auctionlp.model import (
    BAYES,
    DS,
    DualNumerators,
    Mechanism,
    Scaled,
    SlackNumerators,
    _dual_from_scaled,
    _scale,
    _slack_numerators,
    dual_from_multipliers,
    mechanism_slacks,
    multiplier_keys,
    validate_instance,
)
from auctionlp.oracles import gen_instance
from auctionlp.virtual import check_cs
from helpers import (
    columns,
    mechanism_of,
    min_entry,
    others_profiles,
    phi_star,
    phibar_star,
    psi,
    psibar,
    reference_dual_slacks,
    reference_primal,
    reference_slacks,
    reference_slice_mismatch,
    table_of,
)

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
    return mechanism_of(mechanism.form, alloc, pay)


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
    assert (dual.phi, dual.psi) == _reference_coefficients(instance, dual, form)
    multipliers = _random_multipliers(instance, form, random.Random(seed))
    other = dual_from_multipliers(instance, form, *multipliers)
    assert not other.is_feasible()
    assert (other.alpha, other.beta) == reference_dual_slacks(instance, other, form)
    assert (other.phi, other.psi) == _reference_coefficients(instance, other, form)


def _reference_coefficients(instance, dual, form):
    """(phi, psi) of a dual by definition, at every key: phi_star and
    psi per profile (DS form), phibar_star and psibar per own type
    (Bayesian form)."""
    items = range(instance.m)
    if form == BAYES:
        types = list(enumerate(instance.sizes))
        return (
            tuple(
                tuple(tuple(phibar_star(dual, instance, i, j, t) for j in items) for t in range(k))
                for i, k in types
            ),
            tuple(tuple(psibar(dual, instance, i, t) for t in range(k)) for i, k in types),
        )
    profiles = list(instance.profiles())
    buyers = range(instance.n)
    return (
        tuple(
            tuple(tuple(phi_star(dual, instance, i, j, v) for j in items) for v in profiles)
            for i in buyers
        ),
        tuple(tuple(psi(dual, instance, i, v) for v in profiles) for i in buyers),
    )



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
    ds_at, bayes_at = (ProgramLayout(form, instance.m, instance.sizes) for form in (DS, BAYES))
    assert (bayes.sense, bayes.c) == (ds.sense, ds.c)
    for j, r in itertools.product(range(instance.m), range(instance.profile_count)):
        supply = ds_at.xi(j, r), bayes_at.xi(j, r)
        assert ds.rows[supply[0]] == bayes.rows[supply[1]]
        assert ds.b[supply[0]] == bayes.b[supply[1]] == 1
    assert not any(bayes.b[: bayes_at.xi(0, 0)])

    # any allocation and payments, feasible or not
    rng = random.Random(seed)
    n, m, count = instance.n, instance.m, instance.profile_count
    alloc = tuple(
        tuple(tuple(F(rng.randint(0, 3), 3) for _ in range(m)) for _ in range(n))
        for _ in range(count)
    )
    pay = tuple(tuple(F(rng.randint(-1, 3), 2) for _ in range(n)) for _ in range(count))
    ds_slacks = mechanism_slacks(instance, mechanism_of(DS, alloc, pay))
    bayes_slacks = mechanism_slacks(instance, mechanism_of(BAYES, alloc, pay))
    assert bayes_slacks.c == ds_slacks.c
    for i, k in enumerate(instance.sizes):
        weights = [instance.mu_minus(i, vm) for vm in others_profiles(instance, i)]
        assert multiplier_keys(instance, BAYES, i).scales.fractions() == tuple(weights)
        assert set(multiplier_keys(instance, DS, i).scales.fractions()) == {1}
        for t in range(k):
            ranks = [slice_ranks[t] for slice_ranks in instance.ranks[i]]
            ds_rows = [ds.rows[ds_at.eta(i, r)] for r in ranks]
            bayes_row = bayes.rows[bayes_at.eta(i, t)]
            assert _weighted_sum([bayes_row], [1]) == _weighted_sum(ds_rows, weights)
            utility = sum(w * ds_slacks.b[i][r] for w, r in zip(weights, ranks))
            assert bayes_slacks.b[i][t] == utility
            for t2 in range(k):
                if t2 == t:
                    continue
                ds_rows = [ds.rows[ds_at.zeta(i, r, t, t2)] for r in ranks]
                bayes_row = bayes.rows[bayes_at.zeta(i, t, t, t2)]
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


def _slice_masses(instance):
    """Per buyer, the mass of each opponent slice, by definition."""
    return tuple(
        tuple(instance.mu_minus(i, vm) for vm in others_profiles(instance, i))
        for i in range(instance.n)
    )


def test_build_corpus_has_zero_mass_opponent_slices():
    # a zero-mass slice adds nothing to the Bayesian rows of its buyer
    instances = [gen_instance(spec, seed) for spec, seed in BUILD_CASES]
    assert any(0 in slices for instance in instances for slices in _slice_masses(instance))


@pytest.mark.parametrize("spec, seed", BUILD_CASES)
def test_builders_and_mass_tables_match_definition(spec, seed):
    instance = gen_instance(spec, seed)
    masses, slice_masses = tuple(map(instance.mu, instance.profiles())), _slice_masses(instance)
    assert instance.mu_scaled.fractions() == masses
    for scaled, slices in zip(instance.mu_minus_scaled, slice_masses):
        assert scaled.fractions() == slices
    # the integer products sit over the least denominators, as a split would
    assert instance.mu_scaled == _scale(masses)
    assert instance.mu_minus_scaled == tuple(map(_scale, slice_masses))
    for form, build in ((DS, build_dslp), (BAYES, build_blp)):
        lp, reference = build(instance), reference_primal(instance, form)
        assert (lp.sense, lp.c, lp.b) == (reference.sense, reference.c, reference.b)
        # tuple equality: the same entries in the same order, row by row
        assert lp.rows == reference.rows


# -- the kernels, numerator for numerator ----------------------------------------
#
# _slack_numerators and _dual_from_scaled gather every DS key of a buyer
# on all slices at once, and sum a Bayesian key's slices.  On random
# mechanisms (negative entries included) and random multipliers (zeta
# diagonals nonzero, which every formula ignores), both must give the
# definitions' values as the very numerators, over the very
# denominators, that the module docstring of model names.


def _over(values, den):
    """Rationals nested in tuples as integer numerators over den, each
    of which must be whole."""
    if isinstance(values, tuple):
        return tuple(_over(value, den) for value in values)
    whole = values * den
    assert whole.denominator == 1
    return whole.numerator


def _kernel_case(seed, form):
    """A seeded instance (n 1-3, m 1-3, support sizes 2-3), a random
    mechanism of the form and random multipliers of the form, over
    random denominators."""
    rng = random.Random(seed)
    n, m = rng.randint(1, 3), rng.randint(1, 3)
    instance = gen_instance({"n": n, "m": m, "support": [rng.randint(1, 2) for _ in range(n)]}, seed)
    count = instance.profile_count
    alloc = tuple(
        tuple(tuple(rng.randint(-3, 6) for _ in range(m)) for _ in range(n)) for _ in range(count)
    )
    pay = tuple(tuple(rng.randint(-4, 9) for _ in range(n)) for _ in range(count))
    mechanism = Mechanism(form, Scaled(columns(alloc, pay), rng.randint(1, 6)))
    multipliers = []
    for k in instance.sizes:
        keys = range(count if form == DS else k)
        zeta = tuple(tuple(rng.randint(-2, 5) for _ in range(k)) for _ in keys)
        eta = tuple(rng.randint(-2, 5) for _ in keys)
        multipliers.append(Scaled((zeta, eta), rng.randint(1, 7)))
    xi = Scaled(tuple(tuple(rng.randint(-3, 5) for _ in range(count)) for _ in range(m)), rng.randint(1, 5))
    return instance, mechanism, multipliers, xi


@pytest.mark.parametrize("form", [DS, BAYES])
def test_kernels_give_the_definitions_numerators(form):
    diagonals = 0
    for seed in range(200):
        instance, mechanism, multipliers, xi = _kernel_case(seed, form)
        den = mechanism.scaled.den
        mu_den = instance.mu_scaled.den
        value_dens = [instance.supports_scaled[i].den for i in range(instance.n)]
        scale_dens = [multiplier_keys(instance, form, i).scales.den for i in range(instance.n)]

        reference = reference_slacks(instance, mechanism)
        slack_dens = [v * w * den for v, w in zip(value_dens, scale_dens)]
        assert _slack_numerators(instance, mechanism) == SlackNumerators(
            tuple(Scaled(_over(a, d), d) for a, d in zip(reference.a, slack_dens)),
            tuple(Scaled(_over(b, d), d) for b, d in zip(reference.b, slack_dens)),
            Scaled(_over(reference.c, den), den),
        )

        dual = _dual_from_scaled(instance, form, multipliers, xi)
        alpha, beta = reference_dual_slacks(instance, dual, form)
        phi, psi = _reference_coefficients(instance, dual, form)
        parts = []
        for i, ((_, zeta_den), v, w) in enumerate(zip(multipliers, value_dens, scale_dens)):
            alpha_den, beta_den = lcm(xi.den, w * zeta_den * v), lcm(w * zeta_den, mu_den)
            parts.append((
                Scaled(_over(alpha[i], alpha_den), alpha_den),
                Scaled(_over(beta[i], beta_den), beta_den),
                Scaled(_over(phi[i], zeta_den * v), zeta_den * v),
                Scaled(_over(psi[i], zeta_den), zeta_den),
            ))
        zetas = tuple(Scaled(zeta, d) for (zeta, _), d in multipliers)
        etas = tuple(Scaled(eta, d) for (_, eta), d in multipliers)
        assert dual.scaled == DualNumerators(zetas, etas, xi, *map(tuple, zip(*parts)))
        diagonals += any(
            row[instance.positions[i][key][0] if form == DS else key]
            for i, zeta in enumerate(dual.zeta)
            for key, row in enumerate(zeta)
        )
    assert diagonals > 150


# -- adversarial denominators ---------------------------------------------------
#
# The slacks, the dual assembly and the slackness ledger run on integer
# numerators over one denominator per vector or per buyer.  These
# instances give them masses and values over large coprime primes (all
# above 2**31, so the float pass cannot round to them and the exact
# simplex answers), buyers whose values have different denominators,
# and zero-mass zero types, whose opponents then have zero-scale
# Bayesian slices.

P1, P2, P3, P4 = 2147483659, 2147483693, 2147483713, 2147483743


def _adversarial_instances():
    one_item = validate_instance(
        {
            "buyers": 2,
            "items": 1,
            "supports": [
                [["0"], ["1/3"], ["5/7"]],
                [["0"], [f"{P2 - 1}/{P2}"], ["2"]],
            ],
            "probs": [
                ["0", f"700000001/{P1}", f"{P1 - 700000001}/{P1}"],
                [F(1, 5), F(3, 5) - F(7, P3), F(1, 5) + F(7, P3)],
            ],
        }
    )
    two_items = validate_instance(
        {
            "buyers": 2,
            "items": 2,
            "supports": [
                [["0", "0"], ["1/3", "2/3"], ["4/3", "1/9"]],
                [["0", "0"], [f"3/{P4}", "1"], ["5/2", f"{P4 + 1}/{P4}"]],
            ],
            "probs": [
                ["0", f"1/{P1}", f"{P1 - 1}/{P1}"],
                [F(1, P3), F(1, 2), F(1, 2) - F(1, P3)],
            ],
        }
    )
    return one_item, two_items


def _big(values):
    """Whether some entry has a denominator above 2**31."""
    return any(q.denominator > 2**31 for q in values)


def _flat(nested):
    if isinstance(nested, tuple):
        return [q for part in nested for q in _flat(part)]
    return [nested]


def _reference_ledger(instance, mechanism, dual, form):
    """The five ledger families and the objective gap, by definition
    from the reference slacks: plain Fraction sums of products."""
    slacks = reference_slacks(instance, mechanism)
    alpha, beta = reference_dual_slacks(instance, dual, form)
    count = instance.profile_count
    items, buyers = range(instance.m), range(instance.n)

    def products(pairs):
        return sum((a * b for a, b in pairs), F(0))

    families = (
        products(zip(_flat(slacks.a), _flat(dual.zeta))),
        products(zip(_flat(slacks.b), _flat(dual.eta))),
        products(zip(_flat(slacks.c), _flat(dual.xi))),
        products(
            (alpha[i][j][r], mechanism.alloc[r][i][j])
            for i in buyers for j in items for r in range(count)
        ),
        products((beta[i][r], mechanism.pay[r][i]) for i in buyers for r in range(count)),
    )
    revenue = sum(
        (instance.mu(v) * sum(mechanism.pay[instance.rank(v)], F(0)) for v in instance.profiles()),
        F(0),
    )
    return families, sum(_flat(dual.xi), F(0)) - revenue


def test_adversarial_corpus_has_what_it_claims():
    one_item, two_items = _adversarial_instances()
    for instance in (one_item, two_items):
        assert _big(_flat(instance.probs))
        assert 0 in _slice_masses(instance)[1]  # zero-scale slices
        dens = [instance.supports_scaled[i].den for i in range(instance.n)]
        assert len(set(dens)) == instance.n and max(dens) > 2**31


@pytest.mark.parametrize("form", [DS, BAYES])
@pytest.mark.parametrize("which", [0, 1])
def test_integer_paths_hold_on_large_coprime_denominators(which, form):
    instance = _adversarial_instances()[which]
    certificate = solve_form(instance, form)
    assert _big(certificate.primal + certificate.dual)
    mechanism = extract_mechanism(instance, certificate, form)
    dual = extract_dual(instance, certificate, form)

    # the optimal pair, against the references
    assert mechanism_slacks(instance, mechanism) == reference_slacks(instance, mechanism)
    assert (dual.alpha, dual.beta) == reference_dual_slacks(instance, dual, form)
    assert (dual.phi, dual.psi) == _reference_coefficients(instance, dual, form)
    assert dual.objective() == certificate.objective
    assert mechanism.revenue(instance) == certificate.objective
    ledger = check_cs(instance, mechanism, dual)
    assert ledger.gap == 0 and _reference_ledger(instance, mechanism, dual, form) == (
        (0, 0, 0, 0, 0),
        0,
    )

    # a feasible dual off the optimum: each family of the ledger as defined
    bumped = tuple(tuple(x + F(1, P4) for x in col) for col in dual.xi)
    loose = dual_from_multipliers(instance, form, dual.zeta, dual.eta, bumped)
    assert loose.is_feasible()
    ledger = check_cs(instance, mechanism, loose)
    families, gap = _reference_ledger(instance, mechanism, loose, form)
    assert (ledger.ic, ledger.ir, ledger.supply, ledger.alloc, ledger.pay) == families
    assert ledger.gap == gap == loose.objective() - mechanism.revenue(instance) != 0

    # perturbed mechanisms and multipliers over more large primes
    rng = random.Random(which)
    bad = mechanism_of(
        form,
        tuple(
            tuple(tuple(x + F(rng.randint(0, 2), P1) for x in cell) for cell in row)
            for row in mechanism.alloc
        ),
        tuple(tuple(p + F(rng.randint(-2, 3), P2) for p in row) for row in mechanism.pay),
    )
    slacks = mechanism_slacks(instance, bad)
    reference = reference_slacks(instance, bad)
    assert slacks == reference
    assert slacks.feasible == reference.feasible == (min_entry(reference) >= 0)
    zeta, eta, xi = _random_multipliers(instance, form, rng)
    zeta = tuple(
        tuple(tuple(z * F(P3, P1) - (F(1, P2) if z else 0) for z in row) for row in zeta_i)
        for zeta_i in zeta
    )
    other = dual_from_multipliers(instance, form, zeta, eta, xi)
    assert (other.alpha, other.beta) == reference_dual_slacks(instance, other, form)
    assert (other.phi, other.psi) == _reference_coefficients(instance, other, form)
    entries = _flat((other.zeta, other.eta, other.xi, other.alpha, other.beta))
    assert other.is_feasible() == (min(entries) >= 0)
    assert other.objective() == sum(_flat(xi), F(0))


def test_numerators_stand_for_the_fractions():
    # what extraction and the producers after it keep equals what the
    # Fractions split into, entry by entry
    instance = _adversarial_instances()[1]
    certificate = solve_form(instance, BAYES)
    mechanism = extract_mechanism(instance, certificate, BAYES)
    slacks = mechanism_slacks(instance, mechanism)
    dual = extract_dual(instance, certificate, BAYES)
    families = ("zeta", "eta", "xi", "alpha", "beta", "phi", "psi")
    for kept, views in (
        (mechanism.scaled, columns(mechanism.alloc, mechanism.pay)),
        (slacks.scaled, (slacks.a, slacks.b, slacks.c)),
        (dual.scaled, tuple(getattr(dual, family) for family in families)),
    ):
        kept_values = [F(n, s.den) for s in _scaled_parts(kept) for n in _flat(s.nums)]
        assert kept_values == _flat(views)
    # the views are the definitions' values, so these types compare by value
    assert slacks == reference_slacks(instance, mechanism)
    assert mechanism == mechanism_of(BAYES, mechanism.alloc, mechanism.pay)
    assert dual == dual_from_multipliers(instance, BAYES, dual.zeta, dual.eta, dual.xi)


def _twice(nested):
    return tuple(map(_twice, nested)) if isinstance(nested, tuple) else 2 * nested


def test_values_hash_alike_across_denominators():
    # one value held over two denominators: equal, and equal hashes
    instance = _adversarial_instances()[1]
    certificate = solve_form(instance, DS)
    dual = extract_dual(instance, certificate, DS)
    rebuilt = dual_from_multipliers(instance, DS, dual.zeta, dual.eta, dual.xi)
    assert rebuilt.scaled != dual.scaled
    assert rebuilt == dual and hash(rebuilt) == hash(dual)
    mechanism = extract_mechanism(instance, certificate, DS)
    nums, den = mechanism.scaled
    doubled = Mechanism(DS, Scaled(_twice(nums), 2 * den))
    assert doubled.scaled != mechanism.scaled
    for other in (doubled, mechanism_of(DS, mechanism.alloc, mechanism.pay)):
        assert other == mechanism and hash(other) == hash(mechanism)
    # the form is part of the value
    assert Mechanism(BAYES, mechanism.scaled) != mechanism


def _scaled_parts(value):
    """The Scaled families in a Scaled, a tuple of them, or a record of them."""
    if isinstance(value, Scaled):
        return [value]
    if isinstance(value, tuple):
        return [s for part in value for s in _scaled_parts(part)]
    return []


@pytest.mark.parametrize("index", range(len(CASES) + 2))
def test_slice_mismatch_matches_definition(index):
    # a dual spread across slices by the opponent masses, and a table
    # constant across them, then one entry at a time moved off
    instance = (_instances() + list(_adversarial_instances()))[index]
    rng = random.Random(index)
    zeta_b, eta_b, xi = _random_multipliers(instance, BAYES, rng)
    weights = _slice_masses(instance)
    zeta = [
        [[z * weights[i][s] for z in zeta_b[i][t]] for t, s in positions]
        for i, positions in enumerate(instance.positions)
    ]
    eta = [
        [eta_b[i][t] * weights[i][s] for t, s in positions]
        for i, positions in enumerate(instance.positions)
    ]
    values = [
        [[F(t + j, 3) for t, _ in positions] for j in range(instance.m)]
        for positions in instance.positions
    ]

    def compare():
        dual = dual_from_multipliers(
            instance, DS, tuple(tuple(map(tuple, z)) for z in zeta), tuple(map(tuple, eta)), xi
        )
        table = table_of(DS, tuple(tuple(map(tuple, v)) for v in values))
        found = []
        for i in range(instance.n):
            for tab in (None, table):
                found.append(_slice_mismatch(instance, dual, i, tab))
                assert found[-1] == reference_slice_mismatch(instance, dual, i, tab)
        return found

    assert compare() == [None] * 2 * instance.n
    witnessed = set()
    for _ in range(12):
        i = rng.randrange(instance.n)
        r = rng.randrange(instance.profile_count)
        t = instance.positions[i][r][0]
        kind = rng.choice(["eta", "zeta", "phi"])
        if kind == "eta":
            eta[i][r] += F(1, 7)
        elif kind == "zeta":
            zeta[i][r][(t + 1) % instance.sizes[i]] += F(1, 7)
        else:
            values[i][rng.randrange(instance.m)][r] += 1
        witnessed.update(w[0] for w in compare() if w is not None)
    # one buyer has one slice, so nothing to compare
    assert witnessed or instance.n == 1
