"""The integer producers against their plain-Fraction references.

canonical_flow, myerson_mechanism, face_excess, the equivalence maps
and the regularization moves build their results on integer numerators;
tests/helpers.py computes each by definition in Fractions.  Duals and
mechanisms compare by value, so each result must equal the one
dual_from_multipliers or mechanism_of builds from the reference's
Fractions.  The corpus is seeded single-item instances (two to four
buyers, i.i.d. and not, some whose flow needs ironing), a few
multi-item optimal duals, and hypothesis instances whose masses are
over primes above 2**31."""

import pytest
from hypothesis import given, settings, strategies as st

from auctionlp import analysis, auction, model
from auctionlp.analysis import (
    _tight_dual,
    bic_to_dsic_dual,
    canonical_flow,
    characterize,
    dsic_to_bic_dual,
    face_excess,
    item_marginal,
    myerson_mechanism,
    proved_certificate,
)
from auctionlp.auction import extract_dual, solve_form
from auctionlp.model import BAYES, DS, dual_from_multipliers, validate_instance
from auctionlp.oracles import gen_instance
from auctionlp.virtual import check_ubvv, regularize, virtual_values
from helpers import (
    reference_bic_to_dsic,
    reference_canonical_flow,
    reference_dsic_to_bic,
    reference_face_excess,
    reference_myerson_mechanism,
    reference_regularize,
)

# (buyers, support): 9 to 81 profiles
SINGLE_ITEM_SHAPES = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]
SINGLE_ITEM_CASES = [
    ({"n": n, "m": 1, "support": support, "iid": bool(seed % 2)}, seed)
    for seed in range(30)
    for n, support in [SINGLE_ITEM_SHAPES[seed % len(SINGLE_ITEM_SHAPES)]]
]
MULTI_ITEM_CASES = [
    ({"n": 2, "m": 2, "support": 2}, 1),
    ({"n": 2, "m": 2, "support": 2, "iid": True}, 2),
    ({"n": 3, "m": 2, "support": 1}, 3),
]
PRIMES = (2147483659, 2147483693, 2147483713, 2147483743)


def _check_maps(instance, ds_dual):
    """Both equivalence maps, starting from an agent-independent
    dominant-strategy dual, and the regularization of each image."""
    bayes = dsic_to_bic_dual(instance, ds_dual)
    zeta, eta = reference_dsic_to_bic(instance, ds_dual)
    assert bayes == dual_from_multipliers(instance, BAYES, zeta, eta, ds_dual.xi)
    _check_regularize(instance, bayes)
    spread = bic_to_dsic_dual(instance, bayes)
    zeta, eta = reference_bic_to_dsic(instance, bayes)
    assert spread == dual_from_multipliers(instance, DS, zeta, eta, bayes.xi)
    # agent independence puts no weight on zero-mass slices, so the maps
    # invert each other
    assert spread == ds_dual
    _check_regularize(instance, spread)


def _check_regularize(instance, dual):
    result = regularize(instance, dual, revenue=dual.objective())
    zeta, eta = reference_regularize(instance, dual, dual.form)
    assert result == dual_from_multipliers(instance, dual.form, zeta, eta, dual.xi)


def _check_flow(instance):
    """canonical_flow, myerson_mechanism, face_excess, both maps and the
    regularizations on the instance's flow."""
    flow = canonical_flow(instance)
    zeta, eta, xi = reference_canonical_flow(instance)
    assert (flow.zeta, flow.eta, flow.xi) == (zeta, eta, xi)
    assert flow == dual_from_multipliers(instance, DS, zeta, eta, xi)
    assert myerson_mechanism(instance, flow) == reference_myerson_mechanism(instance, flow)
    assert face_excess(instance, flow) == reference_face_excess(instance, flow)
    # the unironed flow is always feasible and agent-independent; only
    # its auction can fail
    _check_maps(instance, flow)


def test_single_item_corpus_needs_ironing_sometimes():
    instances = [gen_instance(spec, seed) for spec, seed in SINGLE_ITEM_CASES]
    accepted = [proved_certificate(x, DS) is not None for x in instances]
    assert any(accepted) and not all(accepted)


@pytest.mark.parametrize("spec, seed", SINGLE_ITEM_CASES)
def test_flow_producers_match_their_references(spec, seed):
    _check_flow(gen_instance(spec, seed))


@pytest.mark.parametrize("spec, seed", MULTI_ITEM_CASES)
def test_optimal_dual_producers_match_their_references(spec, seed):
    instance = gen_instance(spec, seed)
    ds_dual = extract_dual(instance, solve_form(instance, DS), DS)
    assert face_excess(instance, ds_dual) == reference_face_excess(instance, ds_dual)
    _check_regularize(instance, ds_dual)
    bayes = extract_dual(instance, solve_form(instance, BAYES), BAYES)
    _check_regularize(instance, bayes)
    spread = bic_to_dsic_dual(instance, bayes)
    zeta, eta = reference_bic_to_dsic(instance, bayes)
    assert spread == dual_from_multipliers(instance, DS, zeta, eta, bayes.xi)
    _check_maps(instance, spread)


@st.composite
def prime_mass_instances(draw):
    """Single-item instances of two or three buyers, each with two or
    three types listed in any order, whose masses are over a prime above
    2**31 and whose values are over 1, 7 or such a prime."""
    n = draw(st.integers(2, 3))
    iid = draw(st.booleans())
    supports, probs = [], []
    for i in range(n):
        if iid and i:
            supports.append(supports[0])
            probs.append(probs[0])
            continue
        k = draw(st.integers(2, 3))
        p = draw(st.sampled_from(PRIMES))
        den = draw(st.sampled_from((1, 7, *PRIMES)))
        size = {"min_size": k - 1, "max_size": k - 1}
        values = draw(st.lists(st.integers(1, 9 * den), unique=True, **size))
        cuts = sorted(draw(st.lists(st.integers(0, p), **size)))
        masses = [b - a for a, b in zip([0, *cuts], [*cuts, p])]
        types = draw(st.permutations(list(zip([0, *values], masses))))
        supports.append([[f"{v}/{den}"] for v, _ in types])
        probs.append([f"{q}/{p}" for _, q in types])
    return validate_instance({"buyers": n, "items": 1, "supports": supports, "probs": probs})


@settings(max_examples=25, deadline=None)
@given(prime_mass_instances())
def test_flow_producers_match_their_references_over_large_primes(instance):
    _check_flow(instance)


# Both single-item paths of characterize: the flow's proof accepts the
# support-2 instance and declines the support-3 one, which then solves
# both programs.  On one item SRev is DRev, so SRev builds no
# instance.  The one sanctioned split is of a certificate vector, which
# holds Fractions because the exact simplex computes in them: the model
# proof of each primal solve splits its primal point and its row
# multipliers once, and extraction returns what the proof built, so the
# support-3 path splits the dominant-strategy vectors (384 and 832
# entries), then the Bayesian ones (384 and 112).
@pytest.mark.parametrize("support, seed", [(2, 0), (3, 1)])
def test_producers_split_no_fractions(monkeypatch, support, seed):
    instance = gen_instance({"n": 3, "m": 1, "support": support, "iid": True}, seed)
    assert item_marginal(instance, 0) == instance
    assert (analysis.proved_certificate(instance, DS) is None) == (support == 3)
    # the instance's own tables are split once, where they are read in
    for table in ("supports_scaled", "probs_scaled", "mu_scaled", "mu_minus_scaled"):
        getattr(instance, table)

    def refuse(nested):
        raise AssertionError("a producer split Fractions into numerators")

    split, expected = model._scale, {2: [], 3: [384, 832, 384, 112]}[support]

    def certificate_vector(vector):
        if not expected or len(vector) != expected.pop(0):
            refuse(vector)
        return split(vector)

    monkeypatch.setattr(model, "_scale", refuse)
    # auction binds _scale at import, so its proof is patched apart
    monkeypatch.setattr(auction, "_scale", certificate_vector)
    report = characterize(instance)
    # the steps gen_records takes after characterize on an i.i.d. spec
    dual, excess = _tight_dual(instance, report)
    regular = regularize(instance, dual, revenue=report.drev)
    assert check_ubvv(virtual_values(instance, regular), instance).checked
    assert report.ai_witness is not None and excess == 0
    assert expected == []
