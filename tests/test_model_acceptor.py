"""The model acceptor against the program's own optimality check.

solve_form hands every vertex of a dominant-strategy or Bayesian primal
to auction._accept, which proves it on the model: the mechanism and
the dual solution that (x, y) stand for must be feasible, with revenue
equal to the dual objective.  certify_optimal proves the same pair on
the program's rows and columns.  The two must accept and refuse the
same (x, y), and an accepted pair's objective must be the program's c.x.
The candidates are each optimal pair and its single-entry perturbations,
up and down, in every column family (x, p) and row family (ic, ir, sup).
The corpus has zero-mass opponent slices, which add no Bayesian rows,
and a buyer with one type, which has no ic rows."""

from fractions import Fraction

import pytest

from auctionlp import auction
from auctionlp.auction import (
    _accept,
    _layout,
    build_blp,
    build_dslp,
    certificate_document,
    extract_dual,
    extract_mechanism,
    solve_form,
)
from auctionlp.lp import CertificateError, LpCertificate, recheck_certificate
from auctionlp.lp.program import certify_optimal
from auctionlp.model import BAYES, DS, validate_instance
from auctionlp.oracles import gen_instance
from conftest import build
from helpers import labels

F = Fraction

# one to four buyers, one to three items, correlated and i.i.d. draws
SPECS = [
    ({"n": 1, "m": 1, "support": 4}, 3),
    ({"n": 1, "m": 3, "support": 2}, 2),
    ({"n": 2, "m": 2, "support": 3}, 7),
    ({"n": 3, "m": 1, "support": 2, "iid": True}, 1),
    ({"n": 3, "m": 2, "support": 2, "iid": True}, 3),
    ({"n": 2, "m": 2, "support": 1, "correlated": False}, 11),
    ({"n": 4, "m": 1, "support": 2}, 6),
]


def one_type_buyer():
    """Two items; buyer 0 has only the zero type."""
    return build(
        2, 2, [[[0, 0]], [[0, 0], [1, 2], [3, 1]]], [[1], ["1/4", "1/4", "1/2"]]
    )


# test id -> a function making the instance
INSTANCES = {
    "-".join(f"{key}{value}" for key, value in spec.items()) + f"-seed{seed}": (
        lambda spec=spec, seed=seed: gen_instance(spec, seed)
    )
    for spec, seed in SPECS
}
INSTANCES["one-type-buyer"] = one_type_buyer


def test_corpus_has_zero_mass_slices_and_a_one_type_buyer():
    instances = [make() for make in INSTANCES.values()]
    assert any(
        0 in scaled.nums for instance in instances for scaled in instance.mu_minus_scaled
    )
    assert any(1 in instance.sizes for instance in instances)


def perturbations(layout, x, y):
    """(x, y) with one entry raised or lowered by 1/7: in each column
    family (x, p) of x and each row family (ic, ir, sup) of y, its first
    nonzero entry and its first zero one."""
    rows, cols = labels(layout)
    out = []
    for vector, names, is_x in ((x, cols, True), (y, rows, False)):
        families = {}
        for index, name in enumerate(names):
            families.setdefault(name.split(":")[0], []).append(index)
        for members in families.values():
            chosen = [r for r in members if vector[r]][:1] + [r for r in members if not vector[r]][:1]
            for index in chosen:
                for step in (F(1, 7), F(-1, 7)):
                    changed = list(vector)
                    changed[index] += step
                    out.append((changed, y) if is_x else (x, changed))
    return out


def program_verdict(lp, x, y):
    """c.x if certify_optimal accepts (x, y), else None."""
    try:
        return certify_optimal(lp, x, y).objective
    except CertificateError:
        return None


def model_verdict(instance, layout, lp, x, y):
    """The objective of the certificate the model acceptor makes of
    (x, y), read through the layout, else None."""
    try:
        certificate = _accept(instance, layout, lp, x, y)
    except CertificateError:
        return None
    assert (certificate.primal, certificate.dual) == (tuple(x), tuple(y))
    assert certificate.proof.mechanism.form == layout.form
    return certificate.objective


@pytest.mark.parametrize("form", [DS, BAYES])
@pytest.mark.parametrize("name", list(INSTANCES))
def test_model_acceptor_agrees_with_the_program_check(name, form):
    instance = INSTANCES[name]()
    lp = (build_dslp if form == DS else build_blp)(instance)
    certificate = solve_form(instance, form)
    # the proof of the solve stays checkable apart from the model
    recheck_certificate(lp, certificate)
    x, y = certificate.primal, certificate.dual
    layout = _layout(instance, form)
    candidates = [(x, y), *perturbations(layout, x, y)]
    verdicts = [program_verdict(lp, *pair) for pair in candidates]
    assert [model_verdict(instance, layout, lp, *pair) for pair in candidates] == verdicts
    assert verdicts[0] == certificate.objective
    assert verdicts.count(None) > len(candidates) // 2


@pytest.mark.parametrize("form", [DS, BAYES])
def test_extraction_returns_what_the_proof_built(monkeypatch, form):
    instance = gen_instance({"n": 2, "m": 2, "support": 2}, 5)
    certificate = solve_form(instance, form)
    proof = certificate.proof
    proved = []
    original = auction._prove

    def spy(*args):
        proved.append(args[0])
        return original(*args)

    monkeypatch.setattr(auction, "_prove", spy)
    assert extract_mechanism(instance, certificate, form) is proof.mechanism
    assert extract_dual(instance, certificate, form) is proof.dual
    document = certificate_document(instance, form, certificate)
    # an equal instance validated again is another object with the same
    # program, so the proof is its optimum too and is reused
    twin = validate_instance(instance.to_data())
    assert twin == instance and twin is not instance
    assert extract_mechanism(twin, certificate, form) is proof.mechanism
    assert extract_dual(twin, certificate, form) is proof.dual
    assert certificate_document(twin, form, certificate) == document
    assert proved == []
    # without its proof, each reader proves the vectors once, which
    # builds equal objects and the same document
    bare = LpCertificate(certificate.primal, certificate.dual, certificate.objective)
    mechanism = extract_mechanism(twin, bare, form)
    assert mechanism == proof.mechanism and mechanism is not proof.mechanism
    dual = extract_dual(twin, bare, form)
    assert dual == proof.dual and dual is not proof.dual
    assert certificate_document(twin, form, bare) == document
    assert len(proved) == 3 and all(seen is twin for seen in proved)
