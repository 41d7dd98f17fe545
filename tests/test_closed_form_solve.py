"""solve's one-item closed form: Myerson's auction with the canonical
flow (dominant-strategy form) or the flow's Bayesian image (Bayesian
form), each proved on its own and written to the certificate from its
proof, the program answering only where the closed form's exact checks
refuse."""

import contextlib
import hashlib
import io
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from auctionlp import analysis, auction, cli
from auctionlp.analysis import (
    _flow_image,
    bic_to_dsic_dual,
    canonical_flow,
    dsic_to_bic_dual,
    myerson_mechanism,
    proved_certificate,
)
from auctionlp.auction import (
    _mechanism_entries,
    _multipliers,
    _over_common_denominator,
    _section_entries,
    certificate_document,
    solve_form,
    verify_certificate_document,
)
from auctionlp.cli import main
from auctionlp.errors import LabelMismatch, NotAgentIndependent, NotOptimal
from auctionlp.lp import program, simplex
from auctionlp.model import (
    BAYES,
    DS,
    Mechanism,
    Scaled,
    _dual_from_scaled,
    mechanism_feasible,
    mechanism_slacks,
)
from auctionlp.oracles import gen_instance
from auctionlp.virtual import check_cs_bayes, check_cs_ds
from conftest import build, irregular, perfbench_corpus
from helpers import reference_sections

FORMS = {"ds": DS, "bic": BAYES}


def _corpus():
    """(name, instance) pairs: one item, n 1-4, supports 2-7, a
    whole-number shape and zero-mass types."""
    shapes = [({"n": 1, "support": s}, (0, 1)) for s in range(2, 8)]
    shapes += [({"n": 2, "support": s}, (0, 1)) for s in range(2, 8)]
    shapes += [
        ({"n": 2, "support": 5, "denominator": 1, "value_range": 10}, (0, 1)),
        ({"n": 3, "support": 2}, (0, 1, 2, 3)),
        ({"n": 3, "support": 2, "iid": True}, (0, 1)),
        ({"n": 3, "support": 3}, (0, 1)),
        ({"n": 4, "support": 2}, (0, 1, 2, 3)),
    ]
    corpus = [
        (
            "-".join(f"{key}{value}" for key, value in spec.items()) + f"@{seed}",
            gen_instance({"m": 1, **spec}, seed),
        )
        for spec, seeds in shapes
        for seed in seeds
    ]
    # a nonzero type of mass 0, and a zero type of positive mass
    supports = [[[0], [1], [3]], [[0], [2], [4]]]
    corpus.append(("zero-mass", build(2, 1, supports, [["1/2", 0, "1/2"], [0, "1/2", "1/2"]])))
    corpus.append(("massed-zero", build(2, 1, supports, [["1/4", "1/4", "1/2"]] * 2)))
    return corpus


CORPUS = _corpus()


@pytest.fixture
def program_runs(monkeypatch):
    """The LP solves and program builds that run under the fixture."""
    runs = []
    solve, deferred = auction.solve, program.DeferredProgram
    floating, exact = deferred.floating, deferred.exact
    monkeypatch.setattr(auction, "solve", lambda *args: runs.append("solve") or solve(*args))
    monkeypatch.setattr(deferred, "floating", lambda d: runs.append("float") or floating(d))
    monkeypatch.setattr(deferred, "exact", lambda d: runs.append("exact") or exact(d))
    return runs


def test_closed_form_solves_match_the_program(tmp_path, capsys, monkeypatch, program_runs):
    verdicts = {DS: [], BAYES: []}
    original = cli.proved_certificate

    def spy(instance, form):
        certificate = original(instance, form)
        verdicts[form].append(certificate is not None)
        return certificate

    monkeypatch.setattr(cli, "proved_certificate", spy)
    assert len(CORPUS) >= 40
    for name, instance in CORPUS:
        path = tmp_path / "instance.json"
        path.write_text(instance.to_json())
        for flag, form in FORMS.items():
            cert = tmp_path / f"{flag}.json"
            program_runs.clear()
            assert main(["solve", str(path), "--form", flag, "--certificate", str(cert)]) == 0
            printed = Fraction(capsys.readouterr().out)
            accepted, runs = verdicts[form][-1], list(program_runs)
            assert printed == solve_form(instance, form).objective, (name, flag)
            document = json.loads(cert.read_text())
            assert verify_certificate_document(instance, document) == printed, (name, flag)
            if accepted:
                assert runs == [], (name, flag)
            else:
                assert "solve" in runs, (name, flag)
    # both paths are taken, and a Bayesian closed form only where the
    # dominant-strategy one stands
    for form in FORMS.values():
        assert set(verdicts[form]) == {True, False}
    assert all(ds or not bic for ds, bic in zip(verdicts[DS], verdicts[BAYES]))


def _times(nested, factor):
    """Every int of a nested tuple times factor."""
    if isinstance(nested, tuple):
        return tuple(_times(part, factor) for part in nested)
    return nested * factor


def _read_back(instance, form, document):
    """The document's primal and dual vectors as verify reads them: each
    entry straight to its index, each vector over one denominator."""
    layout = auction._layout(instance, form)
    unknown = []
    entries = [
        _section_entries(document, key, layout, row, unknown)
        for key, row in (("primal", False), ("dual", True))
    ]
    assert unknown == []
    return layout, [_over_common_denominator(*pair) for pair in zip(layout.shape[::-1], entries)]


@pytest.mark.parametrize("form", [DS, BAYES])
def test_closed_form_certificate_reads_back_as_its_proof(form):
    read = 0
    for name, instance in CORPUS:
        proof = proved_certificate(instance, form)
        if proof is None:
            continue
        read += 1
        assert proof.instance is instance and proof.mechanism.form == form, name
        revenue = proof.mechanism.revenue(instance)
        assert proof.objective == proof.dual.objective() == revenue, name
        document = certificate_document(instance, form, proof)
        assert Fraction(document["objective"]) == proof.objective, name
        layout, (primal, dual) = _read_back(instance, form, document)
        # over the document's denominators, the entries give the proof's
        # numerators over its own
        mechanism = proof.mechanism.scaled
        read_mechanism = _mechanism_entries(instance, layout, primal.nums)
        assert _times(read_mechanism, mechanism.den) == _times(mechanism.nums, primal.den), name
        zeta, eta, xi = _multipliers(instance, layout, dual.nums)
        nums = proof.dual.scaled
        for i in range(instance.n):
            assert _times(zeta[i], nums.zeta[i].den) == _times(nums.zeta[i].nums, dual.den), name
            assert _times(eta[i], nums.eta[i].den) == _times(nums.eta[i].nums, dual.den), name
        assert _times(xi, nums.xi.den) == _times(nums.xi.nums, dual.den), name
    assert read >= len(CORPUS) // 2


@pytest.mark.parametrize("form", [DS, BAYES])
@pytest.mark.parametrize("spec", [{"n": 2, "m": 2, "support": 2}, {"n": 3, "m": 1, "support": 3}])
def test_writing_a_solved_proof_gives_back_the_solved_vectors(spec, form):
    # _prove read the program's vectors into the proof; the document
    # rendered from the proof is the vectors' own rendering, label by
    # label, on more items too
    instance = gen_instance(spec, 1)
    certificate = solve_form(instance, form)
    document = certificate_document(instance, form, certificate.proof)
    assert document == certificate_document(instance, form, certificate)
    sections = {key: document[key] for key in ("objective", "primal", "dual")}
    assert sections == reference_sections(certificate, auction._layout(instance, form))


def test_a_proof_documents_only_its_own_optimum(pair12, u12):
    proof = proved_certificate(pair12, DS)
    document = certificate_document(pair12, DS, proof)
    assert document["objective"] == "3/2"
    # an equal instance that is another object has the same optimum
    twin = replace(pair12)
    assert twin == pair12 and twin is not pair12
    assert certificate_document(twin, DS, proof) == document
    for instance, form in ((u12, DS), (pair12, BAYES)):
        with pytest.raises(LabelMismatch):
            certificate_document(instance, form, proof)


def _image_corpus():
    """(name, instance) pairs, about 120: one item, n 1-4, supports 2-7,
    i.i.d. and correlated, whole-number values, zero-mass types of
    either kind, and instances that need ironing."""
    supports = {1: range(2, 8), 2: range(2, 8), 3: range(2, 5), 4: range(2, 4)}
    shapes = [
        {"n": n, "support": k, "iid": iid}
        for n, ks in supports.items()
        for k in ks
        for iid in (False, True)
    ]
    shapes += [
        {"n": n, "support": k, "denominator": 1, "value_range": 10, "iid": iid}
        for n, k in ((2, 5), (3, 3))
        for iid in (False, True)
    ]
    corpus = [
        (f"{spec}@{seed}", gen_instance({"m": 1, **spec}, seed))
        for spec in shapes
        for seed in range(3)
    ]
    corpus += [(name, instance) for name, instance in CORPUS if "mass" in name]
    corpus += [(f"irregular{n}", irregular(n)) for n in range(1, 5)]
    return corpus


def _parent_bayes_proof(instance):
    """The Bayesian closed form as it was proved before the image stood
    alone: the dominant-strategy optimum first, then its auction held to
    the Bayesian rows, and the flow mapped back by dsic_to_bic_dual."""
    ds = proved_certificate(instance, DS)
    if ds is None:
        return None
    mechanism = Mechanism(BAYES, ds.mechanism.scaled)
    slacks = mechanism_slacks(instance, mechanism)
    if not mechanism_feasible(instance, mechanism, slacks):
        return None
    try:
        image = dsic_to_bic_dual(instance, ds.dual)
    except (NotAgentIndependent, NotOptimal):
        return None
    return auction._Proof(instance, mechanism, slacks, image)


def test_bayes_image_stands_for_the_flow():
    corpus = _image_corpus()
    assert 110 <= len(corpus) <= 130
    verdicts = []
    for name, instance in corpus:
        flow, image = canonical_flow(instance), _flow_image(instance)
        assert image == dsic_to_bic_dual(instance, flow), name
        assert bic_to_dsic_dual(instance, image) == flow, name
        before, after = _parent_bayes_proof(instance), proved_certificate(instance, BAYES)
        verdicts.append(before is not None)
        if before is not None:
            assert after is not None, name
            document = certificate_document(instance, BAYES, after)
            assert document == certificate_document(instance, BAYES, before), name
    assert set(verdicts) == {True, False}


def _negated_eta(multipliers, xi):
    """eta below 0 at buyer 0's zero type, its lowest: the image turns
    infeasible, and no virtual value and no objective moves."""
    (zeta, eta), den = multipliers[0]
    return [Scaled((zeta, (-eta[0], *eta[1:])), den), *multipliers[1:]], xi


def _raised_xi(multipliers, xi):
    """xi raised at the all-zero profile, where no virtual value is
    positive and no buyer wins: the image stays feasible and prices the
    same auction, but its objective passes the auction's revenue."""
    (row,), den = xi
    return multipliers, Scaled(((row[0] + 1, *row[1:]),), den)


@pytest.mark.parametrize("tamper", [_negated_eta, _raised_xi])
def test_bayes_closed_form_refuses_a_tampered_image(monkeypatch, pair12, tamper):
    # each tampered image prices the accepted auction, and fails exactly
    # one of the other two checks, which alone must refuse it
    accepted = proved_certificate(pair12, BAYES)
    image = _dual_from_scaled(pair12, BAYES, *tamper(*analysis._ladder_flow(pair12)))
    assert Mechanism(BAYES, myerson_mechanism(pair12, image).scaled) == accepted.mechanism
    assert image.is_feasible() != (accepted.mechanism.revenue(pair12) == image.objective())
    monkeypatch.setattr(analysis, "_flow_image", lambda instance: image)
    assert proved_certificate(pair12, BAYES) is None


# sha256 over the certificate files of one pass of the benchmark's
# seed-1 solve-cert corpus, in corpus order; the benchmark's own digest
# covers only what the solves print
SOLVE_CERT_FILES_SHA256 = "f4ea93e261363719d7c2a03e42722cbc9d5bd0de50d906e05fc1500a696ba70c"


def test_solve_cert_certificate_files_are_pinned(monkeypatch, tmp_path):
    ops = perfbench_corpus(monkeypatch, "solve-cert", 1, tmp_path)
    assert len(ops) == 80
    with contextlib.redirect_stdout(io.StringIO()):
        assert all(main(op.argv) == 0 for op in ops)
    digest = hashlib.sha256()
    for op in ops:
        with open(op.cert, "rb") as handle:
            digest.update(handle.read())
    assert digest.hexdigest() == SOLVE_CERT_FILES_SHA256


def test_written_ledgers_are_the_proved_pairs(monkeypatch, tmp_path):
    # certificate_document writes a proved pair's ledger as zeros, summing
    # nothing; over the seed-1 solve-cert pass, closed-form proofs and the
    # program's alike, the ledger summed by check_cs_* is zero family by
    # family and is what the document holds
    ops = perfbench_corpus(monkeypatch, "solve-cert", 1, tmp_path)
    written, document = [], auction.certificate_document

    def recorded(instance, form, certificate):
        written.append((instance, form, certificate, document(instance, form, certificate)))
        return written[-1][-1]

    monkeypatch.setattr(cli, "certificate_document", recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        assert all(main(op.argv) == 0 for op in ops)
    closed = 0
    for instance, form, certificate, doc in written:
        closed += isinstance(certificate, auction._Proof)
        proof = auction._proof(instance, certificate, form)
        check = check_cs_ds if form == DS else check_cs_bayes
        ledger = check(instance, proof.mechanism, proof.dual, slacks=proof.slacks)
        families = [getattr(ledger, key) for key in ("ic", "ir", "supply", "alloc", "pay", "gap")]
        assert families == [0] * 6
        assert doc["ledger"] == dict.fromkeys(("ic", "ir", "supply", "alloc", "pay", "gap"), "0")
    assert (len(written), closed) == (80, 56)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("flag", sorted(FORMS))
def test_ironing_falls_back_to_the_program(tmp_path, capsys, program_runs, n, flag):
    instance, form = irregular(n), FORMS[flag]
    assert proved_certificate(instance, DS) is None
    assert proved_certificate(instance, form) is None
    path, cert = tmp_path / "irregular.json", tmp_path / "cert.json"
    path.write_text(instance.to_json())
    assert main(["solve", str(path), "--form", flag, "--certificate", str(cert)]) == 0
    assert "solve" in program_runs
    certificate = solve_form(instance, form)
    assert capsys.readouterr().out == f"{certificate.objective}\n"
    expected = certificate_document(instance, form, certificate)
    assert json.loads(cert.read_text()) == expected


def test_values_beyond_float_range_build_no_program(tmp_path, capsys, monkeypatch):
    # no float holds 10**400, but the closed form never makes one
    value = 10**400
    path = tmp_path / "huge.json"
    path.write_text(
        json.dumps(
            {
                "buyers": 2,
                "items": 1,
                "supports": [[[0], [str(value)]]] * 2,
                "probs": [["1/2", "1/2"]] * 2,
            }
        )
    )

    def refuse(*args):
        raise AssertionError("the closed form built or solved a program")

    for owner, name in (
        (program.DeferredProgram, "floating"),
        (program.DeferredProgram, "exact"),
        (auction, "solve"),
        (auction, "_build_primal"),
    ):
        monkeypatch.setattr(owner, name, refuse)
    for flag in FORMS:
        cert = tmp_path / f"{flag}.json"
        assert main(["solve", str(path), "--form", flag, "--certificate", str(cert)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"{3 * value // 4}\n"
        assert captured.err == ""
        assert main(["self-check", str(path), str(cert)]) == 0
        assert capsys.readouterr().out == f"ok {3 * value // 4}\n"


@pytest.mark.parametrize("flag", sorted(FORMS))
def test_closed_form_comes_before_the_tableau_guard(tmp_path, capsys, monkeypatch, flag):
    # the guard is the solver's own: the closed form answers past it, and
    # only a program that must be solved is refused
    path = tmp_path / "u12.json"
    u12 = {"buyers": 1, "items": 1, "supports": [[[0], [1], [2]]], "probs": [[0, "1/2", "1/2"]]}
    path.write_text(json.dumps(u12))
    monkeypatch.setattr(simplex, "_TABLEAU_CAP", 10)
    assert main(["solve", str(path), "--form", flag]) == 0
    assert capsys.readouterr() == ("1\n", "")
    monkeypatch.setattr(cli, "proved_certificate", lambda instance, form: None)
    assert main(["solve", str(path), "--form", flag]) == 4
    captured = capsys.readouterr()
    assert captured.err == "error: ScaleLimit: a 12x19 tableau exceeds the cap of 10 entries\n"
    assert captured.out == ""
