"""solve's one-item closed form: Myerson's auction and the canonical
flow (or its Bayesian image) written as the certificate, the program
answering only where the closed form's exact checks refuse."""

import json
from fractions import Fraction

import pytest

from auctionlp import analysis, auction, cli
from auctionlp.analysis import proved_certificate
from auctionlp.auction import (
    _certificate_of,
    _mechanism_entries,
    _multipliers,
    certificate_document,
    solve_form,
    verify_certificate_document,
)
from auctionlp.cli import main
from auctionlp.lp import program, simplex
from auctionlp.model import BAYES, DS
from auctionlp.oracles import gen_instance
from conftest import build, irregular

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


def _scaled_by(den, rows):
    return tuple(tuple(q * den for q in row) for row in rows)


@pytest.mark.parametrize("form", [DS, BAYES])
def test_closed_form_certificate_reads_back_as_its_proof(form):
    read = 0
    for name, instance in CORPUS:
        certificate = proved_certificate(instance, form)
        if certificate is None:
            continue
        read += 1
        layout, proof = certificate.layout, certificate.proof
        assert layout == auction._layout(instance, form) and proof.instance is instance, name
        assert None not in certificate.primal and None not in certificate.dual, name
        revenue = proof.mechanism.revenue(instance)
        assert certificate.objective == proof.dual.objective() == revenue, name
        # the vectors, scaled by the proof's denominators, give its numerators
        mechanism = proof.mechanism.scaled
        scaled = [q * mechanism.den for q in certificate.primal]
        assert _mechanism_entries(instance, layout, scaled) == mechanism.nums, name
        zeta, eta, xi = _multipliers(instance, layout, certificate.dual)
        nums = proof.dual.scaled
        for i in range(instance.n):
            assert _scaled_by(nums.zeta[i].den, zeta[i]) == nums.zeta[i].nums, name
            assert _scaled_by(nums.eta[i].den, (eta[i],)) == (nums.eta[i].nums,), name
        assert _scaled_by(nums.xi.den, xi) == nums.xi.nums, name
    assert read >= len(CORPUS) // 2


@pytest.mark.parametrize("form", [DS, BAYES])
@pytest.mark.parametrize("spec", [{"n": 2, "m": 2, "support": 2}, {"n": 3, "m": 1, "support": 3}])
def test_writing_a_solved_proof_gives_back_the_solved_vectors(spec, form):
    # _prove read the program's vectors into the proof; writing it out
    # again is the inverse, on more items too
    instance = gen_instance(spec, 1)
    certificate = solve_form(instance, form)
    written = _certificate_of(instance, *certificate.proof[1:])
    assert written.primal == certificate.primal and written.dual == certificate.dual
    assert written.objective == certificate.objective
    assert written.layout == certificate.layout


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("flag", sorted(FORMS))
def test_ironing_falls_back_to_the_program(tmp_path, capsys, program_runs, n, flag):
    instance, form = irregular(n), FORMS[flag]
    assert analysis._ds_optimum(instance) is None
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
def test_tableau_guard_comes_before_the_closed_form(tmp_path, capsys, monkeypatch, flag):
    path = tmp_path / "u12.json"
    u12 = {"buyers": 1, "items": 1, "supports": [[[0], [1], [2]]], "probs": [[0, "1/2", "1/2"]]}
    path.write_text(json.dumps(u12))

    def refuse(instance, form):
        raise AssertionError("the closed form ran past the tableau guard")

    monkeypatch.setattr(simplex, "_TABLEAU_CAP", 10)
    monkeypatch.setattr(cli, "proved_certificate", refuse)
    assert main(["solve", str(path), "--form", flag]) == 4
    captured = capsys.readouterr()
    assert captured.err == "error: ScaleLimit: a 12x19 tableau exceeds the cap of 10 entries\n"
    assert captured.out == ""
