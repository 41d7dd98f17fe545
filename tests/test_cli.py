"""Command-line surface: output text, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import auctionlp
from auctionlp import analysis, auction, cli, errors
from auctionlp.auction import (
    ProgramLayout,
    certificate_document,
    solve_form,
    verify_certificate_document,
)
from auctionlp.cli import build_parser, main
from auctionlp.errors import LabelMismatch, NotOptimal, ScaleLimit
from auctionlp.analysis import gen_records, tight_downward_dual
from auctionlp.lp import MAX, CertificateError, make_lp, program, simplex
from auctionlp.model import BAYES, DS, load_instance, rat, rat_str
from auctionlp.oracles import gen_instance, gen_shape, parse_spec
from auctionlp.virtual import CheckReport, VwmViolation
from helpers import NUMBER_TABLE, ds_optimum, labels

U12 = {
    "buyers": 1,
    "items": 1,
    "supports": [[[0], [1], [2]]],
    "probs": [[0, "1/2", "1/2"]],
}
PAIR12 = {
    "buyers": 2,
    "items": 1,
    "supports": [[[0], [1], [2]], [[0], [1], [2]]],
    "probs": [[0, "1/2", "1/2"], [0, "1/2", "1/2"]],
}


@pytest.fixture
def u12_path(tmp_path):
    path = tmp_path / "u12.json"
    path.write_text(json.dumps(U12))
    return str(path)


@pytest.fixture
def pair_path(tmp_path):
    path = tmp_path / "pair12.json"
    path.write_text(json.dumps(PAIR12))
    return str(path)


@pytest.fixture
def lp_only(monkeypatch):
    """solve answers one-item instances through the program, as it does
    two-item ones: the closed form is switched off."""
    monkeypatch.setattr(cli, "proved_certificate", lambda instance, form: None)


# -- validate ---------------------------------------------------------------


def test_validate_prints_normalized_json(u12_path, capsys):
    assert main(["validate", u12_path]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["probs"] == [["0", "1/2", "1/2"]]
    assert data["supports"] == [[["0"], ["1"], ["2"]]]


def test_validate_missing_zero_type(tmp_path, capsys):
    path = tmp_path / "nozero.json"
    path.write_text(
        json.dumps(
            {
                "buyers": 1,
                "items": 1,
                "supports": [[[1], [2]]],
                "probs": [["1/2", "1/2"]],
            }
        )
    )
    assert main(["validate", str(path)]) == 2
    assert "MissingZeroType" in capsys.readouterr().err
    assert main(["validate", str(path), "--augment-zero"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["supports"][0][0] == ["0"]
    assert data["probs"][0][0] == "0"


@pytest.mark.parametrize("items", [10**12, 2**64])
def test_validate_refuses_a_huge_item_count_before_using_it(tmp_path, capsys, items):
    # the item count is checked against the data's vectors before any
    # vector of that length is formed
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"buyers": 1, "items": items, "supports": [[[0]]], "probs": [[1]]}))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: DimensionMismatch: buyer 0: value vector of length 1, expected {items}\n"
    )
    assert captured.out == ""


def test_validate_rejects_broken_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["validate", str(path)]) == 2
    assert "JSONDecodeError" in capsys.readouterr().err


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=64))
@example(b"\xff\xfe{}")
@example(b"[" * 100_000)
@example(b"1" * 5000)
def test_arbitrary_file_bytes_exit_cleanly(tmp_path_factory, data):
    """Any bytes as the instance file of validate or as the certificate
    of self-check give a documented exit code, never an exception."""
    folder = tmp_path_factory.getbasetemp()
    garbage, instance = folder / "garbage.json", folder / "fuzz-u12.json"
    garbage.write_bytes(data)
    instance.write_text(json.dumps(U12))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["validate", str(garbage)]) in (0, 2, 3, 4)
        assert main(["self-check", str(instance), str(garbage)]) in (0, 2, 3, 4)


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


# -- solve and self-check ---------------------------------------------------


def test_solve_prints_revenue(u12_path, capsys):
    assert main(["solve", u12_path]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["solve", u12_path, "--form", "bic"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_values_beyond_float_range_are_solved_exactly(tmp_path, capsys, monkeypatch, lp_only):
    # Floats cannot hold 10**400: building the float program raises
    # OverflowError, and the solve goes to the exact program.  Two
    # i.i.d. buyers worth 0 or V sell at V unless both are worth 0.
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
    builds = []
    exact = program.DeferredProgram.exact
    monkeypatch.setattr(
        program.DeferredProgram, "exact", lambda deferred: builds.append(0) or exact(deferred)
    )
    for form in ("ds", "bic"):
        builds.clear()
        assert main(["solve", str(path), "--form", form]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"{3 * value // 4}\n"
        assert captured.err == ""
        assert len(builds) == 1


def off_vertex(value, bound):
    """In place of the float pass's rounding: a rational 1/7 off the one
    it would give, so that the model refuses every float proposal and
    the exact program is built and solved."""
    return Fraction(value).limit_denominator(bound) + Fraction(1, 7)


def test_solver_failure_exits_3(u12_path, capsys, monkeypatch, lp_only):
    def fail(instance, form):
        raise NotOptimal("no optimum")

    def refuse(instance, mechanism, slacks):
        return False

    # max x subject to x <= -1, and max x + y subject to x - y <= 1
    infeasible = make_lp(MAX, [1], [[(0, 1)]], [-1])
    unbounded = make_lp(MAX, [1, 1], [[(0, 1), (1, -1)]], [1])
    refused = (simplex, "_nearby_rational", off_vertex)
    # solve_form refusing, then the real simplex on a program built wrong:
    # the float pass reads a program of its own, so its proposal is
    # refused for the exact program to be built
    cases = [
        ([(cli, "solve_form", fail)], "no optimum"),
        (
            [(program.DeferredProgram, "exact", lambda _: infeasible), refused],
            "exact simplex: phase one ends infeasible",
        ),
        (
            [(program.DeferredProgram, "exact", lambda _: unbounded), refused],
            "exact simplex: phase two ends unbounded",
        ),
        # an exact identity of the model acceptor failing inside the
        # solver, not a bad input
        (
            [(auction, "mechanism_feasible", refuse)],
            "exact simplex: its vertex fails the exact check: mechanism violates feasibility",
        ),
    ]
    for patches, message in cases:
        with monkeypatch.context() as patched:
            for owner, name, replacement in patches:
                patched.setattr(owner, name, replacement)
            assert main(["solve", u12_path]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: NotOptimal: {message}\n"
        assert captured.out == ""


def test_primal_answers_are_proved_on_the_model_alone(tmp_path, capsys, monkeypatch):
    # The model's proof is the only acceptor of a dominant-strategy or
    # Bayesian primal answer: with the program's check refusing to run,
    # solve, virtuals and a two-item characterize (whose SRev solves the
    # item marginals) print and write what they did with it.
    path = tmp_path / "two-item.json"
    path.write_text(gen_instance({"n": 2, "m": 2, "support": 2}, 1).to_json())

    def outputs(tag):
        out = []
        for form in ("ds", "bic"):
            cert = tmp_path / f"{tag}-{form}.json"
            for argv in (
                ["solve", str(path), "--form", form, "--certificate", str(cert)],
                ["virtuals", str(path), "--form", form],
            ):
                assert main(argv) == 0
                out.append(capsys.readouterr().out)
            out.append(cert.read_bytes())
        assert main(["characterize", str(path)]) == 0
        out.append(capsys.readouterr().out)
        return out

    expected = outputs("program")
    # certify_optimal, the program's check, splits its vectors first
    original, checks = program._split, []

    def refuse(*args):
        raise AssertionError("a primal solve reached the program's check")

    def counted(*args):
        checks.append(args[0])
        return original(*args)

    monkeypatch.setattr(program, "_split", refuse)
    assert outputs("model") == expected
    # the face program, a dual one, still answers to the program's check
    instance = load_instance(path)
    monkeypatch.setattr(program, "_split", counted)
    optimum = ds_optimum(instance)
    assert checks == []
    tight_downward_dual(instance, *optimum)
    assert checks


# The exit code each public error class carries: 2 for invalid input, 4
# for an exceeded cap, 3 for any other failure.  It names every
# AuctionLPError subclass that auctionlp.errors declares.
EXIT_CODES = {
    errors.AuctionLPError: 3,
    errors.InvalidInput: 2,
    errors.NonUnitMass: 2,
    errors.NegativeValue: 2,
    errors.DuplicateSupportVector: 2,
    errors.ZeroMassNonzeroType: 2,
    errors.MissingZeroType: 2,
    errors.NotRational: 2,
    errors.DimensionMismatch: 2,
    errors.LabelMismatch: 2,
    errors.InfeasibleInput: 2,
    CertificateError: 2,
    errors.ScaleLimit: 4,
    simplex.PivotLimit: 4,
    errors.NotOptimal: 3,
    errors.NotRegular: 3,
    errors.NotAgentIndependent: 3,
}


def test_error_classes_carry_their_exit_codes(u12_path, capsys, monkeypatch):
    declared = {
        value
        for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, errors.AuctionLPError)
    }
    # lp's CertificateError is errors' own, which declared holds
    assert declared | {simplex.PivotLimit} == set(EXIT_CODES)
    for error, code in EXIT_CODES.items():

        def fail(args):
            raise error("refused")

        monkeypatch.setattr(cli, "_load", fail)
        assert main(["validate", u12_path]) == code, error.__name__
        captured = capsys.readouterr()
        assert captured.err == f"error: {error.__name__}: refused\n"
        assert captured.out == ""


def test_solve_certificate_round_trip(u12_path, tmp_path, capsys):
    cert = str(tmp_path / "cert.json")
    assert main(["solve", u12_path, "--certificate", cert]) == 0
    capsys.readouterr()
    assert main(["self-check", u12_path, cert]) == 0
    assert capsys.readouterr().out == "ok 1\n"


def test_certificates_past_the_common_denominator_cap_self_check(
    tmp_path, capsys, monkeypatch, lp_only
):
    # Values over coprime denominators near 2**1000 make optimal duals
    # whose lcm passes the 4096-bit cap (6998 bits DS, 5998 bits BIC):
    # extraction reads them, and self-check accepts them on the
    # program's rows and columns, never through the model re-proof.
    def values(a, b):
        return [[0]] + [[f"{3 * i + a}/{2**1000 + 2 * i + b}"] for i in range(3)]

    supports = [values(1, 1), values(2, 7)]
    probs = [[0, "1/3", "1/3", "1/3"]] * 2
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"buyers": 2, "items": 1, "supports": supports, "probs": probs}))
    recheck = auction.recheck_certificate
    rechecked = []

    def counted(lp, certificate):
        rechecked.append((lp.nrows, lp.ncols))
        recheck(lp, certificate)

    def refuse(*args):
        raise AssertionError("a certificate past the cap reached the model re-proof")

    monkeypatch.setattr(auction, "recheck_certificate", counted)
    for form in ("ds", "bic"):
        cert = tmp_path / f"{form}.json"
        assert main(["solve", str(path), "--form", form, "--certificate", str(cert)]) == 0
        capsys.readouterr()
        document = json.loads(cert.read_text())
        dens = [rat(value).denominator for value in document["dual"].values()]
        assert lcm(*dens).bit_length() > auction._COMMON_DENOMINATOR_BITS
        with monkeypatch.context() as patch:  # the solve proved its vertex with _prove
            patch.setattr(auction, "_prove", refuse)
            assert main(["self-check", str(path), str(cert)]) == 0
        assert capsys.readouterr().out == f"ok {document['objective']}\n"
    assert rechecked == [ProgramLayout(form, 1, (4, 4)).shape for form in (DS, BAYES)]


def test_self_check_rejects_foreign_certificate(u12_path, pair_path, tmp_path, capsys):
    cert = str(tmp_path / "cert.json")
    main(["solve", u12_path, "--certificate", cert])
    capsys.readouterr()
    assert main(["self-check", pair_path, cert]) == 2
    assert "LabelMismatch" in capsys.readouterr().err


def test_self_check_rejects_forged_value(pair_path, tmp_path, capsys, reproof):
    cert = str(tmp_path / "cert.json")
    main(["solve", pair_path, "--certificate", cert])
    capsys.readouterr()
    doc = json.loads(open(cert).read())
    label = next(k for k, v in doc["primal"].items() if v != "0")
    doc["primal"][label] = "7/3"
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(doc))
    assert main(["self-check", pair_path, str(forged)]) == 2
    assert "CertificateError" in capsys.readouterr().err


def test_self_check_rejects_a_stated_objective_off_by_one(pair_path, tmp_path, capsys, reproof):
    # the vectors are optimal: only the comparison with the stated
    # objective refuses the document
    cert = tmp_path / "cert.json"
    main(["solve", pair_path, "--certificate", str(cert)])
    capsys.readouterr()
    document = json.loads(cert.read_text())
    document["objective"] = rat_str(rat(document["objective"]) + 1)
    with pytest.raises(CertificateError, match="objective mismatch"):
        verify_certificate_document(load_instance(pair_path), document)
    cert.write_text(json.dumps(document))
    assert main(["self-check", pair_path, str(cert)]) == 2
    assert "CertificateError: objective mismatch" in capsys.readouterr().err


def test_self_check_rejects_a_certificate_of_other_masses(pair_path, tmp_path, capsys):
    # every label of a same-shape instance reads here: the digest
    # refuses its certificate before the proof does
    other = tmp_path / "other.json"
    other.write_text(json.dumps(dict(PAIR12, probs=[[0, "1/4", "3/4"]] * 2)))
    cert = tmp_path / "cert.json"
    assert main(["solve", str(other), "--certificate", str(cert)]) == 0
    capsys.readouterr()
    document = json.loads(cert.read_text())
    instance = load_instance(pair_path)
    with pytest.raises(LabelMismatch, match="digest does not match the instance"):
        verify_certificate_document(instance, document)
    document["digest"] = instance.digest()
    with pytest.raises(CertificateError):
        verify_certificate_document(instance, document)


@pytest.mark.parametrize(
    "form, forge_primal",
    [("ds", False), ("ds", True), ("bayes", True)],
    ids=["dual-only", "every-entry", "bayes"],
)
def test_self_check_rejects_forged_denominators_quickly(tmp_path, capsys, form, forge_primal):
    # Every entry of the document carries its own 384-bit denominator.
    # The checks grow one denominator per row and per column, so the
    # rejection stays local.  Taking one lcm over a whole vector first
    # (a 1.7-million-bit integer over the 4352 dual entries) made the
    # dual-only document take 12.5 s.
    instance = gen_instance({"n": 4, "m": 1, "support": 3}, 3)
    path = tmp_path / "instance.json"
    path.write_text(instance.to_json())
    row_names, col_names = labels(ProgramLayout(form, instance.m, instance.sizes))
    rng = random.Random(5)
    dens = set()
    while len(dens) < len(row_names) + len(col_names):
        dens.add(2**383 + rng.getrandbits(383))
    values = [f"1/{d}" for d in dens]
    doc = {
        "kind": "auctionlp.certificate",
        "version": 1,
        "digest": instance.digest(),
        "form": form,
        "objective": "0",
        "primal": dict(zip(col_names, values[len(row_names):])) if forge_primal else {},
        "dual": dict(zip(row_names, values)),
        "ledger": dict.fromkeys(("ic", "ir", "supply", "alloc", "pay", "gap"), "0"),
    }
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(doc))
    start = time.process_time()
    assert main(["self-check", str(path), str(forged)]) == 2
    assert time.process_time() - start < 1
    assert "CertificateError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(objective="one half"),
        lambda doc: doc.update(objective=0.5),
        lambda doc: doc.update(primal=list(doc["primal"].items())),
        lambda doc: doc["dual"].update({next(iter(doc["dual"])): "1/0"}),
        lambda doc: doc.pop("ledger"),
        lambda doc: doc.update(ledger={}),
        lambda doc: doc.update(ledger={"bogus": "0"}),
        lambda doc: doc["ledger"].pop("gap"),
        lambda doc: doc["ledger"].update(bogus="0"),
        lambda doc: doc.update(form="garbage"),
        lambda doc: doc.pop("form"),
        lambda doc: doc.update(version="x"),
        lambda doc: doc.update(version=2),
        lambda doc: doc.update(version=1.0),
        # JSON true equals 1 in Python
        lambda doc: doc.update(version=True),
        lambda doc: doc.pop("version"),
    ],
    ids=[
        "objective-text",
        "objective-float",
        "primal-list",
        "dual-zero-den",
        "no-ledger",
        "ledger-empty",
        "ledger-bogus",
        "ledger-missing-key",
        "ledger-extra-key",
        "form-unknown",
        "no-form",
        "version-text",
        "version-2",
        "version-float",
        "version-true",
        "no-version",
    ],
)
def test_self_check_rejects_malformed_document(pair_path, tmp_path, capsys, edit):
    # a Bayesian certificate: a form that is not "ds" must not read as Bayesian
    cert = str(tmp_path / "cert.json")
    main(["solve", pair_path, "--form", "bic", "--certificate", cert])
    capsys.readouterr()
    doc = json.loads(open(cert).read())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["self-check", pair_path, str(bad)]) == 2
    err = capsys.readouterr().err
    assert "LabelMismatch" in err
    assert "Traceback" not in err


LONG = "x" * 5000
# a valid rational of 4,002 characters
LONG_NEGATIVE = "-" + "1" * 3999 + "/3"

# Every echo of outside input is cut to 40 characters plus "...": an
# instance field, a certificate field and a --gen part of 5,000
# characters (or a 2,000-element list given as a mass), and a rational of
# 4,002 characters that validation refuses, exits 2 with a short message.
ECHO_CASES = {
    "probs-entry": ("instance", lambda data: data["probs"][0].__setitem__(1, LONG)),
    "probs-list": ("instance", lambda data: data["probs"][0].__setitem__(1, [1] * 2000)),
    "coordinate": ("instance", lambda data: data["supports"][0][1].__setitem__(0, LONG)),
    "negative-coordinate": (
        "instance", lambda data: data["supports"][0][1].__setitem__(0, LONG_NEGATIVE)
    ),
    "negative-mass": ("instance", lambda data: data["probs"][0].__setitem__(1, LONG_NEGATIVE)),
    "mass-sum": ("instance", lambda data: data["probs"][0].__setitem__(1, LONG_NEGATIVE[1:])),
    "buyers": ("instance", lambda data: data.update(buyers=LONG)),
    "items": ("instance", lambda data: data.update(items=LONG)),
    "augment-zero": ("instance", lambda data: data.update(augment_zero=LONG)),
    "version": ("certificate", lambda doc: doc.update(version=LONG)),
    "form": ("certificate", lambda doc: doc.update(form=LONG)),
    "ledger-key": ("certificate", lambda doc: doc["ledger"].update({LONG: "0"})),
    "objective": ("certificate", lambda doc: doc.update(objective=LONG)),
    "section-value": ("certificate", lambda doc: doc.update(dual=dict.fromkeys(doc["dual"], LONG))),
    "unknown-label": ("certificate", lambda doc: doc["dual"].update({"ir:0:1" + LONG: "1"})),
    "gen-part": ("gen", LONG),
    "gen-key": ("gen", LONG + "=1"),
    "gen-count": ("gen", "n=" + LONG),
    "gen-flag": ("gen", "iid=" + LONG),
}


@pytest.mark.parametrize("kind,edit", ECHO_CASES.values(), ids=list(ECHO_CASES))
def test_long_input_is_echoed_short(pair_path, tmp_path, capsys, kind, edit):
    bad = tmp_path / "bad.json"
    if kind == "instance":
        data = json.loads(json.dumps(PAIR12))
        edit(data)
        bad.write_text(json.dumps(data))
        argv = ["validate", str(bad)]
    elif kind == "certificate":
        cert = str(tmp_path / "cert.json")
        main(["solve", pair_path, "--certificate", cert])
        capsys.readouterr()
        doc = json.loads(open(cert).read())
        edit(doc)
        bad.write_text(json.dumps(doc))
        argv = ["self-check", pair_path, str(bad)]
    else:
        argv = ["characterize", "--gen", edit]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "..." in err
    assert kind != "certificate" or "LabelMismatch" in err
    assert len(err.encode()) < 200


def test_self_check_rejects_non_object_document(pair_path, tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    assert main(["self-check", pair_path, str(bad)]) == 2
    assert "LabelMismatch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "probs", [[[0, 0.5, 0.5]], [[0, "1/0", "1"]], [[0, "half", "1/2"]], [[0, True, 0]]]
)
def test_solve_rejects_non_rational_numbers(tmp_path, capsys, probs):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(U12, probs=probs)))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "NotRational" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("value", ["1e5000", "1e-5000", "1e10000000"])
def test_exponent_literals_past_the_digit_limit_exit_2(tmp_path, capsys, command, value):
    # A few bytes, but 10**5000 has more digits than an int may print,
    # and Fraction would form 10**10000000 in full before any check.
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(U12, supports=[[[0], [1], [value]]])))
    start = time.process_time()
    assert main([command, str(path)]) == 2
    assert time.process_time() - start < 0.25
    err = capsys.readouterr().err
    assert "NotRational" in err
    assert "Traceback" not in err


def test_self_check_rejects_exponent_literals_quickly(pair_path, tmp_path, capsys):
    cert = str(tmp_path / "cert.json")
    main(["solve", pair_path, "--certificate", cert])
    capsys.readouterr()
    doc = json.loads(open(cert).read())
    doc["primal"][next(iter(doc["primal"]))] = "1e10000000"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    start = time.process_time()
    assert main(["self-check", pair_path, str(bad)]) == 2
    assert time.process_time() - start < 0.25
    err = capsys.readouterr().err
    assert "LabelMismatch" in err and "too many digits" in err
    assert "Traceback" not in err


# Values put in place of the stored 2 of p:0:2.2, a payment at a profile
# of mass 1/4 in pair12's dominant-strategy certificate, with the outcome
# of self-check: refused as not a rational, or read as a value, which
# then changes the revenue and fails the proof.
NOT_RATIONAL = {
    "list": [1], "object": {}, "null": None, "float": 0.5, "true": True,
    "zero-den": "1/0", "negative-den": "1/-2", "nan": "nan", "inf": "inf",
    "nines": "9" * 5000, "huge-exponent": "1e100000000",
}
READ_AS_VALUE = {
    "int": 1, "decimal": "0.5", "exponent": "1e5", "padded": " 1 ", "unreduced": "2/4",
    "underscore": "1_0",
}


@pytest.mark.parametrize(
    "value, refusal",
    [*((v, "LabelMismatch") for v in NOT_RATIONAL.values()),
     *((v, "CertificateError") for v in READ_AS_VALUE.values())],
    ids=[*NOT_RATIONAL, *READ_AS_VALUE],
)
def test_self_check_reads_values_as_rat_does(pair_path, tmp_path, capsys, value, refusal):
    cert = tmp_path / "cert.json"
    main(["solve", pair_path, "--certificate", str(cert)])
    capsys.readouterr()
    doc = json.loads(cert.read_text())
    assert doc["primal"]["p:0:2.2"] == "2"
    doc["primal"]["p:0:2.2"] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["self-check", pair_path, str(bad)]) == 2
    err = capsys.readouterr().err
    assert refusal in err and "Traceback" not in err
    if refusal == "LabelMismatch":
        assert "certificate primal: not a rational" in err
        assert ("has too many digits" in err) == (value == "1e100000000")


@pytest.mark.parametrize("literal, value", NUMBER_TABLE.items(), ids=map(ascii, NUMBER_TABLE))
def test_number_table_reads_alike_through_rat_and_self_check(
    pair12_certificates, tmp_path, capsys, literal, value
):
    # The table holds on every supported Python.  In place of the stored
    # 2 of p:0:2.2, a literal self-check refuses as not a rational
    # (LabelMismatch) is one rat refuses; one that reads as 2 leaves the
    # certificate as it was, and any other value fails the proof.
    if value is None:
        with pytest.raises(errors.NotRational):
            rat(literal)
    else:
        assert rat(literal) == value
    path, (document, _) = pair12_certificates
    assert document["primal"]["p:0:2.2"] == "2"
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(dict(document, primal={**document["primal"], "p:0:2.2": literal})))
    code = main(["self-check", str(path), str(cert)])
    out, err = capsys.readouterr()
    if value == 2:
        assert (code, out, err) == (0, f"ok {document['objective']}\n", "")
    else:
        assert code == 2 and "Traceback" not in err
        refusal = "LabelMismatch: certificate primal: not a rational" if value is None else "CertificateError"
        assert refusal in err


@pytest.fixture(scope="module")
def pair12_certificates(tmp_path_factory):
    """The pair12 instance file, and its certificate documents in both forms."""
    folder = tmp_path_factory.mktemp("tampered")
    path = folder / "pair12.json"
    path.write_text(json.dumps(PAIR12))
    instance = load_instance(path)
    documents = [
        certificate_document(instance, form, solve_form(instance, form)) for form in ("ds", "bayes")
    ]
    return path, documents


TAMPERED_VALUES = st.one_of(
    st.sampled_from([*NOT_RATIONAL.values(), *READ_AS_VALUE.values(), "0", "-1", "3/2", "7/3"]),
    st.integers(-2, 2),
    st.text(max_size=6),
)
TAMPERED_FIELDS = {
    "kind": ["auctionlp.certificate", "certificate", None],
    "version": [1, 2, "1", True, 1.0, None],
    "digest": ["", "0" * 16, None],
    "form": ["ds", "bayes", "bic", "", None, 1],
    "objective": ["3/2", "6/4", "0", "1/2", 1, 0.5, None, "9" * 5000, "1e100000000"],
}
TAMPERED_SECTIONS = [{}, [], None, "x", {"x:0:0:1.1": "1"}, {"gap": "0"}]


@st.composite
def tampered_documents(draw, documents):
    """A copy of one of documents with one to three edits: a label
    renamed, a value replaced, a top-level field replaced or dropped, or
    a whole section replaced."""
    document = json.loads(json.dumps(draw(st.sampled_from(documents))))
    labels_seen = sorted(
        {label for doc in documents for key in ("primal", "dual") for label in doc[key]}
    )
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["label", "value", "field", "section"]))
        if edit in ("label", "value"):
            section = document.get(draw(st.sampled_from(["primal", "dual", "ledger"])))
            if not isinstance(section, dict) or not section:
                continue
            label = draw(st.sampled_from(sorted(section)))
            if edit == "value":
                section[label] = draw(TAMPERED_VALUES)
                continue
            renamed = draw(st.one_of(
                st.sampled_from(labels_seen),
                st.text(alphabet="0123456789:._ +-icrsupx٣", max_size=12),
                st.sampled_from([label + " ", "0" + label, label.replace(".", ":"), label[:-1]]),
            ))
            section[renamed] = section.pop(label)
        elif edit == "field":
            name = draw(st.sampled_from(sorted(TAMPERED_FIELDS)))
            if draw(st.booleans()):
                document.pop(name, None)
            else:
                document[name] = draw(st.sampled_from(TAMPERED_FIELDS[name]))
        else:
            name = draw(st.sampled_from(["primal", "dual", "ledger"]))
            other = document.get(draw(st.sampled_from(["primal", "dual", "ledger"])))
            document[name] = draw(st.sampled_from([*TAMPERED_SECTIONS, other]))
    return document


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_tampered_certificates_exit_cleanly(pair12_certificates, data):
    """A certificate document with tampered labels, values, fields or
    sections exits 0 or 2, never raising; one accepted still proves
    pair12's revenue."""
    path, documents = pair12_certificates
    document = data.draw(tampered_documents(documents))
    cert = path.parent / "tampered.json"
    cert.write_text(json.dumps(document))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["self-check", str(path), str(cert)])
    assert code in (0, 2), err.getvalue()
    assert code == 2 or out.getvalue() == "ok 3/2\n"


@pytest.mark.parametrize(
    "data",
    [
        dict(PAIR12, supports=[5, 5]),
        dict(PAIR12, probs=[5, 5]),
        dict(PAIR12, supports=5),
        dict(PAIR12, supports=[[0, 1, 2], [[0], [1], [2]]]),
        dict(PAIR12, augment_zero="no"),
        dict(PAIR12, buyers=2.7),
        dict(U12, buyers=True),
        dict(PAIR12, items=1.0),
        dict(PAIR12, buyers="2"),
    ],
    ids=[
        "supports-ints",
        "probs-ints",
        "supports-int",
        "vector-int",
        "augment-text",
        "buyers-float",
        "buyers-bool",
        "items-float",
        "buyers-text",
    ],
)
def test_solve_rejects_malformed_shapes(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "DimensionMismatch" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("form", ["ds", "bic"])
def test_solve_builds_its_program_once(pair_path, tmp_path, capsys, monkeypatch, form, lp_only):
    # The float pass reads a float program of its own: the exact program
    # is built only when the model refuses the float proposal, and then once.
    builds = []
    exact = program.DeferredProgram.exact

    def counting(deferred):
        built = exact(deferred)
        builds.append(((built.nrows, built.ncols), type(built.c[0])))
        return built

    monkeypatch.setattr(program.DeferredProgram, "exact", counting)
    cert = str(tmp_path / "cert.json")
    expected = (ProgramLayout(DS if form == "ds" else BAYES, 1, (3, 3)).shape, Fraction)
    for refused, count in ((False, 0), (True, 1)):
        builds.clear()
        with monkeypatch.context() as patched:
            if refused:
                patched.setattr(simplex, "_nearby_rational", off_vertex)
            assert main(["solve", pair_path, "--form", form, "--certificate", cert]) == 0
        assert capsys.readouterr().out == "3/2\n"
        assert builds == [expected] * count


def test_profile_cap_is_enforced(pair_path, capsys):
    assert main(["solve", pair_path, "--caps", "8"]) == 4
    assert "ScaleLimit" in capsys.readouterr().err
    assert main(["solve", pair_path, "--caps", "9"]) == 0


def test_caps_below_one_is_invalid_input(u12_path, capsys):
    for argv in (
        ["solve", u12_path, "--caps", "-1"],
        ["validate", u12_path, "--caps", "0"],
        ["characterize", "--gen", "n=2,m=1,support=2", "--caps", "0"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "DimensionMismatch: --caps must be at least 1" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


def test_gen_cap_is_checked_before_drawing(capsys, monkeypatch):
    import auctionlp.oracles as oracles

    # 2^40 product vectors: drawing even one such buyer would not finish
    def refused(*args):
        raise AssertionError("a buyer was drawn past the cap")

    monkeypatch.setattr(oracles, "_product_buyer", refused)
    assert main(["characterize", "--gen", "n=1,m=40,correlated=0,support=1"]) == 4
    captured = capsys.readouterr()
    assert "ScaleLimit: 1099511627776 profiles exceed the cap 256" in captured.err
    assert captured.out == ""


def test_gen_cap_is_safe_for_huge_item_counts(capsys):
    # 3**10000 has more digits than int-to-text conversion allows
    argv = ["characterize", "--gen", "n=1,m=10000,correlated=0,support=2"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert "ScaleLimit: at least 2**10000 profiles exceed the cap 256" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    # the count is bounded without forming the power 3**(10**7)
    with pytest.raises(ScaleLimit, match=r"at least 2\*\*10000000 profiles"):
        gen_instance({"n": 1, "m": 10**7, "support": 2, "correlated": False}, 0)


def test_tableau_cap_exits_4(tmp_path, capsys, monkeypatch):
    # two items, so no closed form answers before the program's guard,
    # which refuses the program before either build of it
    path = tmp_path / "items12.json"
    items12 = {"buyers": 1, "items": 2, "supports": [[[0, 0], [1, 2]]], "probs": [[0, 1]]}
    path.write_text(json.dumps(items12))

    def refuse(*args):
        raise AssertionError("an oversize program was built")

    monkeypatch.setattr(auction, "_build_primal", refuse)
    monkeypatch.setattr(simplex, "_TABLEAU_CAP", 10)
    assert main(["solve", str(path)]) == 4
    err = capsys.readouterr().err
    assert "ScaleLimit: a 8x15 tableau exceeds the cap of 10 entries" in err
    assert "Traceback" not in err


def test_oversized_tableau_is_refused_before_allocating(capsys):
    # 256 profiles pass the profile cap, but the dense tableau of the
    # 65792 x 512 program would need 4.4e9 entries
    argv = ["characterize", "--gen", "n=1,m=1,support=255,value_range=1000"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert "ScaleLimit: a 65792x66305 tableau exceeds the cap" in captured.err
    assert "Traceback" not in captured.err


def test_oversized_gen_program_is_refused_before_drawing(capsys):
    # two profiles, but 100000 items make a 200004 x 200002 program;
    # drawing the items' values alone takes seconds
    argv = ["characterize", "--gen", "n=1,m=100000,support=1"]
    start = time.perf_counter()
    assert main(argv) == 4
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert "ScaleLimit: a 200004x400007 tableau exceeds the cap" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_exact_pivot_cap_exits_4(u12_path, capsys, monkeypatch, lp_only):
    from fractions import Fraction

    import auctionlp.lp.simplex as simplex

    # every float proposal is rejected, and the exact simplex may not pivot
    def rejected(value, bound):
        return Fraction(value).limit_denominator(bound) + Fraction(1, 7)

    monkeypatch.setattr(simplex, "_nearby_rational", rejected)
    monkeypatch.setattr(simplex, "_PIVOT_CAP", 0)
    assert main(["solve", u12_path]) == 4
    err = capsys.readouterr().err
    assert "PivotLimit: pivot cap exceeded" in err
    assert "Traceback" not in err


def test_parser_is_reused_across_calls(u12_path, capsys):
    # main reuses one parser; a call that argparse or main rejects must
    # not change what the next call sees
    argvs = [
        ["solve", u12_path],
        ["solve", u12_path, "--form", "nonsense"],
        ["characterize"],
        ["solve", u12_path, "--form", "bic"],
        ["solve", u12_path],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    reused = [run(argv) for argv in argvs]
    assert build_parser() is build_parser()
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, "SystemExit(2)", "SystemExit(2)", 0, 0]
    assert reused[0][1] == reused[4][1] == "1\n"


# -- characterize -----------------------------------------------------------

PAIR_REPORT = """\
brev 3/2
drev 3/2
srev 3/2
brev=drev true
drev=srev true
srev=brev true
witness agent-independent
findings none
"""


def test_characterize_instance_block(pair_path, capsys):
    assert main(["characterize", pair_path]) == 0
    assert capsys.readouterr().out == PAIR_REPORT


def test_characterize_one_gen_instance_prints_its_block(tmp_path, capsys):
    path = tmp_path / "drawn.json"
    path.write_text(gen_instance({"n": 2, "m": 1, "support": 2}, 5).to_json())
    assert main(["characterize", str(path)]) == 0
    block = capsys.readouterr().out
    argv = ["characterize", "--gen", "n=2,m=1,support=2", "--seed", "5", "--count", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out == block
    assert block.startswith("brev ")


def test_characterize_prints_each_finding(tmp_path, capsys):
    # i.i.d. buyers whose items are correlated: BRev = DRev > SRev
    path = tmp_path / "split.json"
    path.write_text(gen_instance({"n": 3, "m": 2, "support": 2, "iid": True}, 6).to_json())
    assert main(["characterize", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "witness agent-independent",
        "finding iid-equality-split:brev=1195/288,drev=1195/288,srev=3581/864",
    ]


def test_characterize_needs_path_or_gen(capsys):
    with pytest.raises(SystemExit) as err:
        main(["characterize"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["--gen", "n=2,m=1,support=2"], "not both"),
        (["--seed", "3"], "need --gen"),
        (["--count", "2"], "need --gen"),
    ],
)
def test_characterize_refuses_input_it_would_ignore(tmp_path, capsys, argv, refusal):
    # a path beside --gen, even one that does not exist, and --seed or
    # --count without --gen would go unread
    for path in (str(tmp_path / "missing.json"), str(tmp_path)):
        with pytest.raises(SystemExit) as err:
            main(["characterize", path, *argv])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert refusal in captured.err and captured.out == ""


def test_characterize_refuses_augment_zero_with_gen(capsys):
    # generated instances always hold the zero type, so the flag would go unread
    with pytest.raises(SystemExit) as err:
        main(["characterize", "--gen", "n=2,m=1,support=2", "--augment-zero"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "--augment-zero needs an instance path" in captured.err and captured.out == ""


def test_characterize_gen_is_deterministic(capsys):
    argv = ["characterize", "--gen", "n=2,m=1,support=2", "--seed", "4", "--count", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    lines = first.strip().splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    assert [r["seed"] for r in records] == [4, 5]
    assert records[0]["brev"] == "609/416"
    for record in records:
        assert json.dumps(record, sort_keys=True) in first


def test_characterize_gen_iid_scan(capsys):
    argv = [
        "characterize",
        "--gen",
        "n=3,m=1,support=2,iid=true",
        "--seed",
        "1",
        "--count",
        "2",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["brev"] for r in records] == ["11/24", "189/64"]
    assert all(r["tight_excess"] == "0" for r in records)
    scanned = gen_records({"n": 3, "m": 1, "support": 2, "iid": True}, 1, 2)
    assert out == "".join(json.dumps(record, sort_keys=True) + "\n" for record in scanned)


def test_characterize_bad_gen_spec(capsys):
    for spec in (
        "n;3",
        "n=x",
        "n=3,m=1,support=1.5",
        "n=2,m=1,bogus=1",
        "n=2,m=1,iid=maybe",
        "n=2,m=1,n=3",
        "n=2,m=1,support=2,support=1",
    ):
        assert main(["characterize", "--gen", spec]) == 2
        assert "DimensionMismatch" in capsys.readouterr().err
    for spec, count in (("n=2,m=1,support=2", "0"), ("n=3,m=1,support=2,iid=1", "-2")):
        assert main(["characterize", "--gen", spec, "--count", count]) == 2
        captured = capsys.readouterr()
        assert "DimensionMismatch" in captured.err
        assert captured.out == ""
    # with two faults, the spec's syntax is named first, then --count,
    # then the values
    for spec, count, line in (
        ("n=x,foo", "1", "generator spec entry lacks '=': 'foo'"),
        ("n=x,n=2", "1", "generator spec repeats the key 'n'"),
        ("n=x", "0", "--count must be at least 1, got 0"),
    ):
        assert main(["characterize", "--gen", spec, "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: DimensionMismatch: {line}\n"
        assert captured.out == ""


@pytest.mark.parametrize(
    "key,value",
    [("n", "0"), ("m", "-1"), ("value_range", "0"), ("denominator", "0"), ("support", "0")],
)
def test_characterize_gen_names_a_count_below_one(capsys, key, value):
    spec = {"n": "3", "m": "1", "support": "2", key: value}
    text = ",".join(f"{k}={v}" for k, v in spec.items())
    assert main(["characterize", "--gen", text]) == 2
    captured = capsys.readouterr()
    assert f"generator spec value for '{key}' is not positive: {value}" in captured.err
    assert captured.out == ""


def test_characterize_gen_iid_scan_honors_caps(capsys):
    argv = ["characterize", "--gen", "n=3,m=1,support=3,iid=1", "--caps", "8"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert "ScaleLimit" in captured.err
    assert captured.out == ""


# -- input fuzz -------------------------------------------------------------

U123 = {
    "buyers": 1,
    "items": 1,
    "supports": [[[0], [1], [2], [3]]],
    "probs": [[0, "1/3", "1/3", "1/3"]],
}
# Numbers at the edges of the grammar, and JSON values that are no number.
EDGE_NUMBERS = st.sampled_from(
    [*NUMBER_TABLE, "9" * 5000, "1e-5000", "0", "-1", "1/3", 0, 1, -1, 2, 0.5, True, None, []]
)


def _exits_cleanly(argv):
    """Run main on argv: the exit code is documented, and a refusal is
    one error line, never a traceback.  Returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused a flag
            code = exc.code
    err = err.getvalue()
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    assert code == 0 or sum("error:" in line for line in err.splitlines()) == 1, err
    return code


@st.composite
def near_valid_instances(draw):
    """pair12 or u123 with one or two edits: a value or a mass from the
    grammar's edges, a mass off by one in its numerator, a level of
    nesting added or taken away, a duplicated vector, the zero type
    taken away, or a count field replaced or dropped."""
    data = json.loads(json.dumps(draw(st.sampled_from([PAIR12, U123]))))
    supports, probs = data["supports"], data["probs"]
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(supports) - 1))
        support, masses = supports[i], probs[i]
        if not (isinstance(support, list) and isinstance(masses, list) and support and masses):
            continue  # an earlier edit broke this buyer's shape
        t = draw(st.integers(0, min(len(support), len(masses)) - 1))
        if not (isinstance(support[t], list) and support[t]):
            continue
        edit = draw(st.sampled_from(["value", "mass", "off-by-one", "nesting", "duplicate", "zero", "field"]))
        if edit == "value":
            supports[i][t][0] = draw(EDGE_NUMBERS)
        elif edit == "mass":
            probs[i][t] = draw(EDGE_NUMBERS)
        elif edit == "off-by-one" and isinstance(probs[i][t], (int, str)):
            try:
                q = rat(probs[i][t])
            except errors.NotRational:
                continue
            probs[i][t] = rat_str(q + draw(st.sampled_from([-1, 1])) * Fraction(1, q.denominator * 3))
        elif edit == "nesting":
            where = draw(st.sampled_from(["vector", "support", "probs"]))
            if where == "vector":
                supports[i][t] = draw(st.sampled_from([[supports[i][t]], supports[i][t][0]]))
            elif where == "support":
                supports[i] = supports[i][t]
            else:
                probs[i] = [probs[i]]
        elif edit == "duplicate":
            supports[i][draw(st.integers(0, len(supports[i]) - 1))] = list(supports[i][t])
        elif edit == "zero":
            del supports[i][0], probs[i][0]
        else:
            field = draw(st.sampled_from(["buyers", "items"]))
            if draw(st.booleans()):
                data.pop(field, None)
            else:
                data[field] = draw(st.sampled_from([0, 2, 3, -1, "1", 1.0, True, None]))
    return data


@settings(max_examples=60, deadline=None)
@given(near_valid_instances(), st.sampled_from(["validate", "solve"]), st.booleans())
def test_near_valid_instances_exit_cleanly(tmp_path_factory, data, command, augment):
    path = tmp_path_factory.getbasetemp() / "near-valid.json"
    path.write_text(json.dumps(data))
    _exits_cleanly([command, str(path), *(["--augment-zero"] if augment else [])])


# Spec entries, --caps and --count values: half of them read, half at an edge.
GEN_VALUES = st.sampled_from(["1", "2", "3", "true", "no"]) | st.sampled_from(
    ["0", "-1", " 2 ", "1_0", "\u0662", "2.0", "x", "", "9" * 30]
)
gen_specs = st.lists(
    st.tuples(
        st.sampled_from(["n", "m", "support", "value_range", "denominator", "iid", "correlated", "k"]),
        st.just("=") | st.sampled_from(["", "=="]),
        GEN_VALUES,
    ).map("".join),
    max_size=4,
).map(",".join)
CAPS = st.sampled_from(["27", "256"]) | st.sampled_from(["1", "0", "-3", "x", "1e3", "\u0662\u0667", "9" * 30])
COUNTS = st.sampled_from(["1", "2"]) | st.sampled_from(["0", "-1", "x"])


def _would_solve_past(spec_text, caps, count, profiles):
    """Whether characterize --gen would solve an instance of more than
    profiles profiles: the spec, --caps and --count all read, and the
    shape within the cap."""
    try:
        spec = parse_spec(spec_text)
        caps, count = int(caps), int(count)
        if caps < 1 or count < 1:
            return False
        m, sizes = gen_shape(spec, caps)
    except (errors.InvalidInput, ScaleLimit, ValueError):
        return False
    return math.prod(sizes) > profiles


@settings(max_examples=40, deadline=None)
@given(gen_specs, CAPS, COUNTS, st.integers(0, 3))
def test_gen_specs_and_flags_exit_cleanly(spec, caps, count, seed):
    assume(not _would_solve_past(spec, caps, count, 27))
    _exits_cleanly(["characterize", "--gen", spec, "--caps", caps, "--count", count, "--seed", str(seed)])


# -- virtuals ---------------------------------------------------------------

U12_VIRTUALS = """\
form ds
objective 1
phi:0:0:0 -inf
phi:0:0:1 0
phi:0:0:2 2
vwm ok checked=2
ubvv ok checked=2
"""

PAIR_VIRTUALS_BIC = """\
form bic
objective 3/2
phibar:0:0:0 -inf
phibar:0:0:1 0
phibar:0:0:2 2
phibar:1:0:0 -inf
phibar:1:0:1 0
phibar:1:0:2 2
vwm ok checked=4
ubvv ok checked=8
"""


def test_virtuals_table_output(u12_path, capsys):
    assert main(["virtuals", u12_path]) == 0
    assert capsys.readouterr().out == U12_VIRTUALS


def test_virtuals_interim_output(pair_path, capsys):
    assert main(["virtuals", pair_path, "--form", "bic"]) == 0
    assert capsys.readouterr().out == PAIR_VIRTUALS_BIC


def test_virtuals_reports_vwm_violations(u12_path, capsys, monkeypatch):
    # one violation names its buyer, the other none
    violations = (
        VwmViolation("alloc-not-argmax", 0, 2, 0),
        VwmViolation("unsold-max-positive", 0, 1),
    )
    monkeypatch.setattr(cli, "check_vwm", lambda *args: CheckReport(2, violations))
    assert main(["virtuals", u12_path]) == 0
    assert capsys.readouterr().out == U12_VIRTUALS.replace(
        "vwm ok checked=2\n",
        "vwm violations 2\n"
        "vwm alloc-not-argmax i=0 j=0 r=2\n"
        "vwm unsold-max-positive i=- j=0 r=1\n",
    )


@pytest.mark.parametrize("form", ["ds", "bic"])
def test_virtuals_reports_ubvv_violations(tmp_path, capsys, form):
    path = tmp_path / "over.json"
    path.write_text(gen_instance({"n": 1, "m": 2, "support": 3}, 0).to_json())
    assert main(["virtuals", str(path), "--form", form]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["ubvv violations 1", "ubvv over-value i=0 j=0 r=3"]


# -- console script ---------------------------------------------------------


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_console_script_smoke(u12_path):
    # Run the [project.scripts] entry point in a new process the way an
    # installed wrapper does, so no install is needed, against the same
    # package this suite imports rather than whatever is first on PATH.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["auctionlp"]
    module, attr = target.split(":")
    code = (
        "import sys; sys.argv[0] = 'auctionlp'; "
        f"from {module} import {attr}; sys.exit({attr}())"
    )
    env = dict(os.environ)
    src = str(Path(auctionlp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code, "solve", u12_path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0
    assert done.stdout == "1\n"



# -- a reader that stops early ---------------------------------------------


def test_closed_stdout_exits_141_in_a_pipe():
    # `auctionlp characterize --gen ... | head -1`: about 90 KB of records,
    # more than a pipe holds plus what one read takes, so the program
    # must write again after its reader has gone
    env = dict(os.environ)
    src = str(Path(auctionlp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = ["characterize", "--gen", "n=1,m=1,support=2", "--count", "500"]
    child = subprocess.Popen(
        [sys.executable, "-m", "auctionlp.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = json.loads(child.stdout.readline())
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert first["index"] == 0
    assert (child.wait(), stderr) == (141, b"")


@pytest.mark.parametrize("spec", ["n=3,m=2,support=3,iid=1", "n=2,m=1,support=2"])
def test_a_reader_that_stops_stops_the_scan(capsys, monkeypatch, spec):
    # `characterize --gen ... --count 20 | head -1`: each record reaches
    # the reader before the next instance is drawn, and the write after
    # the reader has gone ends the run
    read_end, write_end = os.pipe()

    class FirstLine(io.TextIOBase):
        """A pipe whose reader closes it after one flushed line."""

        def __init__(self):
            self.pending, self.read = "", ""

        def write(self, text):
            if "\n" in self.read:
                raise BrokenPipeError(32, "Broken pipe")
            self.pending += text
            return len(text)

        def flush(self):
            self.read, self.pending = self.read + self.pending, ""

        def fileno(self):
            return write_end

    made = []
    original = cli.characterize

    def counted(instance):
        made.append(instance)
        return original(instance)

    monkeypatch.setattr(cli, "characterize", counted)
    monkeypatch.setattr(analysis, "characterize", counted)
    reader = FirstLine()
    try:
        monkeypatch.setattr(sys, "stdout", reader)
        assert main(["characterize", "--gen", spec, "--count", "20"]) == 141
    finally:
        os.close(read_end)
        os.close(write_end)
    assert json.loads(reader.read)["index"] == 0
    assert len(made) == 2
    assert capsys.readouterr().err == ""


def test_closed_stdout_exits_141_in_process(u12_path, capsys, monkeypatch):
    # a closed stdout is no invalid input: no error line, and the
    # descriptor is pointed at the null device for the flush at exit
    read_end, write_end = os.pipe()

    class ClosedPipe(io.TextIOBase):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return write_end

    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["validate", u12_path]) == 141
        assert main(["solve", u12_path]) == 141
    finally:
        os.close(read_end)
        os.close(write_end)
    assert capsys.readouterr().err == ""
