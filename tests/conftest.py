"""Shared instances, the benchmark's corpora and the acceptance-summary
reporter."""

import importlib.util
import sys
from pathlib import Path

import pytest

from auctionlp import auction
from auctionlp.lp import simplex
from auctionlp.model import validate_instance


def build(buyers, items, supports, probs):
    return validate_instance(
        {"buyers": buyers, "items": items, "supports": supports, "probs": probs}
    )


def perfbench_corpus(monkeypatch, workload, seed, workdir):
    """The benchmark's corpus of one workload and seed, its input files
    written under workdir; perfbench/workloads.py is only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads.build_corpus(workload, seed, str(workdir))


def rebind(monkeypatch, original, replacement):
    """Point every attribute of an auctionlp module that holds original
    at replacement, as the benchmark's tracer does (perfbench/spans.py),
    so calls through names imported from another module are seen too."""
    for name, module in list(sys.modules.items()):
        if name == "auctionlp" or name.startswith("auctionlp."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def lp_counts(monkeypatch):
    """What the benchmark's traced run counts of the LP layer, as it
    counts it: solves, pivots (simplex.eliminate calls), and the rows,
    columns and nonzeros of each program solved, read after its solve."""
    counts = dict.fromkeys(("solves", "pivots", "rows", "cols", "nnz"), 0)
    solve, eliminate = simplex.solve, simplex.eliminate

    def solved(lp, *args, **kwargs):
        certificate = solve(lp, *args, **kwargs)
        counts["solves"] += 1
        counts["rows"] += lp.nrows
        counts["cols"] += lp.ncols
        counts["nnz"] += sum(len(row) for row in lp.rows)
        return certificate

    def pivoted(*args, **kwargs):
        counts["pivots"] += 1
        return eliminate(*args, **kwargs)

    rebind(monkeypatch, solve, solved)
    rebind(monkeypatch, eliminate, pivoted)
    return counts


def irregular(n):
    """Value 3 has a negative virtual value between two positive ones,
    so the optimal auction irons it."""
    return build(n, 1, [[[0], [2], [3], [10]]] * n, [[0, "1/2", "1/4", "1/4"]] * n)


@pytest.fixture(scope="session")
def u12():
    """One buyer, one item, value uniform on {1, 2}."""
    return build(1, 1, [[[0], [1], [2]]], [[0, "1/2", "1/2"]])


@pytest.fixture(scope="session")
def u123():
    """One buyer, one item, value uniform on {1, 2, 3}."""
    return build(1, 1, [[[0], [1], [2], [3]]], [[0, "1/3", "1/3", "1/3"]])


@pytest.fixture(scope="session")
def pair12():
    """Two buyers, one item, i.i.d. uniform on {1, 2}."""
    sup = [[0], [1], [2]]
    ps = [0, "1/2", "1/2"]
    return build(2, 1, [sup, sup], [ps, ps])


@pytest.fixture(scope="session")
def items12():
    """One buyer, two independent items, each uniform on {1, 2}."""
    return build(
        1,
        2,
        [[[0, 0], [1, 1], [1, 2], [2, 1], [2, 2]]],
        [[0, "1/4", "1/4", "1/4", "1/4"]],
    )


@pytest.fixture(scope="session")
def gap2x2():
    """Two buyers, two correlated items; BRev exceeds DRev here."""
    return build(
        2,
        2,
        [
            [["0", "0"], ["1/2", "1/3"], ["7/2", "3"]],
            [["0", "0"], ["13/4", "3"], ["11/3", "1/2"]],
        ],
        [["2/7", "1/7", "4/7"], ["3/4", "1/8", "1/8"]],
    )


REPROOF_PATHS = ("model", "row-local")


def reprove_on(monkeypatch, path):
    """Make verify_certificate_document re-prove a stored certificate on
    one path only: "model", with the program's recheck raising a bare
    AssertionError, which no refusal (CertificateError) catches; or
    "row-local", the program's recheck, forced by taking every vector's
    common denominator to be past the cap.  The model path is _prove,
    which also accepts each vertex a solve proposes, so it is not
    patched."""

    def other_path(*args):
        raise AssertionError(f"a {path} re-proof left its path")

    if path == "model":
        monkeypatch.setattr(auction, "recheck_certificate", other_path)
    else:
        monkeypatch.setattr(auction, "_over_common_denominator", lambda size, entries: None)


@pytest.fixture(params=REPROOF_PATHS)
def reproof(request, monkeypatch):
    """Run the test once per re-proof path (reprove_on)."""
    reprove_on(monkeypatch, request.param)
    return request.param


_ACCEPTANCE: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if "test_acceptance" in report.nodeid and name.startswith("test_c"):
        _ACCEPTANCE[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return

    def order(name):
        digits = "".join(ch for ch in name.split("_")[1] if ch.isdigit())
        return int(digits or 0)

    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE, key=order):
        verdict = "PASS" if _ACCEPTANCE[name] == "passed" else "FAIL"
        label = name.replace("test_c", "criterion ", 1).replace("_", " ")
        terminalreporter.write_line(f"{label}: {verdict}")
