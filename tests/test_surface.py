"""The package's public surface and the structural rules of src/.

Every exported name resolves, the test-side references stay independent
of the paths they check, and every name the benchmark's tracer rebinds
or reads exists.  The structural rules keep the trusted base small (lp
knows no layout, only auction._accepted makes a _Proof, only auction
and cli import lp, ...): each is one test below, over each module of
src/auctionlp read once, and a failure names file:line."""

import ast
import importlib
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path
from typing import NamedTuple

import auctionlp
import auctionlp.oracles
from auctionlp import auction, virtual
from auctionlp.auction import build_dslp, solve_form
from auctionlp.model import DS, Instance

# The rank-table, integer-numerator and closed-form paths that
# tests/helpers.py and tests/baselines.py are checked against; neither
# may call them.
FAST_PATHS = {
    "_key_coefficients", "_key_rows", "mechanism_slacks", "_slack_numerators",
    "dual_from_multipliers", "_dual_from_scaled", "canonical_flow", "_ladder_flow",
    "_flow_dual", "myerson_mechanism", "proved_certificate",
    "face_excess", "bic_to_dsic_dual", "dsic_to_bic_dual", "regularize", "scaled",
    "supports_scaled", "probs_scaled", "mu_scaled", "mu_minus_scaled",
}
# What the primal builder reads; helpers.reference_primal uses none of it.
BUILDER_PATHS = {
    "_build_primal", "build_dslp", "build_blp", "multiplier_keys", "ranks", "positions",
}
# The label rendering: the auction module's five formats and its
# section renderer, and the test-side row_label and col_label built on
# the formats; helpers.reference_names uses none of it.
RENDER_PATHS = {
    "row_label", "col_label", "labels", "_X", "_P", "_IC", "_IR", "_SUP", "_sections", "_names",
}


class Source(NamedTuple):
    """A module of the package, read once: its lines and its tree."""

    lines: list
    tree: ast.Module


def _read(path):
    text = path.read_text()
    return Source(text.splitlines(), ast.parse(text))


ROOT = Path(__file__).resolve().parents[1]
# each module of the package by its path from the repository root
SOURCES = {
    path.relative_to(ROOT).as_posix(): _read(path)
    for path in sorted((ROOT / "src" / "auctionlp").rglob("*.py"))
}
LP = [name for name in SOURCES if name.startswith("src/auctionlp/lp/")]
OUTSIDE_LP = [name for name in SOURCES if name not in LP]
TOP = [name for name in SOURCES if name.count("/") == 2]


def _grep(pattern, names=SOURCES, allowed=lambda name, line: False):
    """file:line: text of each line of the named modules that pattern
    matches, save the lines allowed(name, line) accepts."""
    return [
        f"{name}:{number}: {line.strip()}"
        for name in names
        for number, line in enumerate(SOURCES[name].lines, 1)
        if re.search(pattern, line) and not allowed(name, line)
    ]


def _imports(name):
    """(line, level, dotted names) of each import of a module.  An
    import from a module names that module's absolute name dotted with
    each name imported, so `from . import lp` in a top-level module
    reads auctionlp.lp and `from .lp import solve` auctionlp.lp.solve."""
    for node in ast.walk(SOURCES[name].tree):
        if isinstance(node, ast.Import):
            yield node.lineno, 0, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = name.removeprefix("src/").rsplit("/", node.level)[0].replace("/", ".")
            module = ".".join(filter(None, (package if node.level else "", node.module)))
            yield node.lineno, node.level, [f"{module}.{alias.name}" for alias in node.names]


def _names(tree):
    """Every imported, bare and attribute name used under tree."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_exports_resolve_and_references_stay_independent():
    for info in pkgutil.walk_packages(auctionlp.__path__, "auctionlp."):
        module = importlib.import_module(info.name)
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"{info.name}.__all__ names missing {export}"
    assert auctionlp.oracles.__all__ == ["gen_instance", "gen_shape", "parse_spec"]
    # one function per step, whichever form its dual is of
    assert virtual.__all__ == [
        "GapLedger", "check_cs", "regularity_witness", "regularize", "virtual_values",
        "CheckReport", "check_vwm", "check_ubvv",
    ]

    here = Path(__file__).parent
    trees = {name: ast.parse((here / name).read_text()) for name in ("helpers.py", "baselines.py")}
    for reference, tree in trees.items():
        used = _names(tree)
        assert not used & FAST_PATHS, f"{reference} uses {sorted(used & FAST_PATHS)}"
    for name, paths in (("reference_primal", BUILDER_PATHS), ("reference_names", RENDER_PATHS)):
        (function,) = [
            node
            for node in ast.walk(trees["helpers.py"])
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        used = _names(function)
        assert not used & paths, f"{name} uses {sorted(used & paths)}"


def test_benchmark_trace_targets_resolve(u12, monkeypatch):
    # A traced benchmark run (perfbench/run.py --trace 1) rebinds these
    # functions by name, and reads these fields of every certificate
    # solve returns and the sizes of every program it is handed (after
    # the solve); a rename here must fail a test, not the trace.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [pair for pairs in spans.SPANS.values() for pair in pairs]
    targets += spans.COUNTED.values()
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for attr in ("mu", "mu_minus"):
        assert callable(getattr(Instance, attr, None)), attr
    # the per-form names it binds are aliases of the one function of each step
    for step in ("check_cs", "regularize", "virtual_values"):
        for form in ("ds", "bayes"):
            assert getattr(virtual, f"{step}_{form}") is getattr(virtual, step), (step, form)
    handed = []
    original = auction.solve

    def spy(lp, *accept):
        handed.append(lp)
        return original(lp, *accept)

    monkeypatch.setattr(auction, "solve", spy)
    certificate = solve_form(u12, DS)
    for attr in ("primal", "dual", "witness", "objective"):
        assert hasattr(certificate, attr), attr
    # solve_form hands solve a DeferredProgram, whose sizes are read off
    # the program it built last
    (program,) = handed
    built = build_dslp(u12)
    assert (program.nrows, program.ncols) == (built.nrows, built.ncols)
    assert [len(row) for row in program.rows] == [len(row) for row in built.rows]


def test_no_function_takes_a_form_beside_a_dual():
    # a dual holds its form, so a function that takes a dual reads the
    # form off it and is handed none beside it
    found = []
    for name, source in SOURCES.items():
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
                if {"dual", "form"} <= params:
                    found.append(f"{name}:{node.lineno}")
    assert not found


def test_no_write_into_a_frozen_dataclass():
    # mechanisms, slacks, duals and certificates get every field at
    # construction; derived views are cached properties
    assert not _grep(r"object\.__setattr__")


def test_no_read_of_fraction_private_slots():
    # float(q), q.numerator and q.denominator are the public reads;
    # _numerator and _denominator are fractions.Fraction's own slots
    assert not _grep(r"\b(_numerator|_denominator)\b")


def test_lp_imports_no_package_module_but_errors():
    # the model reads lp's certificates and lp knows nothing of the
    # model: lp imports the standard library, and relatively its own
    # modules and auctionlp.errors, nothing else
    found = [
        f"{name}:{line}: {imported}"
        for name in LP
        for line, level, names in _imports(name)
        for imported in names
        if not (
            re.match(r"auctionlp\.(lp|errors)\.", imported + ".")
            if level
            else imported.split(".")[0] in sys.stdlib_module_names
        )
    ]
    assert not found


def test_lp_names_no_layout():
    # programs and certificates hold numbers only: auction keeps the
    # layout of its programs itself, and lp carries no tag of the
    # builder a program or certificate came from
    assert not _grep(r"\blayout\b", LP)


def test_only_auction_and_cli_import_lp():
    # auction owns the programs (the optimal-face program among them)
    # and cli reads lp's tableau guard; analysis, model, virtual and
    # oracles build, transpose and solve no program
    found = [
        f"{name}:{line}: {imported}"
        for name in TOP
        if name not in ("src/auctionlp/auction.py", "src/auctionlp/cli.py")
        for line, _, names in _imports(name)
        for imported in names
        if imported == "auctionlp.lp" or imported.startswith("auctionlp.lp.")
    ]
    assert not found


def test_cli_imports_no_private_name_of_the_package():
    # cli parses argv and prints: spec text is read by oracles and
    # --gen records are made by analysis, each through its public names
    found = [
        f"src/auctionlp/cli.py:{line}: {imported}"
        for line, _, names in _imports("src/auctionlp/cli.py")
        for imported in names
        if imported.startswith("auctionlp.") and imported.rsplit(".", 1)[1].startswith("_")
    ]
    assert not found


def test_only_lp_names_make_lp():
    # make_lp validates programs from outside the package (tests and
    # library callers); the package's builders freeze their own, and
    # every answer is proved after the solve, not by how its program
    # was put together
    assert not _grep(r"\bmake_lp\b", OUTSIDE_LP)


def test_only_lp_and_auction_build_lp_certificate():
    # a primal certificate holds the vectors of a program that lp
    # solved or auction rechecks; a closed form returns its proof
    # (auction._Proof), which certificate_document writes as it is
    outside = [name for name in OUTSIDE_LP if name != "src/auctionlp/auction.py"]
    assert not _grep(r"LpCertificate\(", outside)


def test_only_auction_accepted_makes_a_proof():
    # every proved optimum, of a solve, a closed form or the face
    # search, is accepted by the same three exact checks: one line of
    # src/auctionlp constructs _Proof, and it is in auction._accepted
    (found,) = _grep(r"(?<!class )_Proof\(")
    (accepted,) = [
        node
        for node in ast.walk(SOURCES["src/auctionlp/auction.py"].tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_accepted"
    ]
    (call,) = [
        node
        for node in ast.walk(accepted)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Proof"
    ]
    assert found.startswith(f"src/auctionlp/auction.py:{call.lineno}: "), found


# check_cs, regularize and virtual_values with _ds or _bayes added, and
# ds_regularity_witness or bayes_regularity_witness
PER_FORM = r"\b((check_cs|regularize|virtual_values)_(ds|bayes)|(ds|bayes)_regularity_witness)\b"
ALIAS = r"(check_cs|regularize|virtual_values)_ds = \1_bayes = \1"


def test_per_form_names_only_on_virtual_alias_lines():
    # a dual holds its form, so each step of virtual (check_cs,
    # regularize, virtual_values) is one function.  Its per-form names
    # are kept only as aliases of it for the benchmark's tracer
    # (perfbench/spans.py), each on one line of virtual.py: no module
    # calls them, and regularity_witness has no per-form name at all
    home = "src/auctionlp/virtual.py"

    def alias(name, line):
        return name == home and re.fullmatch(ALIAS, line) is not None

    assert not _grep(PER_FORM, allowed=alias)
    aliased = [re.fullmatch(ALIAS, line) for line in SOURCES[home].lines]
    steps = sorted(match[1] for match in aliased if match)
    assert steps == ["check_cs", "regularize", "virtual_values"]


def test_readme_python_example_runs():
    # README's Library section shows the package in use; its Python
    # blocks must run against the code as it stands.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_mutants_apply_to_the_code_as_it_stands():
    # tests/mutation.py edits the code by exact text, so a change that
    # moves a mutant's text must update the list
    path = Path(__file__).with_name("mutation.py")
    spec = importlib.util.spec_from_file_location("mutation", path)
    mutation = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutation)
    assert mutation.MUTANTS
    for mutant in mutation.MUTANTS:
        assert mutation.stale(mutant) is None, mutant.name
