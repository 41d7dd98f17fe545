"""The package's public surface: every exported name resolves, the
test-side references stay independent of the paths they check, and
every name the benchmark's tracer rebinds or reads exists."""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

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
    for path in sorted(Path(auctionlp.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
                if {"dual", "form"} <= params:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found


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
