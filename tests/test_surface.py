"""The package's public surface: every exported name resolves, the
test-side references stay independent of the paths they check, and
every name the benchmark's tracer rebinds exists."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import auctionlp
import auctionlp.oracles
from auctionlp.model import Instance

# The rank-table and closed-form paths, and the label rendering, that
# tests/helpers.py and tests/baselines.py are checked against; neither
# may call them.
FAST_PATHS = {
    "key_flows", "flow_phi", "flow_psi", "_key_rows", "mechanism_slacks",
    "dual_from_multipliers", "canonical_flow", "myerson_mechanism", "labels",
}
# What the primal builder reads; helpers.reference_primal uses none of it.
BUILDER_PATHS = {
    "_build_primal", "build_dslp", "build_blp", "multiplier_keys", "ranks",
    "positions", "mu_by_rank", "mu_minus_by_slice",
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
    assert auctionlp.oracles.__all__ == ["gen_instance", "gen_shape"]

    here = Path(__file__).parent
    trees = {name: ast.parse((here / name).read_text()) for name in ("helpers.py", "baselines.py")}
    for reference, tree in trees.items():
        used = _names(tree)
        assert not used & FAST_PATHS, f"{reference} uses {sorted(used & FAST_PATHS)}"
    (primal,) = [
        node
        for node in ast.walk(trees["helpers.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "reference_primal"
    ]
    used = _names(primal)
    assert not used & BUILDER_PATHS, f"reference_primal uses {sorted(used & BUILDER_PATHS)}"


def test_benchmark_trace_targets_resolve():
    # A traced benchmark run (perfbench/run.py --trace 1) rebinds these
    # functions by name; a rename here must fail a test, not the trace.
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
