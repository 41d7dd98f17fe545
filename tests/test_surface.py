"""The package's public surface: every exported name resolves, and the
test-side references stay independent of the paths they check."""

import ast
import importlib
import pkgutil
from pathlib import Path

import auctionlp
import auctionlp.oracles

# The rank-table and closed-form paths that tests/helpers.py and
# tests/baselines.py are checked against; neither may call them.
FAST_PATHS = {
    "key_flows", "flow_phi", "flow_psi", "_key_rows", "mechanism_slacks",
    "dual_from_multipliers", "canonical_flow", "myerson_mechanism",
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
