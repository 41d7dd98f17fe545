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


def test_exports_resolve_and_references_stay_independent():
    for info in pkgutil.walk_packages(auctionlp.__path__, "auctionlp."):
        module = importlib.import_module(info.name)
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"{info.name}.__all__ names missing {export}"
    assert auctionlp.oracles.__all__ == ["gen_instance", "gen_shape"]

    here = Path(__file__).parent
    for reference in ("helpers.py", "baselines.py"):
        tree = ast.parse((here / reference).read_text())
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        assert not used & FAST_PATHS, f"{reference} uses {sorted(used & FAST_PATHS)}"
