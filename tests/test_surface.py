"""The package's public surface: every exported name has a reader.

A name in a module's ``__all__`` earns its place when the program uses
it (some ``src/`` code outside its own definition references it) or the
benchmark reads it (a ``perfbench/*.py`` file mentions it).  Reference
code that only tests call lives in ``tests/oracles.py`` instead.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the exported names that neither the program nor perfbench reads, each kept
# on purpose
UNREAD_EXPORTS = {
    "double_center": "README's helper for users who build array models",
    "merge": "the scalar reference for the engine's vectorized merge",
    "mehler_apply": "Stein-solution stack, reserved for the Stein-solution item",
    "mehler_two_step": "Stein-solution stack, reserved for the Stein-solution item",
    "solve_phi": "Stein-solution stack, reserved for the Stein-solution item",
    "stein_selfconsistency": "Stein-solution stack, reserved for the Stein-solution item",
    # row_cov's two-time views, which record the table-vs-Brownian D2 gap
    # by design (graph module docstring)
    "cov_d1d1": "row_cov's two-time D1D1 view",
    "cov_d1d2": "row_cov's two-time D1D2 view",
    "cov_d2d2": "row_cov's two-time D2D2 view, the sampler's law",
    "cov_d2d2_table": "row_cov's two-time D2D2 view of the covariance table",
    "d2_block_discrepancy": "row_cov's two-time view of the table-vs-Brownian gap",
}


def _exports(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _references(tree: ast.Module, name: str, skip=None) -> bool:
    """Whether tree loads `name` or an attribute `name` outside the node skip."""
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    return any(
        id(node) not in skipped
        and (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
             or isinstance(node, ast.Attribute) and node.attr == name)
        for node in ast.walk(tree))


def _definition(tree: ast.Module, name: str):
    return next((node for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name),
                None)


def unread_exports(root: Path) -> set:
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((root / "src" / "steinpaths").glob("*.py"))}
    bench = "\n".join(path.read_text() for path in sorted((root / "perfbench").glob("*.py")))
    unread = set()
    for module, tree in trees.items():
        for name in _exports(tree):
            if any(_references(other, name, _definition(other, name) if key == module else None)
                   for key, other in trees.items()):
                continue
            if not re.search(r"\b%s\b" % re.escape(name), bench):
                unread.add(name)
    return unread


def test_every_export_is_read_or_kept_on_purpose():
    assert unread_exports(ROOT) == set(UNREAD_EXPORTS)
