"""The package's public surface: every exported name has a reader.

A name in a module's ``__all__`` earns its place when the program uses
it (some ``src/`` code outside its own definition references it) or the
benchmark reads it (a ``perfbench/*.py`` file mentions it).  Reference
code that only tests call lives in ``tests/oracles.py`` instead.  A
module's private top-level names (one leading underscore) need a reader
too, with none kept on purpose.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the exported names that neither the program nor perfbench reads, each kept
# on purpose
UNREAD_EXPORTS = {
    "double_center": "README's helper for users who build array models",
    "stein_solution": "reserved for item 2's stein-chain",
}


def _exports(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _reads(node) -> Counter:
    """How often node loads each name, and each attribute by its name."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        or isinstance(sub, ast.Attribute))


def _definition(tree: ast.Module, name: str):
    return next((node for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name),
                None)


def _private_names(tree: ast.Module) -> list:
    """The module's top-level names that start with one underscore: its
    private functions, classes and assigned constants."""
    names = [node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    targets = [target for node in tree.body if isinstance(node, ast.Assign)
               for target in node.targets]
    targets += [node.target for node in tree.body if isinstance(node, ast.AnnAssign)]
    names += [sub.id for target in targets for sub in ast.walk(target)
              if isinstance(sub, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def unread_names(root: Path, names) -> set:
    """The names that names(tree) lists in any src/ module and that neither
    the program (outside the name's own definition) nor perfbench reads."""
    trees = [ast.parse(path.read_text())
             for path in sorted((root / "src" / "steinpaths").glob("*.py"))]
    bench = "\n".join(path.read_text() for path in sorted((root / "perfbench").glob("*.py")))
    reads = sum((_reads(tree) for tree in trees), Counter())
    unread = set()
    for tree in trees:
        for name in names(tree):
            own = _definition(tree, name)
            if reads[name] > (_reads(own)[name] if own is not None else 0):
                continue
            if not re.search(r"\b%s\b" % re.escape(name), bench):
                unread.add(name)
    return unread


def test_every_export_is_read_or_kept_on_purpose():
    assert unread_names(ROOT, _exports) == set(UNREAD_EXPORTS)


def test_every_private_name_is_read():
    # a private helper that no code calls any more is a leftover
    assert unread_names(ROOT, _private_names) == set()
