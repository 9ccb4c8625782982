"""Structure checks on the package source, read with `ast`."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fqminors"

# hooks the standard library calls by name: argparse's error handler
HOOKS = {("_Parser", "error")}


def _names(node) -> Counter:
    """How often each identifier is named in node's subtree: as a name,
    an attribute or an imported name."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def _definitions(tree):
    """(owner class name or None, node) of every function and method
    defined in a module, nested ones included."""
    owners = {fn: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for fn in cls.body}
    return [(owners.get(fn), fn) for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_every_function_is_named_outside_its_own_definition():
    # production code that only tests call is deleted or moved into the tests
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    total: Counter = Counter()
    for tree in trees.values():
        total += _names(tree)
    defs = [(module, owner, fn) for module, tree in trees.items()
            for owner, fn in _definitions(tree)]
    unused = [f"{module}: {owner + '.' if owner else ''}{fn.name}"
              for module, owner, fn in defs
              if not (fn.name.startswith("__") and fn.name.endswith("__"))
              and (owner, fn.name) not in HOOKS
              and total[fn.name] - _names(fn)[fn.name] <= 0]
    assert unused == []
