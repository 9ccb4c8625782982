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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reaches_into_another_modules_private_names():
    # a `_`-prefixed name belongs to its own module: no other package
    # module imports it or reads it off the module (`matroid._assign`)
    modules = {path.stem for path in SRC.glob("*.py")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}  # local name -> the package module it is bound to
        for node in ast.walk(tree):
            # the package imports its own modules relatively; `__future__`
            # is absolute, so exempt
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                source = (node.module or "").split(".")[-1]
                for alias in node.names:
                    if source in modules and source != path.stem and _is_private(alias.name):
                        found.append(f"{path.name}:{node.lineno} imports {source}.{alias.name}")
                    if alias.name in modules:
                        aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and aliases.get(node.value.id, path.stem) != path.stem
                    and _is_private(node.attr)):
                found.append(f"{path.name}:{node.lineno} names "
                             f"{aliases[node.value.id]}.{node.attr}")
    assert found == []


def test_every_verifier_applies_the_one_witness_rule():
    # the lone verifiers and the stacked one call `_names_survivors`
    # itself, not a copy of its rule; a docstring naming it does not count
    tree = ast.parse((SRC / "minor.py").read_text())
    names = ("verify_witness", "verify_witness_matrix", "verify_witness_stack")
    verifiers = {fn.name: fn for _, fn in _definitions(tree) if fn.name in names}
    assert sorted(verifiers) == list(names)
    assert [name for name, fn in sorted(verifiers.items())
            if _names(fn)["_names_survivors"] == 0] == []


def _is_lone_tick(node) -> bool:
    """Whether node is an `if` with no `else` whose whole body is one
    `….tick(...)` call."""
    if not isinstance(node, ast.If) or node.orelse or len(node.body) != 1:
        return False
    stmt = node.body[0]
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute) and stmt.value.func.attr == "tick")


def test_no_charge_is_guarded_alone():
    # a charge of 0 adds nothing and cannot run out, so a guard that skips
    # only zero charges repeats what the unguarded tick does; a charge that
    # needs its guard shares the `if` with an `else` branch
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if _is_lone_tick(node)]
    assert found == []
