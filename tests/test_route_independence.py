"""The routes stay independent: each module of the package may import
from the rest of kronlab only what is listed here.

The shared rules live in ``partitions``, the result records in
``_record`` and the memo rule of the iterated powers in ``_memo``; a route
may use ``symfunc.SchurSum`` to return its answer.
Only the operator route builds on the Schur-function engine itself.  A
new module needs a row here, so a new route states its dependencies.
Every name a module imports is also used in it, so removed code leaves
no dead import behind.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kronlab"

ANY = "*"
SHARED = {"partitions": ANY, "_record": ANY, "_memo": ANY, "symfunc": {"SchurSum"}}

# module -> {kronlab module it may import from: names allowed, or ANY}
ALLOWED = {
    "partitions": {},
    "_record": {},
    "_memo": {"partitions": {"check_count"}},
    "symfunc": {"partitions": ANY},
    "characters": SHARED,
    "tableaux": SHARED,
    "enumeration": {"partitions": ANY},
    "kron_ops": {**SHARED, "symfunc": {"SchurSum", "h_determinant", "skew_then_multiply"}},
}
# the front ends put the routes side by side, so they may import any of them
FRONT_ENDS = {"__init__", "cli"}


def kronlab_imports(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every kronlab import in the file; a whole module
    imported by ``from . import m`` or ``import kronlab.m`` is (m, ANY)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, module = alias.name.partition(".")
                if top == "kronlab" and module:
                    found.add((module.partition(".")[0], ANY))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                top, _, module = module.partition(".")
                if top != "kronlab":
                    continue
            if module:
                found.update((module, alias.name) for alias in node.names)
            else:
                found.update((alias.name, ANY) for alias in node.names)
    return found


def test_every_module_has_a_row():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == set(ALLOWED) | FRONT_ENDS


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_what_its_row_allows(module):
    allowed = ALLOWED[module]
    for source, name in sorted(kronlab_imports(PACKAGE / f"{module}.py")):
        names = allowed.get(source, set())
        assert names == ANY or name in names, f"{module} imports {source}.{name}"


def imported_names(tree: ast.Module) -> set[str]:
    """The names the module's imports bind, ``from __future__`` aside."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).partition(".")[0] for a in node.names)
    return bound


# __init__ imports only to export
@pytest.mark.parametrize("module", sorted((set(ALLOWED) | FRONT_ENDS) - {"__init__"}))
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported_names(tree) - used
    assert not unused, f"{module} imports {sorted(unused)} and never uses them"
