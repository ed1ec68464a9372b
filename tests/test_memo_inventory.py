"""Every memo of the package is listed here, by module: a new ``@cache``
function, or a new module-level name bound to an empty ``{}``, needs a
row, so each memo is named where it is added and the list stays the one
place to register and clear them from.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kronlab"

# module -> its functions memoised by functools.cache or lru_cache
MEMOS = {
    "characters": {
        "_bead_index",
        "_strip_moves",
        "_column",
        "_halves",
        "_power_sums",
    },
    "symfunc": {
        "_schur_product_terms",
        "_lattice_strips",
        "_skew_terms",
        "_h_to_schur",
        "_collected",
    },
    "enumeration": {"p2", "_formula_sum"},
    "partitions": {"partitions_of", "_standard_tableaux_count"},
    "kron_ops": {"_build_operator"},
    "tableaux": {"_steps"},
}
# module -> its module-level dicts that start empty and are filled as a memo
DICT_MEMOS = {
    "kron_ops": {"_powers"},
    "symfunc": {"_shared"},
    "tableaux": {"_endpoints"},
}
CACHES = {"cache", "lru_cache"}


def is_cache(decorator: ast.expr) -> bool:
    """``@cache``, ``@functools.cache`` or either with arguments, and the
    same for ``lru_cache``."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr in CACHES
    return isinstance(decorator, ast.Name) and decorator.id in CACHES


def memoised(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(map(is_cache, node.decorator_list))
    }


def empty_dicts(path: Path) -> set[str]:
    """The module-level names bound to an empty ``{}`` literal."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if isinstance(node.value, ast.Dict) and not node.value.keys:
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def by_module(names_of) -> dict[str, set[str]]:
    found = {path.stem: names_of(path) for path in sorted(PACKAGE.glob("*.py"))}
    return {module: names for module, names in found.items() if names}


def test_every_memo_has_a_row():
    assert by_module(memoised) == MEMOS


def test_every_dict_memo_has_a_row():
    assert by_module(empty_dicts) == DICT_MEMOS
