"""Every memo of the package is listed here, by module: a new ``@cache``
function needs a row, so each memo is named where it is added and the
list stays the one place to register and clear them from.
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
        "_fixed_point_free",
        "_with_fixed_points",
        "_power_sums",
    },
    "symfunc": {
        "lr_coefficient",
        "_schur_product_terms",
        "_lattice_strips",
        "_skew_terms",
        "h_to_schur",
        "_collected",
    },
    "enumeration": {"p2", "_formula_sum"},
    "partitions": {"partitions_of", "standard_tableaux_count"},
    "kron_ops": {"build_operator"},
    "tableaux": {"_steps"},
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


def test_every_memo_has_a_row():
    found = {path.stem: memoised(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == MEMOS
