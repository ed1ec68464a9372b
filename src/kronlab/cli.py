"""Command-line front end.

Exit codes: 0 success (and agreement for cross-checked runs); 1 verified
disagreement, which only ``kron``/``power`` with several routes, ``verify``
and ``egf --check`` report; 2 usage, input or output error, and any
internal error; 3 resource limit (memory included).  Subcommands return 0
or 1 and raise for everything else; ``main`` alone turns an exception into
one ``error:`` line on stderr and its exit code.
All output is deterministic for a fixed invocation; JSON payloads carry
a ``schema`` version key.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import characters, enumeration, kron_ops, symfunc, tableaux
from .partitions import parse_partition, weight

SCHEMA = "kronlab/1"

DEFAULT_MAX_N = 8
DEFAULT_MAX_K = 10
DEFAULT_MAX_CHARTABLE_N = 16
DEFAULT_LIST_LIMIT = 100000
DEFAULT_MAX_WALK_K = 1000
DEFAULT_MAX_FORMULA_N = 2500
DEFAULT_MAX_FORMULA_K = 1000
DEFAULT_MAX_EGF_ORDER = 200


def _emit(payload: dict) -> None:
    print(json.dumps({"schema": SCHEMA, **payload}))


# route name -> {command: function of the command's inputs -> SchurSum}
ROUTES = {
    "operator": {
        "kron": kron_ops.kron_product_via_operator,
        "power": kron_ops.kron_power_nm1,
    },
    "character": {
        "kron": characters.kron_product_via_characters,
        "power": characters.kron_power_oracle,
    },
    "tableaux": {"power": lambda n, k: tableaux.walk_counts((n,), k)},
}
# --method values that name several routes; any other value names one
METHOD_ROUTES = {"both": ("operator", "character"), "all": tuple(ROUTES)}


def _methods(command: str) -> list[str]:
    """The --method values of ``command``: each route that has it, then
    each name of several routes that all have it."""
    return [
        name
        for name in (*ROUTES, *METHOD_ROUTES)
        if all(command in ROUTES[r] for r in METHOD_ROUTES.get(name, (name,)))
    ]


def _run_routes(command: str, method: str, *inputs) -> dict[str, symfunc.SchurSum]:
    names = METHOD_ROUTES.get(method, (method,))
    return {name: ROUTES[name][command](*inputs) for name in names}


def _agree(results: dict[str, symfunc.SchurSum]) -> bool:
    first, *rest = results.values()
    return all(v == first for v in rest)


def _emit_agreed(results: dict[str, symfunc.SchurSum]) -> int:
    """Print the shared expansion, or every route's expansion if they differ."""
    if _agree(results):
        _emit(symfunc.schur_sum_to_json(next(iter(results.values()))))
        return 0
    _emit(
        {
            "disagreement": True,
            **{name: symfunc.schur_sum_to_json(v) for name, v in results.items()},
        }
    )
    return 1


def _limit(**caps: int) -> tableaux.EnumerationLimitError:
    """The exit-3 error for an input beyond its ``--max-<name>`` caps."""
    bounds = ", ".join(f"{name} <= {cap}" for name, cap in caps.items())
    options = "/".join(f"--max-{name}" for name in caps)
    return tableaux.EnumerationLimitError(
        f"resource limit ({bounds}); raise {options} to proceed"
    )


def _check_power_args(args) -> None:
    """Raise for an (n, k) that may not run."""
    if args.n < 2:
        raise ValueError("n must be at least 2")
    if args.n > args.max_n or args.k > args.max_k:
        raise _limit(n=args.max_n, k=args.max_k)
    if args.k < 0:
        raise ValueError("k must be nonnegative")


def cmd_kron(args) -> int:
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    if weight(lam) != weight(mu):
        raise ValueError(f"weight mismatch {lam} vs {mu}")
    if weight(lam) > args.max_n:
        raise _limit(n=args.max_n)
    return _emit_agreed(_run_routes("kron", args.method, lam, mu))


def cmd_power(args) -> int:
    _check_power_args(args)
    return _emit_agreed(_run_routes("power", args.method, args.n, args.k))


def cmd_chartable(args) -> int:
    if args.n > args.max_n:
        raise _limit(n=args.max_n)
    table = characters.character_table(args.n)
    if args.format == "ascii":
        print(table.ascii_render())
    else:
        _emit(
            {
                "n": table.n,
                "partitions": [list(p) for p in table.partitions],
                "values": [[str(v) for v in row] for row in table.values],
            }
        )
    return 0


def cmd_tableaux(args) -> int:
    mu = parse_partition(args.mu)
    lam = parse_partition(args.lam)
    if weight(mu) != weight(lam):
        raise ValueError(f"weight mismatch {mu} vs {lam}")
    if args.action == "list" and args.limit <= 0:
        raise ValueError("--limit must be positive")
    if args.k > args.max_k:
        raise _limit(k=args.max_k)
    if args.action == "count":
        print(tableaux.count_kronecker_tableaux(mu, lam, args.k))
        return 0
    for walk in tableaux.list_kronecker_tableaux(mu, lam, args.k, limit=args.limit):
        print(tableaux.format_walk(walk))
    return 0


def cmd_bijection(args) -> int:
    if args.walkfile in (None, "-"):
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.walkfile, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    for line in lines:
        if not line.strip():
            continue
        walk = tableaux.parse_walk(line)
        n = weight(walk.initial)
        if walk.initial != (n,):
            raise ValueError("bijection requires a one-row initial shape")
        k = walk.length
        T, pi = tableaux.to_pair(walk, n, k, require_regime=False)
        _emit(
            {
                "n": n,
                "k": k,
                "shape": list(T.shape),
                "rows": [list(r) for r in T.rows],
                "cycles": [list(c) for c in pi.cycles],
                "regime_ok": tableaux.bijection_regime_ok(n, k, walk.final),
            }
        )
    return 0


def cmd_formula(args) -> int:
    lam = parse_partition(args.lam)
    if args.n > args.max_n or args.k > args.max_k:
        raise _limit(n=args.max_n, k=args.max_k)
    value = enumeration.multiplicity_formula(args.n, args.k, lam)
    _emit(
        {
            "n": args.n,
            "k": args.k,
            "lambda": list(lam),
            "multiplicity": str(value),
        }
    )
    return 0


def cmd_egf(args) -> int:
    lb = parse_partition(args.lambda_bar)
    if args.order < weight(lb):
        raise ValueError(f"--order must be at least the weight {weight(lb)} of {lb}")
    if args.order > args.max_order:
        raise _limit(order=args.max_order)
    if args.check:
        rows = enumeration.egf_check(lb, args.order)
        _emit({"lambda_bar": list(lb), "order": args.order, "rows": rows})
        return 0 if all(r["ok"] for r in rows) else 1
    series = enumeration.egf_rhs(lb, args.order)
    _emit(
        {
            "lambda_bar": list(lb),
            "order": args.order,
            "coefficients": [str(series[k]) for k in range(args.order + 1)],
        }
    )
    return 0


def cmd_verify(args) -> int:
    _check_power_args(args)
    rows = [
        {"n": n, "k": k, "ok": _agree(_run_routes("power", "all", n, k))}
        for n in range(2, args.n + 1)
        for k in range(args.k + 1)
    ]
    all_ok = all(row["ok"] for row in rows)
    _emit({"nmax": args.n, "kmax": args.k, "rows": rows, "ok": all_ok})
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronlab",
        description=(
            "Exact Kronecker products and powers of symmetric-group "
            "characters by independent routes, with cross-validation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kron", help="Kronecker product of two irreducibles")
    p.add_argument("lam", metavar="lambda", help="partition, e.g. [3,1]")
    p.add_argument("mu", help="partition of the same weight")
    p.add_argument(
        "--method",
        choices=_methods("kron"),
        default="both",
    )
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_CHARTABLE_N)
    p.set_defaults(func=cmd_kron)

    p = sub.add_parser("power", help="Kronecker power of the (n-1,1) irreducible")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument(
        "--method",
        choices=_methods("power"),
        default="both",
    )
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    p.add_argument("--max-k", type=int, default=DEFAULT_MAX_K)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("chartable", help="character table of the symmetric group")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=["json", "ascii"], default="json")
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_CHARTABLE_N)
    p.set_defaults(func=cmd_chartable)

    p = sub.add_parser("tableaux", help="count or list corner-move walks")
    p.add_argument("action", choices=["count", "list"])
    p.add_argument("mu", help="initial shape, e.g. [5]")
    p.add_argument("lam", metavar="lambda", help="final shape")
    p.add_argument("k", type=int)
    p.add_argument("--limit", type=int, default=DEFAULT_LIST_LIMIT)
    p.add_argument("--max-k", type=int, default=DEFAULT_MAX_WALK_K)
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser(
        "bijection",
        help="map walks (one per line; file or stdin) to (tableau, permutation)",
    )
    p.add_argument("walkfile", nargs="?", default=None)
    p.set_defaults(func=cmd_bijection)

    p = sub.add_parser("formula", help="closed-form multiplicity, in regime")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("lam", metavar="lambda")
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_FORMULA_N)
    p.add_argument("--max-k", type=int, default=DEFAULT_MAX_FORMULA_K)
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("egf", help="exact truncated generating function")
    p.add_argument("lambda_bar")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--check", action="store_true")
    p.add_argument("--max-order", type=int, default=DEFAULT_MAX_EGF_ORDER)
    p.set_defaults(func=cmd_egf)

    p = sub.add_parser("verify", help="three-route agreement sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    p.add_argument("--max-k", type=int, default=DEFAULT_MAX_K)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # exact answers are printed in full, however many digits they have
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except ValueError as exc:
        message, status = str(exc), 2
    except tableaux.EnumerationLimitError as exc:
        message, status = str(exc), 3
    except RecursionError:
        message, status = "resource limit (recursion depth); use smaller inputs", 3
    except MemoryError:
        message, status = "resource limit (memory); use smaller inputs", 3
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader has gone; what is still buffered goes nowhere, so
            # the interpreter's final flush prints nothing
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        message, status = str(exc), 2
    except Exception as exc:  # a fault of kronlab itself, never a disagreement
        message, status = f"internal error ({type(exc).__name__}): {exc}", 2
    finally:
        sys.set_int_max_str_digits(digits)
    print(f"error: {message}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
