"""Integer partitions and Ferrers-diagram geometry.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  Diagrams use the French
convention: row 1 is the bottom (longest) row, rows and columns are
1-based, and a cell is written (row, col).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import cache, lru_cache
from math import factorial
from operator import index, le

Partition = tuple[int, ...]
Cell = tuple[int, int]


# corners: tuple[Cell, ...]; first_corner: Cell | None
CornerSet = namedtuple("CornerSet", ("corners", "first_corner"))


def is_partition(parts) -> bool:
    """True if ``parts`` is a weakly decreasing sequence of positive ints."""
    prev = None
    for p in parts:
        if not isinstance(p, int) or p < 1 or (prev is not None and p > prev):
            return False
        prev = p
    return True


def check_partition(parts) -> Partition:
    p = tuple(parts)
    if not is_partition(p):
        raise ValueError(f"not a partition: {parts!r}")
    return p


def weight(p: Partition) -> int:
    return sum(p)


def check_same_weight(*parts) -> tuple[int, list[Partition]]:
    """The common weight of the given partitions, and the partitions."""
    parts = [check_partition(p) for p in parts]
    n = weight(parts[0])
    for p in parts:
        if weight(p) != n:
            raise ValueError(f"weight mismatch {parts[0]} vs {p}")
    return n, parts


def check_count(value, name: str = "k", least: int = 0) -> int:
    """``value`` through ``operator.index``, held to be at least ``least``.
    Every public integer argument is read here before any memo is."""
    value = index(value)
    if value < least:
        bound = {0: "nonnegative", 1: "positive"}.get(least, f"at least {least}")
        raise ValueError(f"{name} must be {bound}")
    return value


# typed, so 4.0 never finds the entry of 4 and always reaches the check
@lru_cache(maxsize=None, typed=True)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse lexicographic order, (n) first."""
    n = check_count(n, "n")
    return tuple(partitions_inside((n,) * n, n))


def partitions_inside(lam: Partition, d: int, floor: Partition = ()) -> Iterator[Partition]:
    """The partitions of d <= |lam| contained in lam and containing
    ``floor`` (itself inside lam), in reverse lexicographic order.  They
    are built row by row with floor_i <= alpha_i <= min(alpha_(i-1), lam_i),
    and a row takes a part only if the rows after it can still take the
    rest: at least what the floor asks of them, and at most that part
    each in the rows of lam."""
    need = [0] * (len(lam) + 1)  # need[i]: cells the floor asks of rows i, i+1, ...
    for i in range(len(floor) - 1, -1, -1):
        need[i] = need[i + 1] + floor[i]
    if need[0] > d:
        return iter(())
    return _rows(lam, floor, need, 0, d, d, ())


def _rows(
    lam: Partition, floor: Partition, need: list[int], i: int, left: int, cap: int, alpha: Partition
) -> Iterator[Partition]:
    """The ``partitions_inside`` that extend alpha by rows i, i+1, ... with
    ``left`` cells, no part above cap.  A module-level generator, so a call
    leaves no self-referring closure behind."""
    if not left:
        yield alpha
        return
    low = floor[i] if i < len(floor) else 1
    below = len(lam) - 1 - i  # rows of lam after row i
    for part in range(min(left - need[i + 1], cap, lam[i]), low - 1, -1):
        if left - part > part * below:
            return  # a smaller part leaves more for rows that hold less
        yield from _rows(lam, floor, need, i + 1, left - part, part, alpha + (part,))


def bijection_regime_ok(n: int, k: int, lam: Partition) -> bool:
    """The paper's regime n >= k + lam_2, in which the walks to lam biject
    with (tableau, permutation) pairs and the closed formula holds."""
    second = lam[1] if len(lam) > 1 else 0
    return n >= k + second


def canonical_sort(ps) -> list[Partition]:
    """Sort partitions into the canonical (reverse lexicographic) order."""
    return sorted(ps, reverse=True)


def contains(outer: Partition, inner: Partition) -> bool:
    """Diagram containment: every row of ``inner`` fits inside ``outer``."""
    return len(inner) <= len(outer) and all(map(le, inner, outer))


def conjugate(p: Partition) -> Partition:
    if not p:
        return ()
    cols = [0] * p[0]
    for part in p:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


def corners(p: Partition) -> CornerSet:
    """Removable cells of the diagram, listed top row first.

    A corner sits at the right end of its row with no cell above it.  The
    first corner is the one on the last (topmost) row of maximal length.
    """
    if not p:
        return CornerSet((), None)
    m = len(p)
    cells = []
    for i in range(m):  # row i+1 has length p[i]
        if i + 1 == m or p[i + 1] < p[i]:
            cells.append((i + 1, p[i]))
    cells.reverse()  # top row first
    longest = sum(1 for part in p if part == p[0])
    return CornerSet(tuple(cells), (longest, p[0]))


def remove_corner(p: Partition, c: Cell) -> Partition:
    """Remove the corner cell ``c`` from ``p``; rejects non-corner cells."""
    cs = corners(p)
    if c not in cs.corners:
        raise ValueError(f"{c} is not a corner of {p}")
    row = c[0] - 1
    out = list(p)
    out[row] -= 1
    if out and out[-1] == 0:
        out.pop()
    return tuple(out)


def add_corner_positions(p: Partition) -> list[Partition]:
    """All partitions obtained by adding one cell (necessarily a corner).

    Listed bottom row first, which is the canonical order of the results.
    """
    out = []
    m = len(p)
    for i in range(m):
        if i == 0 or p[i] < p[i - 1]:
            q = list(p)
            q[i] += 1
            out.append(tuple(q))
    out.append(p + (1,))
    return out


def centralizer_order(mu: Partition) -> int:
    """z_mu = prod over distinct parts i of i^m_i * m_i!."""
    z = 1
    mult = 1
    for j, part in enumerate(mu):
        mult = mult + 1 if j > 0 and mu[j - 1] == part else 1
        z *= part * mult
    return z


def class_size(mu: Partition) -> int:
    """Number of permutations with cycle type mu: n!/z_mu, exact."""
    return factorial(weight(mu)) // centralizer_order(mu)


def hooks(p: Partition) -> list[int]:
    conj = conjugate(p)
    return [
        (p[i] - j) + (conj[j - 1] - i - 1) + 1
        for i in range(len(p))
        for j in range(1, p[i] + 1)
    ]


def standard_tableaux_count(p: Partition) -> int:
    """Number of standard fillings of shape p, by the hook length product."""
    return _standard_tableaux_count(check_partition(p))


@cache
def _standard_tableaux_count(p: Partition) -> int:
    """``standard_tableaux_count`` of a checked shape, memoised."""
    n = weight(p)
    count = factorial(n)
    for h in hooks(p):
        count //= h
    return count


def parse_partition(text: str) -> Partition:
    """Parse the CLI syntax ``[4,4,2,1]``; ``[]`` is the empty partition."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"partition must look like [4,2,1], got {text!r}")
    body = s[1:-1].strip()
    if not body:
        return ()
    try:
        parts = tuple(int(x) for x in body.split(","))
    except ValueError:
        raise ValueError(f"partition must contain integers, got {text!r}") from None
    return check_partition(parts)


def format_partition(p: Partition) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"
