"""Integer partitions and Ferrers-diagram geometry.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  Diagrams use the French
convention: row 1 is the bottom (longest) row, rows and columns are
1-based, and a cell is written (row, col).
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import factorial
from operator import index, le

Partition = tuple[int, ...]
Cell = tuple[int, int]


def is_partition(parts) -> bool:
    """True if ``parts`` is a weakly decreasing sequence of positive ints;
    a bool is not one, since ``(2, True)`` would share the key of ``(2, 1)``
    in every memo."""
    prev = None
    for p in parts:
        if type(p) is not int or p < 1 or (prev is not None and p > prev):
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


def checked_front(memo):
    """Decorator of a public function that checks its arguments and then
    reads ``memo``, its private ``functools.cache``: the function gets the
    memo's ``cache_info`` and ``cache_clear``, so the memo is counted and
    cleared under the public name while no call reaches it unchecked."""

    def expose(front):
        front.cache_info = memo.cache_info
        front.cache_clear = memo.cache_clear
        return front

    return expose


# typed, so 4.0 never finds the entry of 4 and always reaches the check
@lru_cache(maxsize=None, typed=True)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse lexicographic order, (n) first."""
    n = check_count(n, "n")
    return tuple(partitions_inside((n,) * n, n))


def partitions_inside(lam: Partition, d: int, floor: Partition = ()) -> list[Partition]:
    """The partitions of d <= |lam| contained in lam and containing
    ``floor`` (itself inside lam), in reverse lexicographic order.  They
    are built row by row with floor_i <= alpha_i <= min(alpha_(i-1), lam_i),
    and a row takes a part only if the rows after it can still take the
    rest: at least what the floor asks of them, and at most that part
    each and what lam holds there.  Once the rest is exactly what the
    floor asks, or all that lam holds, those rows are taken at once."""
    rows = len(lam)
    need = [0] * (rows + 1)  # need[i]: cells the floor asks of rows i, i+1, ...
    room = [0] * (rows + 1)  # room[i]: cells lam holds in rows i, i+1, ...
    for i in range(rows - 1, -1, -1):
        need[i] = need[i + 1] + (floor[i] if i < len(floor) else 0)
        room[i] = room[i + 1] + lam[i]
    out: list[Partition] = []
    if need[0] <= d <= room[0]:
        _fill(out, lam, floor, need, room, 0, d, d, ())
    return out


def _fill(
    out: list[Partition],
    lam: Partition,
    floor: Partition,
    need: list[int],
    room: list[int],
    i: int,
    left: int,
    cap: int,
    alpha: Partition,
) -> None:
    """Append to ``out`` the ``partitions_inside`` that extend alpha by
    rows i, i+1, ... with ``left`` cells, no part above cap."""
    if left == need[i]:
        out.append(alpha + floor[i:])  # the floor forces every row left
        return
    if left == room[i]:
        if cap >= lam[i]:
            out.append(alpha + lam[i:])  # so does lam, if it fits under cap
        return
    # the rows after i hold at most room[i + 1] cells, and at most part each
    low = max(floor[i] if i < len(floor) else 1, left - room[i + 1], -(-left // (len(lam) - i)))
    for part in range(min(left - need[i + 1], cap, lam[i]), low - 1, -1):
        _fill(out, lam, floor, need, room, i + 1, left - part, part, alpha + (part,))


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
