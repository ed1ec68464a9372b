"""Corner-move walks on partitions, their enumeration, and the bijection
onto pairs (partial standard tableau, decreasing-cycle permutation).

A walk of length k on partitions of n steps from each shape to the next
either by moving one corner to a different position, or by staying put
while distinguishing a corner other than the first corner.  The number
of such walks from the one-row shape equals a Kronecker-power
multiplicity, so exhaustive and transfer-matrix counts here cross-check
the operator and character routes.

Walk counts from a shape mu are memoised in ``_endpoints`` per ``(mu, k)``,
one vector over all final shapes, by the rule of ``_memo.iterate``.  Each
transfer-matrix step reads the cached step table of the shapes in hand,
so a count touches only the shapes its walks reach, never every
partition of n.  The listing steps the vectors it prunes by in a local
list and leaves the memo as it was.

When the first row stays long enough (n >= k + second part of the final
shape, ``partitions.bijection_regime_ok``) the walks biject with pairs
(T, pi), read off the walk itself: row r >= 2 of each shape is row r - 1
of the partial tableau T, so step i RSK-deletes the corner of a row it
lowers and writes i at the end of a row it raises (a stay does both on
its marked row).  pi is built cycle by cycle: step i opens the cycle (i),
and a step that RSK-deletes a corner, ejecting the label j, puts i at the
head of j's cycle.  Each label of T heads its cycle, which
is what lets ``from_pair`` unwind pi by cycle heads, from k down.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cache

from ._memo import iterate
from ._record import Record
from .partitions import (
    Cell,
    Partition,
    check_count,
    check_partition,
    check_same_weight,
    format_partition,
    parse_partition,
    bijection_regime_ok,
    weight,
)
from .symfunc import SchurSum


class EnumerationLimitError(RuntimeError):
    """Raised when a listing, or an input, would exceed its configured cap."""


class BijectionError(ValueError):
    """Invariant-violating input to the walk/pair correspondence."""


# ---------------------------------------------------------------------------
# walk objects


class KroneckerTableau(Record):
    """Walk of equal-weight shapes; marks sit on the stay steps."""

    __slots__ = ("shapes", "marks")  # tuple[Partition, ...], tuple[Cell | None, ...]

    def __post_init__(self):
        if len(self.marks) != len(self.shapes) - 1:
            raise ValueError("need exactly one mark slot per step")
        check_partition(self.shapes[0])
        steps = zip(self.shapes, self.shapes[1:], self.marks)
        for idx, (p, q, mark) in enumerate(steps, 1):
            if (q, mark) in _steps(p):
                continue
            if q == p:
                raise ValueError(
                    f"stay at step {idx} needs a distinguished non-first corner"
                )
            if mark is not None and (q, None) in _steps(p):
                raise ValueError(f"move at step {idx} cannot carry a mark")
            raise ValueError(f"step {idx} is not a corner move")

    @property
    def length(self) -> int:
        return len(self.shapes) - 1

    @property
    def initial(self) -> Partition:
        return self.shapes[0]

    @property
    def final(self) -> Partition:
        return self.shapes[-1]


# ---------------------------------------------------------------------------
# successor structure and counting


@cache
def _steps(p: Partition) -> tuple[tuple[Partition, Cell | None], ...]:
    """The legal steps from the partition p as (next shape, mark): corner
    moves to a different shape (canonical order of the results), then a
    stay marked with each corner other than the first corner, top row
    first.  A move lowers a row i that ends in a corner and adds a cell
    to a row j != i with room for it, or to a new row unless that puts
    the corner back; no two moves are the same shape.  A move with j < i
    comes before p in canonical order and one with j > i after it; those
    with j < i come by j ascending, then i descending, and those with
    j > i by i descending, then j ascending, so the moves are built in
    order with no sort.  The first corner ends the lowest corner row.
    Shared, so callers only read it."""
    rows = len(p)
    padded = p + (0,)
    ends = [i for i in range(rows - 1, -1, -1) if p[i] > padded[i + 1]]  # corner rows, top first
    room = [j for j in range(rows + 1) if j == 0 or padded[j] < p[j - 1]]
    moves = []
    for j in room:
        for i in ends:
            if i <= j:
                break
            # a corner of length 1 is on the last row, which then goes
            lowered = (p[i] - 1,) if p[i] > 1 else ()
            moves.append((p[:j] + (p[j] + 1,) + p[j + 1 : i] + lowered + p[i + 1 :], None))
    for i in ends:
        for j in room:
            # row i + 1 is always in room, but a cell added there must
            # leave it no longer than the lowered row i (so a new row
            # never follows a lowered row of 1: that puts the corner back)
            if j > i + 1 or (j == i + 1 and padded[j] < p[i] - 1):
                q = p[:i] + (p[i] - 1,) + p[i + 1 : j] + (padded[j] + 1,) + p[j + 1 :]
                moves.append((q, None))
    return tuple(moves) + tuple((p, (i + 1, p[i])) for i in ends[:-1])


# (mu, k) -> {final shape: number of length-k walks from mu}; only read
_endpoints: dict[tuple[Partition, int], dict[Partition, int]] = {}


def _walk_endpoints(mu: Partition, k: int) -> dict[Partition, int]:
    """Number of length-k walks from mu to every shape they reach, by
    transfer-matrix steps over ``_steps`` (``_memo.iterate``).  The
    returned dict is shared, so callers only read it."""
    if not _steps(mu) and check_count(k):
        return {}  # n <= 1: no walk has a step; from n = 2 on none dies
    return iterate(_endpoints, mu, {mu: 1}, _step, k)


def _step(vec: dict[Partition, int]) -> dict[Partition, int]:
    """One transfer-matrix step over ``_steps``: the counts of walks one
    step longer, per final shape."""
    nxt: dict[Partition, int] = {}
    for p, c in vec.items():
        for q, _mark in _steps(p):
            nxt[q] = nxt.get(q, 0) + c
    return nxt


def walk_counts(mu: Partition, k: int) -> SchurSum:
    """Numbers of length-k walks from mu, as a Schur sum over final shapes.

    From the one-row shape (n) this is the k-th Kronecker power of the
    (n-1,1) irreducible, from a single transfer-matrix propagation."""
    mu = check_partition(mu)
    return SchurSum(weight(mu), _walk_endpoints(mu, k))


def count_kronecker_tableaux(mu: Partition, lam: Partition, k: int) -> int:
    """Number of length-k walks from mu to lam, by k transfer-matrix steps."""
    _, (mu, lam) = check_same_weight(mu, lam)
    return _walk_endpoints(mu, k).get(lam, 0)


def list_kronecker_tableaux(
    mu: Partition, lam: Partition, k: int, limit: int | None = None
) -> list[KroneckerTableau]:
    """Exhaustive listing in deterministic DFS order.

    A walk only continues from a shape that reaches lam in the steps left;
    the steps are symmetric, so those shapes are the ends of the walks from
    lam of that length.  Raises EnumerationLimitError as soon as more than
    ``limit`` walks would be produced."""
    _, (mu, lam) = check_same_weight(mu, lam)
    k = check_count(k)
    if limit is not None:
        limit = check_count(limit, "limit")
    # reach[d]: the shapes with a walk of length d to lam; stepped here, so
    # the shared memo is left as it was
    reach = [{lam: 1}]
    for _ in range(k):
        reach.append(_step(reach[-1]))
    found: list[KroneckerTableau] = []
    walk: list[tuple[Partition, Cell | None]] = []  # (shape, mark) per depth
    pending = [iter(((mu, None),))]  # pending[d] yields the choices for walk[d]
    while pending:
        depth = len(pending) - 1
        del walk[depth:]
        step = next(pending[-1], None)
        if step is None:
            pending.pop()
        elif step[0] not in reach[k - depth]:
            continue
        elif depth < k:
            walk.append(step)
            pending.append(iter(_steps(step[0])))
        elif limit is not None and len(found) >= limit:
            raise EnumerationLimitError(f"more than {limit} walks from {mu} to {lam}")
        else:
            shapes, marks = zip(*walk, step)
            found.append(KroneckerTableau(shapes, marks[1:]))
    return found


# ---------------------------------------------------------------------------
# partial standard tableaux and RSK


class PartialStandardTableau(Record):
    """Distinct integer labels increasing along rows and up columns;
    rows[0] is the bottom (longest) row."""

    __slots__ = ("rows",)  # tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for i, row in enumerate(self.rows):
            if not row:
                raise ValueError("empty row")
            if i and len(row) > len(self.rows[i - 1]):
                raise ValueError("row lengths must weakly decrease upward")
            for j, x in enumerate(row):
                if not isinstance(x, int) or x < 1 or x in seen:
                    raise ValueError(f"bad label {x!r}")
                seen.add(x)
                if j and row[j - 1] >= x:
                    raise ValueError("rows must increase left to right")
                if i and j < len(self.rows[i - 1]) and self.rows[i - 1][j] >= x:
                    raise ValueError("columns must increase bottom to top")

    @property
    def shape(self) -> Partition:
        return tuple(len(r) for r in self.rows)

    @property
    def labels(self) -> frozenset[int]:
        return frozenset(x for row in self.rows for x in row)

    def find(self, label: int) -> Cell:
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if x == label:
                    return (i + 1, j + 1)
        raise KeyError(label)

    @staticmethod
    def empty() -> "PartialStandardTableau":
        return PartialStandardTableau(())


def rsk_insert(T: PartialStandardTableau, x: int) -> PartialStandardTableau:
    """Row-bump x into the bottom row; adds exactly one corner."""
    if x in T.labels:
        raise ValueError(f"label {x} already present")
    rows = [list(r) for r in T.rows]
    val, r = x, 0
    while True:
        if r == len(rows):
            rows.append([val])
            break
        j = bisect_right(rows[r], val)
        if j == len(rows[r]):
            rows[r].append(val)
            break
        rows[r][j], val = val, rows[r][j]
        r += 1
    return PartialStandardTableau(tuple(tuple(r) for r in rows))


def rsk_delete(
    T: PartialStandardTableau, c: Cell
) -> tuple[PartialStandardTableau, int]:
    """Remove the corner c, bumping downward; returns the new tableau and
    the label ejected from the bottom row.  Exact inverse of rsk_insert."""
    shape, row = T.shape, c[0]
    # a corner ends its row, and the row above it, if any, is shorter
    if not 0 < row <= len(shape) or c != (row, shape[row - 1]) or shape[row : row + 1] == c[1:]:
        raise ValueError(f"{c} is not a corner of shape {shape}")
    rows = [list(r) for r in T.rows]
    val = rows[c[0] - 1].pop()
    if not rows[c[0] - 1]:
        rows.pop()
    for r in range(c[0] - 2, -1, -1):
        j = bisect_left(rows[r], val) - 1
        rows[r][j], val = val, rows[r][j]
    return PartialStandardTableau(tuple(tuple(r) for r in rows)), val


# ---------------------------------------------------------------------------
# decreasing-cycle permutations


class DecCyclePermutation(Record):
    """Permutation whose nontrivial cycles, written greatest element
    first, strictly decrease; stored as cycles sorted by greatest element."""

    __slots__ = ("cycles",)  # tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        prev_max = 0
        for cyc in self.cycles:
            if not cyc:
                raise ValueError("empty cycle")
            for x in cyc:
                if not isinstance(x, int) or x < 1:
                    raise ValueError(f"bad element {x!r}")
            if cyc[0] <= prev_max:
                raise ValueError("cycles must be sorted by greatest element")
            prev_max = cyc[0]
            for a, b in zip(cyc, cyc[1:]):
                if b >= a:
                    raise ValueError(f"cycle {cyc} is not decreasing")
            if seen & set(cyc):
                raise ValueError("cycles must be disjoint")
            seen.update(cyc)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(x for cyc in self.cycles for x in cyc)

    @property
    def fixed_points(self) -> frozenset[int]:
        return frozenset(c[0] for c in self.cycles if len(c) == 1)

    @property
    def cycle_maxima(self) -> frozenset[int]:
        return frozenset(c[0] for c in self.cycles)

    def __str__(self) -> str:
        return "".join("(" + ",".join(map(str, c)) + ")" for c in self.cycles)


# ---------------------------------------------------------------------------
# the walk <-> pair correspondence


def to_pair(
    K: KroneckerTableau, n: int, k: int, require_regime: bool = True
) -> tuple[PartialStandardTableau, DecCyclePermutation]:
    """Encode a walk started at (n) as a pair (T, pi).

    Row r >= 2 of each shape of the walk is row r - 1 of T.  Step i opens
    the cycle (i).  If it lowers a row r >= 2, it RSK-deletes the corner
    (r - 1, p_r) of T, and i goes to the head of the cycle of the ejected
    label j.  Then, if it raises a row r >= 2, it writes i at the end of
    row r - 1 of T (a stay lowers and raises its marked row).  Each label
    of T heads its cycle and i exceeds them all, so j's cycle is keyed by
    j and i heads the joined cycle; the cycles are built by increasing
    head.

    Outside the regime n >= k + second part of the final shape the
    encoding may still run (pass require_regime=False to attempt it), but
    it is only a bijection inside it.
    """
    n, k = check_count(n, "n"), check_count(k)
    if K.shapes[0] != (n,):
        raise ValueError("walk must start at the one-row shape (n)")
    if K.length != k:
        raise ValueError(f"walk has length {K.length}, expected {k}")
    if require_regime and not bijection_regime_ok(n, k, K.final):
        raise BijectionError(
            f"n={n} < k + second part of {K.final}; pass require_regime=False "
            "to strip anyway"
        )
    T = PartialStandardTableau.empty()
    cycles: dict[int, tuple[int, ...]] = {}  # head (greatest element) -> cycle
    steps = zip(K.shapes, K.shapes[1:], K.marks)
    for i, (p, q, mark) in enumerate(steps, 1):
        # the rows lowered and raised, 0-based in the walk so 1-based in T
        if mark is None:
            # a move lowers one row and raises another, adding at most a row
            rise = [b - a for a, b in zip(p + (0,), q + (0,))]
            lowered, raised = rise.index(-1), rise.index(1)
        else:
            # never the walk's row 1: its corner is always the first corner
            lowered = raised = mark[0] - 1
        cycles[i] = (i,)
        if lowered:
            T, j = rsk_delete(T, (lowered, p[lowered]))  # every label of T is below i
            cycles[i] += cycles.pop(j)
        if raised:
            rows = [*T.rows, ()]
            rows[raised - 1] += (i,)
            T = PartialStandardTableau(tuple(filter(None, rows)))
    return T, DecCyclePermutation(tuple(cycles.values()))


def from_pair(
    T: PartialStandardTableau,
    pi: DecCyclePermutation,
    n: int,
    k: int,
    require_regime: bool = True,
) -> KroneckerTableau:
    """Rebuild the walk from a pair (T, pi); exact inverse of to_pair.

    to_pair run backwards: for i from k down to 1, every label of T and
    every element left in pi is at most i, so a label i is the largest
    and sits on a corner, the cell step i filled; erase it.  And i heads
    its cycle: pop that cycle.  If more is left, step i vacated a corner
    and ejected the next element j; the rest of the cycle is keyed by j,
    which heads it again, and RSK-inserting j re-creates that corner.  The
    step was a stay, marked at the erased cell, exactly when the shape
    comes back.  Each shape of T is then put under a first row of
    n - |T| cells.
    """
    n, k = check_count(n, "n"), check_count(k)
    support = frozenset(range(1, k + 1))
    if pi.support != support:
        raise BijectionError(f"pi must be a permutation of 1..{k}")
    if not T.labels <= support:
        raise BijectionError("tableau labels must lie in 1..k")
    if not pi.fixed_points <= T.labels:
        raise BijectionError("every fixed point must label a cell")
    if not T.labels <= pi.cycle_maxima:
        raise BijectionError("every label must be the greatest of its cycle")

    cycles = {cyc[0]: cyc for cyc in pi.cycles}
    shapes: list[Partition] = [T.shape]  # shapes of T, from step k down
    marks: list[Cell | None] = []
    for i in range(k, 0, -1):
        filled = T.find(i) if i in T.labels else None
        if filled is not None:
            rows = (tuple(x for x in row if x != i) for row in T.rows)
            T = PartialStandardTableau(tuple(filter(None, rows)))
        rest = cycles.pop(i)[1:]
        if rest:
            cycles[rest[0]] = rest
            T = rsk_insert(T, rest[0])
        # a fixed point labels a cell, so a shape that comes back has one
        marks.append((filled[0] + 1, filled[1]) if T.shape == shapes[-1] else None)
        shapes.append(T.shape)
    walk = []
    for s in reversed(shapes):
        first = n - weight(s)
        if first < (s[0] if s else 0):
            raise ValueError(f"n={n} too small to extend {s} by a first row")
        walk.append((first,) + s)
    K = KroneckerTableau(tuple(walk), tuple(reversed(marks)))
    if require_regime and not bijection_regime_ok(n, k, K.final):
        raise BijectionError(f"n={n} < k + second part of {K.final}")
    return K


# ---------------------------------------------------------------------------
# textual walk format (one walk per line)


def format_walk(K: KroneckerTableau) -> str:
    """Bracketed shapes separated by spaces; stays carry ``*row:col``."""
    bits = [format_partition(K.shapes[0])]
    for shape, mark in zip(K.shapes[1:], K.marks):
        s = format_partition(shape)
        if mark is not None:
            s += f"*{mark[0]}:{mark[1]}"
        bits.append(s)
    return " ".join(bits)


def parse_walk(line: str) -> KroneckerTableau:
    shapes: list[Partition] = []
    marks: list[Cell | None] = []
    tokens = line.split()
    if not tokens:
        raise ValueError("empty walk line")
    for idx, tok in enumerate(tokens):
        if "*" in tok:
            body, _, suffix = tok.partition("*")
            try:
                row, col = (int(x) for x in suffix.split(":"))
            except ValueError:
                raise ValueError(f"bad mark suffix in {tok!r}") from None
            mark = (row, col)
        else:
            body, mark = tok, None
        shapes.append(parse_partition(body))
        if idx == 0 and mark is not None:
            raise ValueError("initial shape cannot carry a mark")
        marks.append(mark)
    return KroneckerTableau(tuple(shapes), tuple(marks[1:]))
