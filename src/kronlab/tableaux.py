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
shape, ``partitions.bijection_regime_ok``) the walks biject with shorter
walks started at the empty shape, and from there with pairs (T, pi) via
RSK insertion and deletion.  pi is built cycle by cycle: step i opens the
cycle (i), and a step that RSK-deletes a corner, ejecting the label j,
puts i at the head of j's cycle.  Each label of T heads its cycle, which
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
    canonical_sort,
    check_count,
    check_partition,
    check_same_weight,
    corners,
    format_partition,
    parse_partition,
    add_corner_positions,
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


def _step_cells(
    p: Partition, q: Partition, mark: Cell | None
) -> tuple[Cell | None, Cell | None]:
    """The corner a reduced-walk step from p to q vacates and the cell it
    fills: an add vacates nothing, a remove fills nothing, a move does both
    and a stay vacates and refills its marked corner.  Raises ValueError
    for any other step."""
    if p == q:
        if mark not in corners(p).corners:
            raise ValueError(f"stay at {p} needs a corner mark, not {mark}")
        return mark, mark
    rows = max(len(p), len(q))
    pp, qq = p + (0,) * (rows - len(p)), q + (0,) * (rows - len(q))
    deltas = {i: qq[i] - pp[i] for i in range(rows) if qq[i] != pp[i]}
    if mark is not None or sorted(deltas.values()) not in ([-1], [1], [-1, 1]):
        raise ValueError(f"illegal step {p} -> {q} with mark {mark}")
    check_partition(q)
    vacated = next(((i + 1, pp[i]) for i, d in deltas.items() if d < 0), None)
    filled = next(((i + 1, qq[i]) for i, d in deltas.items() if d > 0), None)
    return vacated, filled


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


class ReducedWalk(Record):
    """Walk from the empty shape whose steps add, remove or move a corner,
    or stay with one distinguished corner."""

    __slots__ = ("shapes", "marks")  # tuple[Partition, ...], tuple[Cell | None, ...]

    def __post_init__(self):
        if len(self.marks) != len(self.shapes) - 1:
            raise ValueError("need exactly one mark slot per step")
        if self.shapes[0] != ():
            raise ValueError("reduced walks start at the empty shape")
        for step in zip(self.shapes, self.shapes[1:], self.marks):
            _step_cells(*step)

    @property
    def length(self) -> int:
        return len(self.shapes) - 1


# ---------------------------------------------------------------------------
# successor structure and counting


@cache
def _steps(p: Partition) -> tuple[tuple[Partition, Cell | None], ...]:
    """The legal steps from the partition p as (next shape, mark): corner
    moves to a different shape (canonical order of the results), then a
    stay marked with each corner other than the first corner, top row
    first.  The corners are found once, top row first, so the first
    corner, the lowest, comes last.  Each corner's row is lowered by one
    cell, and every cell that can then be added gives a move, except the
    one that puts the corner back; a move lowers one row and raises
    another, so no two are the same shape.  Shared, so callers only read
    it."""
    cells = corners(p).corners
    moves = []
    for row, col in cells:
        # a corner of length 1 is on the last row, which then goes
        smaller = p[: row - 1] + (col - 1,) + p[row:] if col > 1 else p[:-1]
        moves += [q for q in add_corner_positions(smaller) if q != p]
    return tuple((q, None) for q in canonical_sort(moves)) + tuple(
        (p, c) for c in cells[:-1]
    )


def successors(p: Partition) -> list[tuple[Partition, Cell | None]]:
    """Legal next steps from p: corner moves first (canonical order of the
    results), then one stay per corner other than the first corner."""
    return list(_steps(check_partition(p)))


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
# first-row stripping


def strip_first_row(
    K: KroneckerTableau, n: int, k: int, require_regime: bool = True
) -> ReducedWalk:
    """Drop the first row of every shape of a walk started at (n).

    Outside the guaranteed regime the mechanical stripping may still
    succeed (pass require_regime=False to attempt it), but it is only a
    bijection when n >= k + second part of the final shape."""
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
    # a stay never marks row 1: a row-1 corner is always the first corner
    marks = tuple(None if m is None else (m[0] - 1, m[1]) for m in K.marks)
    return ReducedWalk(tuple(s[1:] for s in K.shapes), marks)


def unstrip(w: ReducedWalk, n: int) -> KroneckerTableau:
    """Prepend a first row of length n - |shape| to every shape of w."""
    n = check_count(n, "n")
    shapes = []
    for s in w.shapes:
        first = n - weight(s)
        if first < (s[0] if s else 0):
            raise ValueError(f"n={n} too small to extend {s} by a first row")
        shapes.append((first,) + s)
    marks = tuple(
        None if m is None else (m[0] + 1, m[1]) for m in w.marks
    )
    return KroneckerTableau(tuple(shapes), marks)


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
    shape = T.shape
    if c not in corners(shape).corners:
        raise ValueError(f"{c} is not a corner of shape {shape}")
    rows = [list(r) for r in T.rows]
    val = rows[c[0] - 1].pop()
    if not rows[c[0] - 1]:
        rows.pop()
    for r in range(c[0] - 2, -1, -1):
        j = bisect_left(rows[r], val) - 1
        rows[r][j], val = val, rows[r][j]
    return PartialStandardTableau(tuple(tuple(r) for r in rows)), val


def _place_label(
    T: PartialStandardTableau, cell: Cell, label: int
) -> PartialStandardTableau:
    """Write ``label`` into the fresh corner ``cell``; the label must be
    larger than all of its neighbours (it always is a new maximum here)."""
    rows = [list(r) for r in T.rows]
    row, col = cell
    if row == len(rows) + 1 and col == 1:
        rows.append([label])
    elif 1 <= row <= len(rows) and col == len(rows[row - 1]) + 1:
        rows[row - 1].append(label)
    else:
        raise ValueError(f"{cell} is not an addable position")
    return PartialStandardTableau(tuple(tuple(r) for r in rows))


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

    Walk the stripped shapes; step i opens the cycle (i).  If it vacates a
    corner, it RSK-deletes that corner, and i goes to the head of the
    cycle of the ejected label j.  Then it writes i into the cell it fills,
    if any (a stay vacates and refills its marked corner).  Each label of
    T heads its cycle and i exceeds them all, so j's cycle is keyed by j
    and i heads the joined cycle; the cycles are built by increasing head.
    """
    walk = strip_first_row(K, n, k, require_regime)
    T = PartialStandardTableau.empty()
    cycles: dict[int, tuple[int, ...]] = {}  # head (greatest element) -> cycle
    steps = zip(walk.shapes, walk.shapes[1:], walk.marks)
    for i, step in enumerate(steps, 1):
        vacated, filled = _step_cells(*step)
        cycles[i] = (i,)
        if vacated is not None:
            T, j = rsk_delete(T, vacated)  # every label of T is below i
            cycles[i] += cycles.pop(j)
        if filled is not None:
            T = _place_label(T, filled, i)
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
    comes back.
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
    shapes: list[Partition] = [T.shape]
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
        marks.append(filled if T.shape == shapes[-1] else None)
        shapes.append(T.shape)
    walk = ReducedWalk(tuple(reversed(shapes)), tuple(reversed(marks)))
    K = unstrip(walk, n)
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
