"""Corner-move walks on partitions, their enumeration, and the bijection
onto pairs (partial standard tableau, decreasing-cycle permutation).

A walk of length k on partitions of n steps from each shape to the next
either by moving one corner to a different position, or by staying put
while distinguishing a corner other than the first corner.  The number
of such walks from the one-row shape equals a Kronecker-power
multiplicity, so exhaustive and transfer-matrix counts here cross-check
the operator and character routes.

Walk counts from a shape mu are memoised in ``_endpoints`` per ``(mu, k)``,
one vector over all final shapes, and carried forward from the longest
walks from mu already counted.  The stored vectors are shared, so callers
only read them.

When the first row stays long enough (n >= k + second part of the final
shape) the walks biject with shorter walks started at the empty shape,
and from there with pairs (T, pi) via RSK insertion and deletion.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache

from .partitions import (
    Cell,
    Partition,
    canonical_sort,
    check_partition,
    corners,
    partitions_of,
    remove_corner,
    add_corner_positions,
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


@dataclass(frozen=True)
class KroneckerTableau:
    """Walk of equal-weight shapes; marks sit on the stay steps."""

    shapes: tuple[Partition, ...]
    marks: tuple[Cell | None, ...]

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


@dataclass(frozen=True)
class ReducedWalk:
    """Walk from the empty shape whose steps add, remove or move a corner,
    or stay with one distinguished corner."""

    shapes: tuple[Partition, ...]
    marks: tuple[Cell | None, ...]

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
    stay marked with each corner other than the first corner.  Shared, so
    callers only read it."""
    cs = corners(p)
    moves = {
        q
        for c in cs.corners
        for q in add_corner_positions(remove_corner(p, c))
        if q != p
    }
    return tuple((q, None) for q in canonical_sort(moves)) + tuple(
        (p, c) for c in cs.corners if c != cs.first_corner
    )


def successors(p: Partition) -> list[tuple[Partition, Cell | None]]:
    """Legal next steps from p: corner moves first (canonical order of the
    results), then one stay per corner other than the first corner."""
    return list(_steps(check_partition(p)))


@cache
def _transition_map(n: int) -> dict[Partition, tuple[tuple[Partition, int], ...]]:
    table = {}
    for p in partitions_of(n):
        mults: dict[Partition, int] = {}
        for q, _mark in _steps(p):
            mults[q] = mults.get(q, 0) + 1
        table[p] = tuple(sorted(mults.items(), reverse=True))
    return table


# (mu, k) -> {final shape: number of length-k walks from mu}; only read
_endpoints: dict[tuple[Partition, int], dict[Partition, int]] = {}


def _walk_endpoints(mu: Partition, k: int) -> dict[Partition, int]:
    """Number of length-k walks from mu to every shape they reach, by
    transfer-matrix steps from the longest walks from mu already counted.
    The returned dict is shared, so callers only read it."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    table = _transition_map(weight(mu))
    if k and not table[mu]:
        return {}  # n <= 1: no walk has a step; from n = 2 on none dies
    for done in range(k, 0, -1):
        if (vec := _endpoints.get((mu, done))) is not None:
            break
    else:
        done, vec = 0, {mu: 1}
    for _ in range(k - done):
        nxt: dict[Partition, int] = {}
        for p, c in vec.items():
            for q, m in table[p]:
                nxt[q] = nxt.get(q, 0) + c * m
        vec = nxt
    _endpoints[mu, k] = vec
    return vec


def walk_counts(mu: Partition, k: int) -> SchurSum:
    """Numbers of length-k walks from mu, as a Schur sum over final shapes.

    From the one-row shape (n) this is the k-th Kronecker power of the
    (n-1,1) irreducible, from a single transfer-matrix propagation."""
    mu = check_partition(mu)
    return SchurSum(weight(mu), _walk_endpoints(mu, k))


def count_kronecker_tableaux(mu: Partition, lam: Partition, k: int) -> int:
    """Number of length-k walks from mu to lam, by k transfer-matrix steps."""
    mu, lam = check_partition(mu), check_partition(lam)
    if weight(mu) != weight(lam):
        raise ValueError("equal weights required")
    return _walk_endpoints(mu, k).get(lam, 0)


def list_kronecker_tableaux(
    mu: Partition, lam: Partition, k: int, limit: int | None = None
) -> list[KroneckerTableau]:
    """Exhaustive listing in deterministic DFS order.

    Raises EnumerationLimitError as soon as more than ``limit`` walks
    would be produced."""
    mu, lam = check_partition(mu), check_partition(lam)
    if weight(mu) != weight(lam):
        raise ValueError("equal weights required")
    if k < 0:
        raise ValueError("k must be nonnegative")
    found: list[KroneckerTableau] = []
    shapes: list[Partition] = [mu]
    marks: list[Cell | None] = []

    def dfs(depth: int) -> None:
        if depth == k:
            if shapes[-1] == lam:
                if limit is not None and len(found) >= limit:
                    raise EnumerationLimitError(
                        f"more than {limit} walks from {mu} to {lam}"
                    )
                found.append(KroneckerTableau(tuple(shapes), tuple(marks)))
            return
        for q, mark in _steps(shapes[-1]):
            shapes.append(q)
            marks.append(mark)
            dfs(depth + 1)
            shapes.pop()
            marks.pop()

    dfs(0)
    return found


# ---------------------------------------------------------------------------
# first-row stripping


def bijection_regime_ok(n: int, k: int, lam: Partition) -> bool:
    """Whether the pair correspondence is guaranteed for final shape lam."""
    second = lam[1] if len(lam) > 1 else 0
    return n >= k + second


def strip_first_row(
    K: KroneckerTableau, n: int, k: int, require_regime: bool = True
) -> ReducedWalk:
    """Drop the first row of every shape of a walk started at (n).

    Outside the guaranteed regime the mechanical stripping may still
    succeed (pass require_regime=False to attempt it), but it is only a
    bijection when n >= k + second part of the final shape."""
    if K.shapes[0] != (n,):
        raise ValueError("walk must start at the one-row shape (n)")
    if K.length != k:
        raise ValueError(f"walk has length {K.length}, expected {k}")
    if require_regime and not bijection_regime_ok(n, k, K.final):
        raise BijectionError(
            f"n={n} < k + second part of {K.final}; pass require_regime=False "
            "to strip anyway"
        )
    shapes = tuple(s[1:] for s in K.shapes)
    marks: list[Cell | None] = []
    for mark in K.marks:
        if mark is None:
            marks.append(None)
        else:
            row, col = mark
            if row < 2:
                raise BijectionError(f"mark {mark} sits on the first row")
            marks.append((row - 1, col))
    return ReducedWalk(shapes, tuple(marks))


def unstrip(w: ReducedWalk, n: int) -> KroneckerTableau:
    """Prepend a first row of length n - |shape| to every shape of w."""
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


@dataclass(frozen=True)
class PartialStandardTableau:
    """Distinct integer labels increasing along rows and up columns;
    rows[0] is the bottom (longest) row."""

    rows: tuple[tuple[int, ...], ...]

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


@dataclass(frozen=True)
class DecCyclePermutation:
    """Permutation whose nontrivial cycles, written greatest element
    first, strictly decrease; stored as cycles sorted by greatest element."""

    cycles: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        prev_max = 0
        for cyc in self.cycles:
            if not cyc:
                raise ValueError("empty cycle")
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

    def to_mapping(self, k: int) -> list[int]:
        """Image array indexed 1..k (index 0 unused)."""
        if self.support != frozenset(range(1, k + 1)):
            raise ValueError(f"not a permutation of 1..{k}")
        out = list(range(k + 1))
        for cyc in self.cycles:
            for a, b in zip(cyc, cyc[1:]):
                out[a] = b
            out[cyc[-1]] = cyc[0]
        return out

    @classmethod
    def from_mapping(cls, mapping: list[int]) -> "DecCyclePermutation":
        """Build from an image array (index 0 ignored); rejects mappings
        with a non-decreasing cycle."""
        k = len(mapping) - 1
        seen = set()
        cycles = []
        for start in range(1, k + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = mapping[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = mapping[x]
            top = cyc.index(max(cyc))
            cycles.append(tuple(cyc[top:] + cyc[:top]))
        return cls(tuple(sorted(cycles)))

    def __str__(self) -> str:
        return "".join("(" + ",".join(map(str, c)) + ")" for c in self.cycles)


# ---------------------------------------------------------------------------
# the walk <-> pair correspondence


def to_pair(
    K: KroneckerTableau, n: int, k: int, require_regime: bool = True
) -> tuple[PartialStandardTableau, DecCyclePermutation]:
    """Encode a walk started at (n) as a pair (T, pi).

    Walk the stripped shapes; step i RSK-deletes the corner it vacates,
    if any, and records the transposition (i, ejected label), then writes
    i into the cell it fills, if any (a stay vacates and refills its
    marked corner)."""
    walk = strip_first_row(K, n, k, require_regime)
    T = PartialStandardTableau.empty()
    pi = list(range(k + 1))
    inv = list(range(k + 1))

    def transpose(i: int, j: int) -> None:
        if i <= j:
            raise AssertionError(f"transposition ({i},{j}) must have i > j")
        xi, xj = inv[i], inv[j]
        pi[xi], pi[xj] = j, i
        inv[i], inv[j] = xj, xi

    steps = zip(walk.shapes, walk.shapes[1:], walk.marks)
    for i, step in enumerate(steps, 1):
        vacated, filled = _step_cells(*step)
        if vacated is not None:
            T, j = rsk_delete(T, vacated)
            transpose(i, j)
        if filled is not None:
            T = _place_label(T, filled, i)
    return T, DecCyclePermutation.from_mapping(pi)


def from_pair(
    T: PartialStandardTableau,
    pi: DecCyclePermutation,
    n: int,
    k: int,
    require_regime: bool = True,
) -> KroneckerTableau:
    """Rebuild the walk from a pair (T, pi); exact inverse of to_pair.

    Processing steps downward, a step whose index labels a corner of the
    current tableau is undone by deleting that corner, and when the
    permutation pairs the index with an earlier ejected label the label
    is RSK-inserted back (re-creating the corner it once left); an index
    absent from the tableau was a pure shrink, undone by insertion alone.
    """
    support = frozenset(range(1, k + 1))
    if pi.support != support:
        raise BijectionError(f"pi must be a permutation of 1..{k}")
    if not T.labels <= support:
        raise BijectionError("tableau labels must lie in 1..k")
    if not pi.fixed_points <= T.labels:
        raise BijectionError("every fixed point must label a cell")
    if not T.labels <= pi.cycle_maxima:
        raise BijectionError("every label must be the greatest of its cycle")

    mapping = pi.to_mapping(k)
    inv = [0] * (k + 1)
    for x in range(1, k + 1):
        inv[mapping[x]] = x

    def untranspose(i: int, j: int) -> None:
        xi, xj = inv[i], inv[j]
        mapping[xi], mapping[xj] = j, i
        inv[i], inv[j] = xj, xi

    shapes: list[Partition] = [T.shape]
    marks: list[Cell | None] = []
    cur = T
    for i in range(k, 0, -1):
        if i in cur.labels:
            cell = cur.find(i)
            if cell not in corners(cur.shape).corners:
                raise BijectionError(f"label {i} does not sit on a corner")
            rows = [list(r) for r in cur.rows]
            rows[cell[0] - 1].pop()
            if not rows[cell[0] - 1]:
                rows.pop()
            trimmed = PartialStandardTableau(tuple(tuple(r) for r in rows))
            j = mapping[i]
            if j < i:
                untranspose(i, j)
                nxt = rsk_insert(trimmed, j)
                if nxt.shape == cur.shape:
                    marks.append(cell)  # corner deleted and re-created: a stay
                else:
                    marks.append(None)
            elif j == i:
                nxt = trimmed
                marks.append(None)
            else:
                raise BijectionError(f"pi({i}) = {j} > {i} is inconsistent")
        else:
            j = mapping[i]
            if j >= i:
                raise BijectionError(
                    f"index {i} neither labels a cell nor maps below itself"
                )
            untranspose(i, j)
            nxt = rsk_insert(cur, j)
            marks.append(None)
        shapes.append(nxt.shape)
        cur = nxt
    if cur.labels or any(mapping[x] != x for x in range(1, k + 1)):
        raise BijectionError("leftover labels or transpositions; invalid pair")
    walk = ReducedWalk(tuple(reversed(shapes)), tuple(reversed(marks)))
    K = unstrip(walk, n)
    if require_regime and not bijection_regime_ok(n, k, K.final):
        raise BijectionError(f"n={n} < k + second part of {K.final}")
    return K


# ---------------------------------------------------------------------------
# textual walk format (one walk per line)


def format_walk(K: KroneckerTableau) -> str:
    """Bracketed shapes separated by spaces; stays carry ``*row:col``."""
    bits = ["[" + ",".join(map(str, K.shapes[0])) + "]"]
    for shape, mark in zip(K.shapes[1:], K.marks):
        s = "[" + ",".join(map(str, shape)) + "]"
        if mark is not None:
            s += f"*{mark[0]}:{mark[1]}"
        bits.append(s)
    return " ".join(bits)


def parse_walk(line: str) -> KroneckerTableau:
    from .partitions import parse_partition

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
        shape = parse_partition(body)
        if idx == 0:
            if mark is not None:
                raise ValueError("initial shape cannot carry a mark")
            shapes.append(shape)
        else:
            shapes.append(shape)
            marks.append(mark)
    return KroneckerTableau(tuple(shapes), tuple(marks))
