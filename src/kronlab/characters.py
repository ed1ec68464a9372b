"""Irreducible characters of the symmetric group and the character-table
route to Kronecker coefficients.

The character table is filled by columns.  Column mu holds the values of
every irreducible at the class of type mu, which are the coefficients of
the Schur expansion of the power sum p_mu.  Since p_mu = p_r * p_rest with
r = mu[0] and rest = mu[1:], column mu comes from the column of rest by
adding every border strip of size r to each of its shapes, with sign
(-1)^height (the Murnaghan-Nakayama rule read in the adding direction,
Macdonald I.7).  A shape is held as the bit mask of its beta-numbers,
one bead per row at bit lam_i + len(lam) - 1 - i: the abacus of
James-Kerber, Macdonald I.1 Ex. 8.  Adding a strip of size r moves one
bead from b up to an empty b + r, and the strip height is the number of
beads strictly between the two, one popcount.  Shapes are addressed by
their position in ``partitions_of``: a column is a dense list over the
partitions of its weight, and the strips of size r added to every shape
of weight w are memoised once per (w, r) as the positions they reach,
split by the parity of their height.  Multiplying a dense expansion by
p_r is then one loop of additions and subtractions with no lookup or
sign per entry, ``_add_times_p``, the one kernel of every dense
expansion here: the columns, and the class sums of the powers below.
Each column is memoised by its class; the suffixes of mu are built
shortest first, so no recursion depth grows with n, and a table of
weight n builds only the columns of the suffixes of its own classes (462
of the 915 partitions of weight at most 16 at n = 16).  Only traces are
ever needed, never matrices.

Each irreducible's values are one row of the table of its weight.
``character_table`` transposes the columns on each call and keeps no
rows; the products read the columns through the halves below, and the
powers read none.  The memos are the position of each bead mask, the
strip moves, the columns, the halves, and the class sums of the powers
(``_power_sums``); none holds a copy of another.  A single value is one
sweep over the parts of mu with the same bead moves, keeping only the
shapes that fit inside lam, so it expands no column and does not use the
dense kernel.  Every route is one exact inner product of rows: the sum
over classes of class size times the product of the values, divided by
n!.

A product is projected onto the irreducibles one conjugate pair at a
time.  The classes split by the parity of n - len(rho), the sign of a
permutation of type rho, and chi^alpha' = sign * chi^alpha (Macdonald
I.7): alpha' has alpha's values on the even classes and their negatives
on the odd ones.  With e and o the dot products of the weighted product
with alpha's values on the even and on the odd classes, alpha gets
(e + o)/n! and alpha' gets (e - o)/n!, so each pair costs one pass over
the classes.  The two halves come from the columns directly, once per n,
and a product never builds the full table.

The powers of chi^(n-1,1) skip the projection and the columns.  That row
is one less than the number of fixed points j of the class, so
<(chi^(n-1,1))^k, chi^alpha> = (1/n!) sum_j (j-1)^k W_alpha(j), where
W_alpha(j) sums class size times chi^alpha over the classes with j fixed
points (Macdonald I.7).  Summed over those classes, size times p is
C(n, j) p_1^j E_(n-j), with E_m the same sum over the classes of m with no
fixed point, and E_m follows the cycle-index recurrence (Macdonald I.2) by
the strips of every size r >= 2.  One memo per n, ``_power_sums``, holds
p_1^j E_(n-j) for j = 0..n, unscaled: E_n from entry 0 of every smaller
weight, and each j >= 1 by the strips of size 1 from entry j-1 of n-1.  It
builds no column of the table (0 of the 508 columns of weight up to 14),
and each power then costs one dot product of length n + 1 per
irreducible, with the weights C(n, j) (j-1)^k.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial, prod
from operator import index, mul

from ._record import Record
from .partitions import (
    Partition,
    check_same_weight,
    class_size,
    conjugate,
    contains,
    format_partition,
    partitions_of,
    weight,
)
from .symfunc import SchurSum


def _beads(lam: Partition) -> int:
    """The beta-numbers of lam as a bit mask: one bead per row, at bit
    lam_i + len(lam) - 1 - i (rows 0-based)."""
    top = len(lam) - 1
    return sum(1 << (part + top - i) for i, part in enumerate(lam))


def _shape(beads: int) -> Partition:
    """The partition whose bead mask is ``beads``: each bead's part is the
    number of empty positions below it."""
    parts = []
    while beads:
        low = beads & -beads
        parts.append(low.bit_length() - 1 - len(parts))
        beads ^= low
    return tuple(reversed(parts))


def _add_strips(beads: int, r: int) -> list[tuple[int, int]]:
    """Every border strip of size r added to the shape with bead mask
    ``beads``, as (bead mask of the new shape, height mod 2).

    r zero rows are added first (a strip adds at most r rows): the mask
    shifts up by r and the r low positions take a bead each.  A strip is
    then one bead moved from b up to an empty b + r, and its height is the
    number of beads strictly between the two.  Beads left on the low
    positions are zero rows again and are shifted back out."""
    padded = (beads << r) | ((1 << r) - 1)
    free = padded & ~(padded >> r)  # the beads b with b + r empty
    out = []
    while free:
        low = free & -free
        free ^= low
        up = low << r
        moved = padded ^ low ^ up
        zero_rows = (~moved & (moved + 1)).bit_length() - 1  # trailing beads
        out.append((moved >> zero_rows, (padded & (up - (low << 1))).bit_count() & 1))
    return out


@cache
def _bead_index(n: int) -> dict[int, int]:
    """Position of each partition of n in ``partitions_of(n)``, keyed by
    its bead mask; the keys run in that order."""
    return {_beads(lam): i for i, lam in enumerate(partitions_of(n))}


_Moves = tuple[tuple[int, ...], tuple[int, ...]]


@cache
def _strip_moves(w: int, r: int) -> tuple[_Moves, ...]:
    """For each partition of w, by index, its strips of size r as the
    indices of the new shapes in weight w + r: those of even height, then
    those of odd height.  Shared, so callers only read it."""
    index = _bead_index(w + r)
    table = []
    for beads in _bead_index(w):
        split: tuple[list[int], list[int]] = ([], [])
        for moved, odd in _add_strips(beads, r):
            split[odd].append(index[moved])
        table.append((tuple(split[0]), tuple(split[1])))
    return tuple(table)


def _add_times_p(out: list[int], vec: list[int], w: int, r: int, scale: int = 1) -> None:
    """Add scale * p_r * vec into ``out``, vec a dense Schur expansion over
    the partitions of w and ``out`` one over those of w + r: each shape's
    value goes to the shapes its strips of size r reach, added at even
    height and subtracted at odd height.  The one Murnaghan-Nakayama
    kernel of the dense routes."""
    for value, (even, odd) in zip(vec, _strip_moves(w, r)):
        if value:
            value *= scale
            for j in even:
                out[j] += value
            for j in odd:
                out[j] -= value


@cache
def _column(mu: Partition) -> list[int]:
    """Column mu of the character table: the Schur expansion of p_mu as a
    dense list over the partitions of its weight, made from the column of
    mu[1:] by the strips of size mu[0].  Shared, so callers only read it."""
    if not mu:
        return [1]
    for i in range(len(mu) - 1, 1, -1):
        _column(mu[i:])  # shortest suffix first: the recursion stays shallow
    r, rest = mu[0], mu[1:]
    w = weight(rest)
    col = [0] * len(partitions_of(w + r))
    _add_times_p(col, _column(rest), w, r)
    return col


def character_value(lam: Partition, mu: Partition) -> int:
    """Character of the irreducible indexed by lam at the class of type mu.

    The strips of mu's parts are added one part at a time; a shape outside
    lam never grows back inside it, so only the shapes inside lam are kept
    and no whole column is expanded.  Each (shape, r) comes up once, so the
    sweep adds strips unmemoised and leaves no strip moves behind."""
    _, (lam, mu) = check_same_weight(lam, mu)
    states = {0: 1}  # bead mask -> coefficient
    for r in mu:
        grown: dict[int, int] = {}
        for beads, coeff in states.items():
            for moved, odd in _add_strips(beads, r):
                grown[moved] = grown.get(moved, 0) + (-coeff if odd else coeff)
        states = {b: v for b, v in grown.items() if v and contains(lam, _shape(b))}
    return states.get(_beads(lam), 0)


def _average(total: int, order: int) -> int:
    """``total`` over the group order n!, which is a multiplicity and must
    divide exactly; a remainder signals a bug, not bad input, so it aborts
    loudly."""
    coeff, rem = divmod(total, order)
    if rem:
        raise ArithmeticError(f"non-integral multiplicity {total}/{order}")
    return coeff


_Half = tuple[tuple[int, ...], list[tuple[int, ...]]]


@cache
def _halves(n: int) -> tuple[_Half, _Half, list[tuple[Partition, Partition, int]]]:
    """The classes of n split by the parity of n - len(rho): for the even
    and then the odd classes, their sizes and every irreducible's values
    on them, by index in ``partitions_of(n)``; and each conjugate pair
    once, as (alpha, alpha', index of alpha), alpha the first of the two
    in that order.  Built from the columns, two half-size transposes, so
    the full table is not needed.  Shared, so callers only read it."""
    ps, index = partitions_of(n), _bead_index(n)
    halves = []
    for parity in (0, 1):
        classes = [j for j, rho in enumerate(ps) if (n - len(rho)) % 2 == parity]
        # n <= 1 has no odd class: every irreducible's odd values are ()
        values = list(zip(*[_column(ps[j]) for j in classes])) or [()] * len(ps)
        halves.append((tuple(class_size(ps[j]) for j in classes), values))
    pairs = []
    for i, alpha in enumerate(ps):
        conj = conjugate(alpha)
        if i <= index[_beads(conj)]:
            pairs.append((alpha, conj, i))
    return halves[0], halves[1], pairs


@cache
def _power_sums(n: int) -> tuple[tuple[int, ...], ...]:
    """For each irreducible alpha, in ``partitions_of(n)`` order, the
    coefficient of s_alpha in p_1^j E_(n-j) for j = 0..n, E_m the sum of
    |C_sigma| p_sigma over the classes sigma of m with no part 1.  Shared,
    so callers only read it.

    Entry 0 is E_n.  The cycle through the last point has length r >= 2
    and (n-1)!/(n-r)! choices, so E_n = sum_r (n-1)!/(n-r)! p_r E_(n-r)
    (Macdonald I.2), each p_r one pass of the strips of size r over entry 0
    of n-r.  Entry j >= 1 is p_1 times entry j-1 of n-1, one pass of the
    strips of size 1.  Entry n-1 is 0, as E_1 is."""
    if n == 0:
        return ((1,),)
    for w in range(1, n - 1):
        _power_sums(w)  # smallest first: the recursion stays shallow
    size = len(partitions_of(n))
    fixed_point_free = [0] * size
    for r in range(2, n + 1):
        ways = factorial(n - 1) // factorial(n - r)
        below = [row[0] for row in _power_sums(n - r)]
        _add_times_p(fixed_point_free, below, n - r, r, ways)
    chain = [fixed_point_free]
    for below in zip(*_power_sums(n - 1)):
        out = [0] * size
        _add_times_p(out, below, n - 1, 1)
        chain.append(out)
    return tuple(zip(*chain))


class CharacterTable(Record):
    """The n partitions in canonical order, naming both rows and columns,
    and values[row lam][col mu]."""

    __slots__ = ("n", "partitions", "values")

    def value(self, lam: Partition, mu: Partition) -> int:
        i = self.partitions.index(tuple(lam))
        j = self.partitions.index(tuple(mu))
        return self.values[i][j]

    def ascii_render(self) -> str:
        labels = [format_partition(p) for p in self.partitions]
        cells = [[str(v) for v in row] for row in self.values]
        widths = [
            max(len(labels[j]), max(len(cells[i][j]) for i in range(len(cells))))
            for j in range(len(labels))
        ]
        head = max(len(l) for l in labels)
        lines = [
            " " * head
            + "  "
            + "  ".join(labels[j].rjust(widths[j]) for j in range(len(labels)))
        ]
        for i, row in enumerate(cells):
            lines.append(
                labels[i].ljust(head)
                + "  "
                + "  ".join(row[j].rjust(widths[j]) for j in range(len(row)))
            )
        return "\n".join(lines)


def character_table(n: int) -> CharacterTable:
    """Full character table of the symmetric group on n letters."""
    if n < 1:
        raise ValueError("n must be positive")
    ps = partitions_of(n)
    return CharacterTable(n, ps, tuple(zip(*map(_column, ps))))


def kron_coefficient(lam: Partition, mu: Partition, alpha: Partition) -> int:
    """Multiplicity of the alpha-irreducible in the lam (x) mu product: the
    class-size-weighted product of the three rows, summed over the even
    and the odd classes of ``_halves``, over n!.  The full table is not
    built."""
    n, (lam, mu, alpha) = check_same_weight(lam, mu, alpha)
    index = _bead_index(n)
    rows = [index[_beads(p)] for p in (lam, mu, alpha)]
    total = 0
    for sizes, values in _halves(n)[:2]:
        total += sum(map(prod, zip(sizes, *(values[i] for i in rows))))
    return _average(total, factorial(n))


def kron_product_via_characters(lam: Partition, mu: Partition) -> SchurSum:
    """Schur expansion of the product character, via pointwise values.

    The class-size-weighted product is formed once on the even and once
    on the odd classes; each conjugate pair {alpha, alpha'} then costs one
    dot product per half, e and o, and gets (e + o)/n! for alpha and
    (e - o)/n! for alpha'."""
    n, (lam, mu) = check_same_weight(lam, mu)
    (even_sizes, even), (odd_sizes, odd), pairs = _halves(n)
    index = _bead_index(n)
    i, j = index[_beads(lam)], index[_beads(mu)]
    weights_even = list(map(mul, map(mul, even_sizes, even[i]), even[j]))
    weights_odd = list(map(mul, map(mul, odd_sizes, odd[i]), odd[j]))
    order = factorial(n)
    terms = {}
    for alpha, conj, a in pairs:
        e, o = sum(map(mul, weights_even, even[a])), sum(map(mul, weights_odd, odd[a]))
        terms[alpha] = _average(e + o, order)
        if conj != alpha:
            terms[conj] = _average(e - o, order)
    return SchurSum(n, terms)


def kron_power_oracle(n: int, k: int) -> SchurSum:
    """k-th pointwise power of the (n-1,1) character, expanded in Schur terms.

    The classes with j fixed points are sigma + 1^j, sigma a class of n - j
    with no part 1, of size C(n, j)|C_sigma|, and the row of (n-1,1) is
    j - 1 on them.  So s_alpha gets the sum over j of C(n, j) (j-1)^k times
    entry j of alpha's ``_power_sums`` row, over n!: one dot product of
    length n + 1 per irreducible."""
    if n < 2:
        raise ValueError("n must be at least 2")
    k = index(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    weights = [comb(n, j) * (j - 1) ** k for j in range(n + 1)]
    order = factorial(n)
    terms = {}
    for alpha, row in zip(partitions_of(n), _power_sums(n)):
        if coeff := _average(sum(map(mul, weights, row)), order):
            terms[alpha] = coeff
    return SchurSum(n, terms)
