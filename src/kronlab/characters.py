"""Irreducible characters of the symmetric group and the character-table
route to Kronecker coefficients.

The character table is filled by columns.  Column mu holds the values of
every irreducible at the class of type mu, which are the coefficients of
the Schur expansion of the power sum p_mu.  Since p_mu = p_r * p_rest with
r = mu[0] and rest = mu[1:], column mu comes from the column of rest by
adding every border strip of size r to each of its shapes, with sign
(-1)^height (the Murnaghan-Nakayama rule read in the adding direction,
Macdonald I.7).  On beta-numbers (first-column hook lengths) adding a
strip of size r moves one beta-number up by r, and the strip height is
the number of beta-numbers jumped over.  Shapes are addressed by their
position in ``partitions_of``: a column is a dense list over the
partitions of its weight, and the strips of size r added to every shape
of weight w are memoised once per (w, r) as moves from one position to
another, with their signs, so a column is built by a loop over indices
with no lookup per entry.  Each column is memoised by its class; the
suffixes of mu are built shortest first, so no recursion depth grows
with n, and a table of weight n builds only the columns of the suffixes
of its own classes (462 of the 915 partitions of weight at most 16 at
n = 16).  Only traces are ever needed, never matrices.

Each irreducible's values are then one row of the table of its weight;
the table and the class sizes are cached once per n and shared, so
callers only read them.  A single value is one sweep over the parts of
mu with the same strips, keeping only the shapes that fit inside lam.
Every route is one exact inner product of rows: the sum over classes of
class size times the product of the values, divided by n!.

A product is projected onto the irreducibles one conjugate pair at a
time.  The classes split by the parity of n - len(rho), the sign of a
permutation of type rho, and chi^alpha' = sign * chi^alpha (Macdonald
I.7): alpha' has alpha's values on the even classes and their negatives
on the odd ones.  With e and o the dot products of the weighted product
with alpha's values on the even and on the odd classes, alpha gets
(e + o)/n! and alpha' gets (e - o)/n!, so each pair costs one pass over
the classes.  The two halves come from the columns directly, once per n,
and a product never builds the full table.

The powers of chi^(n-1,1) skip the projection.  That row takes at most n
distinct values v (one less than the number of fixed points), so
<(chi^(n-1,1))^k, chi^alpha> = (1/n!) sum_v v^k W_alpha(v), where
W_alpha(v) sums class size times chi^alpha over the classes on which the
row equals v (Macdonald I.7).  The sums W depend on n only: they are
built once per n from the table's columns, grouped by that value, and
each power then costs one dot product of length at most n per
irreducible.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache
from math import factorial, prod
from operator import mul

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


def _strips(lam: Partition, r: int) -> list[tuple[Partition, int]]:
    """Every shape made by adding a border strip of size r to lam, with the
    sign (-1)^height of the strip."""
    rows = lam + (0,) * r  # a strip adds at most r rows
    top = len(rows) - 1
    beta = [part + top - i for i, part in enumerate(rows)]  # descending
    out = []
    p = 0
    for j, b in enumerate(beta):
        # beta[j] moves up to b + r and lands at row p; rows p..j-1, the
        # strip's height, each move down one row and gain one cell
        while beta[p] > b + r:
            p += 1
        if beta[p] == b + r:
            continue
        moved = tuple(x + 1 for x in rows[p:j])
        shape = lam[:p] + (rows[j] + r - (j - p),) + moved + lam[j + 1 :]
        out.append((shape, -1 if (j - p) % 2 else 1))
    return out


@cache
def _index(n: int) -> dict[Partition, int]:
    """Position of each partition of n in ``partitions_of(n)``."""
    return {lam: i for i, lam in enumerate(partitions_of(n))}


@cache
def _strip_moves(w: int, r: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each partition of w, by index, its strips of size r as (index of
    the new shape in weight w + r, sign).  Shared, so callers only read it."""
    index = _index(w + r)
    return tuple(
        tuple((index[shape], sign) for shape, sign in _strips(lam, r))
        for lam in partitions_of(w)
    )


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
    for value, moves in zip(_column(rest), _strip_moves(w, r)):
        if value:
            for j, sign in moves:
                col[j] += sign * value
    return col


@cache
def _table(n: int) -> dict[Partition, tuple[int, ...]]:
    """Every irreducible of weight n as its row of values over the
    partitions of n.  Shared, so callers only read it."""
    ps = partitions_of(n)
    return dict(zip(ps, zip(*map(_column, ps))))


def _chi(lam: Partition) -> tuple[int, ...]:
    """The irreducible character of lam as a row of values over the
    partitions of its weight."""
    return _table(weight(lam))[lam]


def character_value(lam: Partition, mu: Partition) -> int:
    """Character of the irreducible indexed by lam at the class of type mu.

    The strips of mu's parts are added one part at a time; a shape outside
    lam never grows back inside it, so only the shapes inside lam are kept
    and no whole column is expanded.  Each (shape, r) comes up once, so the
    sweep adds strips unmemoised and leaves no strip moves behind."""
    _, (lam, mu) = check_same_weight(lam, mu)
    states = {(): 1}
    for r in mu:
        grown: dict[Partition, int] = {}
        for shape, coeff in states.items():
            for s, sign in _strips(shape, r):
                grown[s] = grown.get(s, 0) + sign * coeff
        states = {s: v for s, v in grown.items() if v and contains(lam, s)}
    return states.get(lam, 0)


@cache
def _class_sizes(n: int) -> tuple[int, ...]:
    return tuple(class_size(gamma) for gamma in partitions_of(n))


def _average(total: int, order: int) -> int:
    """``total`` over the group order n!, which is a multiplicity and must
    divide exactly; a remainder signals a bug, not bad input, so it aborts
    loudly."""
    coeff, rem = divmod(total, order)
    if rem:
        raise ArithmeticError(f"non-integral multiplicity {total}/{order}")
    return coeff


def _inner(n: int, *rows: tuple[int, ...]) -> int:
    """Average over S_n of the product of class functions given as rows."""
    total = sum(size * prod(values) for size, *values in zip(_class_sizes(n), *rows))
    return _average(total, factorial(n))


def _expand(n: int, weights: list[int], rows: Iterable[tuple[int, ...]]) -> SchurSum:
    """The Schur sum whose coefficient of s_alpha is the dot product of
    ``weights`` with alpha's entry of ``rows`` (one per irreducible, in
    ``partitions_of(n)`` order), over n!."""
    order = factorial(n)
    terms = {}
    for alpha, row in zip(partitions_of(n), rows):
        if coeff := _average(sum(map(mul, weights, row)), order):
            terms[alpha] = coeff
    return SchurSum(n, terms)


_Half = tuple[tuple[int, ...], list[tuple[int, ...]]]


@cache
def _halves(n: int) -> tuple[_Half, _Half, list[tuple[Partition, Partition, int]]]:
    """The classes of n split by the parity of n - len(rho): for the even
    and then the odd classes, their sizes and every irreducible's values
    on them, by index in ``partitions_of(n)``; and each conjugate pair
    once, as (alpha, alpha', index of alpha), alpha the first of the two
    in that order.  Built from the columns, two half-size transposes, so
    the full table is not needed.  Shared, so callers only read it."""
    ps, sizes, index = partitions_of(n), _class_sizes(n), _index(n)
    halves = []
    for parity in (0, 1):
        classes = [j for j, rho in enumerate(ps) if (n - len(rho)) % 2 == parity]
        # n <= 1 has no odd class: every irreducible's odd values are ()
        values = list(zip(*[_column(ps[j]) for j in classes])) or [()] * len(ps)
        halves.append((tuple(sizes[j] for j in classes), values))
    pairs = []
    for i, alpha in enumerate(ps):
        conj = conjugate(alpha)
        if i <= index[conj]:
            pairs.append((alpha, conj, i))
    return halves[0], halves[1], pairs


@cache
def _power_sums(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The distinct values v of the table's row of (n-1,1), ascending, and
    for each irreducible alpha, in ``partitions_of(n)`` order, the sums
    W_alpha(v) of class size times chi^alpha over the classes where that
    row equals v.  Shared, so callers only read it.

    The classes are grouped by value, and each group's columns, zipped,
    give every alpha's values on that group: one dot product with the
    group's class sizes each.  A single k costs more this way than one
    projection (about 1.3 times at n = 14 to 16), but every further k at
    the same n is one short dot product per alpha."""
    columns, sizes = [_column(mu) for mu in partitions_of(n)], _class_sizes(n)
    at = _index(n)[(n - 1, 1)]
    classes: dict[int, list[int]] = {}
    for j, column in enumerate(columns):
        classes.setdefault(column[at], []).append(j)
    values = sorted(classes)
    sums = []
    for v in values:
        group = classes[v]
        weights = [sizes[j] for j in group]
        sums.append([sum(map(mul, weights, chi)) for chi in zip(*[columns[j] for j in group])])
    return tuple(values), tuple(zip(*sums))


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
    rows = _table(n)
    return CharacterTable(n, ps, tuple(rows[lam] for lam in ps))


def kron_coefficient(lam: Partition, mu: Partition, alpha: Partition) -> int:
    """Multiplicity of the alpha-irreducible in the lam (x) mu product."""
    n, (lam, mu, alpha) = check_same_weight(lam, mu, alpha)
    return _inner(n, _chi(lam), _chi(mu), _chi(alpha))


def kron_product_via_characters(lam: Partition, mu: Partition) -> SchurSum:
    """Schur expansion of the product character, via pointwise values.

    The class-size-weighted product is formed once on the even and once
    on the odd classes; each conjugate pair {alpha, alpha'} then costs one
    dot product per half, e and o, and gets (e + o)/n! for alpha and
    (e - o)/n! for alpha'."""
    n, (lam, mu) = check_same_weight(lam, mu)
    (even_sizes, even), (odd_sizes, odd), pairs = _halves(n)
    index = _index(n)
    i, j = index[lam], index[mu]
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
    """k-th pointwise power of the (n-1,1) character, expanded in Schur terms."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if k < 0:
        raise ValueError("k must be nonnegative")
    values, sums = _power_sums(n)
    return _expand(n, [v**k for v in values], sums)
