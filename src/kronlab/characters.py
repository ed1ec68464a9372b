"""Irreducible characters of the symmetric group and the character-table
route to Kronecker coefficients.

Character values come from the Murnaghan-Nakayama border-strip recursion,
run on beta-numbers (first-column hook lengths): removing a strip of size
r is moving one beta-number down by r, and the strip height is the number
of beta-numbers jumped over.  Only traces are ever needed, never matrices.

Each irreducible's values are computed once and cached as one row over
``partitions_of(n)``; the class sizes are cached once per n.  The cached
rows are shared, so callers only read them.  Every route is then one
exact inner product of such rows: the sum over classes of class size
times the product of the values, divided by n!.  A projection onto all
irreducibles forms that weighted product once and takes one dot product
per irreducible.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from math import factorial, prod
from operator import mul

from .partitions import (
    Partition,
    check_partition,
    class_size,
    partitions_of,
    weight,
)
from .symfunc import SchurSum


@cache
def _mn(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    beta = [part + i for i, part in enumerate(reversed(lam))]  # ascending
    total = 0
    for j in range(bisect_left(beta, r), len(beta)):
        low = beta[j] - r
        pos = bisect_left(beta, low)
        if beta[pos] == low:
            continue
        new = beta[:pos] + [low] + beta[pos:j] + beta[j + 1 :]
        parts = tuple(x - i for i, x in enumerate(new) if x > i)[::-1]
        total += (-1 if (j - pos) % 2 else 1) * _mn(parts, rest)
    return total


def _checked(*parts) -> tuple[int, list[Partition]]:
    """The common weight of the given partitions, and the partitions."""
    parts = [check_partition(p) for p in parts]
    n = weight(parts[0])
    if any(weight(p) != n for p in parts):
        raise ValueError("equal weights required")
    return n, parts


def character_value(lam: Partition, mu: Partition) -> int:
    """Character of the irreducible indexed by lam at the class of type mu."""
    _, (lam, mu) = _checked(lam, mu)
    return _mn(lam, mu)


@cache
def _class_sizes(n: int) -> tuple[int, ...]:
    return tuple(class_size(gamma) for gamma in partitions_of(n))


@cache
def _chi(lam: Partition) -> tuple[int, ...]:
    """The irreducible character of lam as a row of values over the
    partitions of its weight; filled on first use, so one coefficient does
    not pay for the whole table."""
    return tuple(_mn(lam, gamma) for gamma in partitions_of(weight(lam)))


def _average(n: int, total: int) -> int:
    """``total`` over n!, which is a multiplicity and must divide exactly; a
    remainder signals a bug, not bad input, so it aborts loudly."""
    coeff, rem = divmod(total, factorial(n))
    if rem:
        raise ArithmeticError(f"non-integral multiplicity {total}/{factorial(n)}")
    return coeff


def _weighted(n: int, *rows: tuple[int, ...]) -> list[int]:
    """Class size times the product of the rows' values, class by class."""
    return [size * prod(values) for size, *values in zip(_class_sizes(n), *rows)]


def _inner(n: int, *rows: tuple[int, ...]) -> int:
    """Average over S_n of the product of class functions given as rows."""
    return _average(n, sum(_weighted(n, *rows)))


def _project_onto_schur(n: int, *rows: tuple[int, ...]) -> SchurSum:
    """Expand the product of class functions, given as rows, over irreducibles.

    The class-size-weighted product is formed once; each irreducible then
    costs one dot product with its row."""
    weighted = _weighted(n, *rows)
    terms = {}
    for alpha in partitions_of(n):
        if coeff := _average(n, sum(map(mul, weighted, _chi(alpha)))):
            terms[alpha] = coeff
    return SchurSum(n, terms)


@dataclass(frozen=True)
class CharacterTable:
    n: int
    partitions: tuple[Partition, ...]  # canonical order, rows and columns
    values: tuple[tuple[int, ...], ...]  # values[row lam][col mu]

    def value(self, lam: Partition, mu: Partition) -> int:
        i = self.partitions.index(tuple(lam))
        j = self.partitions.index(tuple(mu))
        return self.values[i][j]

    def ascii_render(self) -> str:
        labels = ["[" + ",".join(map(str, p)) + "]" for p in self.partitions]
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
    return CharacterTable(n, ps, tuple(_chi(lam) for lam in ps))


def kron_coefficient(lam: Partition, mu: Partition, alpha: Partition) -> int:
    """Multiplicity of the alpha-irreducible in the lam (x) mu product."""
    n, (lam, mu, alpha) = _checked(lam, mu, alpha)
    return _inner(n, _chi(lam), _chi(mu), _chi(alpha))


def kron_product_via_characters(lam: Partition, mu: Partition) -> SchurSum:
    """Schur expansion of the product character, via pointwise values."""
    n, (lam, mu) = _checked(lam, mu)
    return _project_onto_schur(n, _chi(lam), _chi(mu))


def kron_power_oracle(n: int, k: int) -> SchurSum:
    """k-th pointwise power of the (n-1,1) character, expanded in Schur terms."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _project_onto_schur(n, tuple(v**k for v in _chi((n - 1, 1))))


@cache
def permutation_character(lam: Partition, gamma: Partition) -> int:
    """Value at class gamma of the permutation character induced from the
    Young subgroup of type lam: the number of ways to distribute the
    cycles of a type-gamma permutation over the parts of lam so that each
    part is filled exactly.
    """
    if weight(lam) != weight(gamma):
        return 0
    mults = {}
    for c in gamma:
        mults[c] = mults.get(c, 0) + 1
    lengths = sorted(mults)
    counts = tuple(mults[c] for c in lengths)

    @cache
    def distribute(part_idx: int, remaining: tuple[int, ...]) -> int:
        if part_idx == len(lam):
            return 1 if all(r == 0 for r in remaining) else 0
        target = lam[part_idx]
        total = 0

        def pick(i: int, left: int, ways: int, rem: list[int]) -> None:
            nonlocal total
            if left == 0:
                total += ways * distribute(part_idx + 1, tuple(rem))
                return
            if i == len(lengths) or left < 0:
                return
            c = lengths[i]
            take_max = min(rem[i], left // c)
            binom = 1
            for take in range(take_max + 1):
                if take:
                    binom = binom * (rem[i] - take + 1) // take
                rem[i] -= take
                pick(i + 1, left - c * take, ways * binom, rem)
                rem[i] += take

        pick(0, target, 1, list(remaining))
        return total

    return distribute(0, counts)


def h_kron_oracle(lam: Partition, mu: Partition) -> SchurSum:
    """Character-side expansion of h_lam (.) s_mu.

    Uses the permutation character in place of an irreducible one in the
    orthonormality projection; independent of the Schur-operator route.
    """
    n, (lam, mu) = _checked(lam, mu)
    perm = tuple(permutation_character(lam, gamma) for gamma in partitions_of(n))
    return _project_onto_schur(n, perm, _chi(mu))
