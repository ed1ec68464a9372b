"""Irreducible characters of the symmetric group and the character-table
route to Kronecker coefficients.

Character values come from the Murnaghan-Nakayama border-strip recursion,
run on beta-numbers (first-column hook lengths): removing a strip of size
r is moving one beta-number down by r, and the strip height is the number
of beta-numbers jumped over.  Only traces are ever needed, never matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial

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
    m = len(lam)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]
    present = set(beta)
    total = 0
    for b in beta:
        low = b - r
        if low < 0 or low in present:
            continue
        height = sum(1 for x in beta if low < x < b)
        new = sorted((x for x in beta if x != b), reverse=True)
        new.append(low)
        new.sort(reverse=True)
        parts = tuple(x - (m - 1 - i) for i, x in enumerate(new))
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        total += (-1 if height % 2 else 1) * _mn(parts, rest)
    return total


def character_value(lam: Partition, mu: Partition) -> int:
    """Character of the irreducible indexed by lam at the class of type mu."""
    lam, mu = check_partition(lam), check_partition(mu)
    if weight(lam) != weight(mu):
        raise ValueError("character_value requires equal weights")
    return _mn(lam, mu)


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


@cache
def character_table(n: int) -> CharacterTable:
    """Full character table of the symmetric group on n letters."""
    if n < 1:
        raise ValueError("n must be positive")
    ps = partitions_of(n)
    values = tuple(
        tuple(character_value(lam, mu) for mu in ps) for lam in ps
    )
    return CharacterTable(n, ps, values)


def _project_onto_schur(n: int, class_values: dict[Partition, int]) -> SchurSum:
    """Expand a class function, given by its values, over irreducibles.

    Coefficients come from orthonormality and must divide exactly; a
    remainder signals a bug, not bad input, so it aborts loudly.
    """
    ps = partitions_of(n)
    sizes = {gamma: class_size(gamma) for gamma in ps}
    nfact = factorial(n)
    terms = {}
    for alpha in ps:
        total = sum(
            sizes[gamma] * class_values[gamma] * character_value(alpha, gamma)
            for gamma in ps
        )
        coeff, rem = divmod(total, nfact)
        if rem:
            raise ArithmeticError(
                f"non-integral multiplicity for {alpha}: {total}/{nfact}"
            )
        if coeff:
            terms[alpha] = coeff
    return SchurSum(n, terms)


def kron_coefficient(lam: Partition, mu: Partition, alpha: Partition) -> int:
    """Multiplicity of the alpha-irreducible in the lam (x) mu product."""
    lam, mu, alpha = check_partition(lam), check_partition(mu), check_partition(alpha)
    n = weight(lam)
    if weight(mu) != n or weight(alpha) != n:
        raise ValueError("kron_coefficient requires equal weights")
    nfact = factorial(n)
    total = sum(
        class_size(gamma)
        * character_value(lam, gamma)
        * character_value(mu, gamma)
        * character_value(alpha, gamma)
        for gamma in partitions_of(n)
    )
    coeff, rem = divmod(total, nfact)
    if rem:
        raise ArithmeticError(f"non-integral Kronecker sum {total}/{nfact}")
    return coeff


def kron_product_via_characters(lam: Partition, mu: Partition) -> SchurSum:
    """Schur expansion of the product character, via pointwise values."""
    lam, mu = check_partition(lam), check_partition(mu)
    n = weight(lam)
    if weight(mu) != n:
        raise ValueError("equal weights required")
    vals = {
        gamma: character_value(lam, gamma) * character_value(mu, gamma)
        for gamma in partitions_of(n)
    }
    return _project_onto_schur(n, vals)


def kron_power_oracle(n: int, k: int) -> SchurSum:
    """k-th pointwise power of the (n-1,1) character, expanded in Schur terms."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if k < 0:
        raise ValueError("k must be nonnegative")
    vals = {
        gamma: character_value((n - 1, 1), gamma) ** k
        for gamma in partitions_of(n)
    }
    return _project_onto_schur(n, vals)


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
    lam, mu = check_partition(lam), check_partition(mu)
    n = weight(lam)
    if weight(mu) != n:
        raise ValueError("equal weights required")
    vals = {
        gamma: permutation_character(lam, gamma) * character_value(mu, gamma)
        for gamma in partitions_of(n)
    }
    return _project_onto_schur(n, vals)

