"""Homogeneous symmetric functions in the Schur basis, exact integers.

The core object is :class:`SchurSum`, a formal integer combination of
Schur functions of one common degree.  Multiplication expands through the
Littlewood-Richardson rule, ``perp`` is the adjoint of multiplication
under the Hall scalar product, and the ``h``-side operations expand
products of complete homogeneous functions.
"""

from __future__ import annotations

from functools import cache
from itertools import product as iproduct
from typing import Iterator, NamedTuple

from .partitions import (
    Partition,
    canonical_sort,
    check_partition,
    contains,
    partitions_of,
    weight,
)


class SchurSum:
    """Integer combination of Schur functions, homogeneous of one degree.

    Zero coefficients are never stored.  Instances are immutable; ``+``,
    ``-`` and integer scaling work coefficient-wise, ``*`` multiplies via
    the Littlewood-Richardson rule.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict[Partition, int] | None = None):
        clean: dict[Partition, int] = {}
        for p, c in (terms or {}).items():
            if c == 0:
                continue
            if weight(p) != degree:
                raise ValueError(f"term {p} has weight {weight(p)}, expected {degree}")
            clean[p] = c
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SchurSum is immutable")

    @classmethod
    def schur(cls, p) -> "SchurSum":
        p = check_partition(p)
        return cls(weight(p), {p: 1})

    @classmethod
    def zero(cls, degree: int = 0) -> "SchurSum":
        return cls(degree, {})

    def coefficient(self, p: Partition) -> int:
        return self.terms.get(tuple(p), 0)

    def items(self) -> Iterator[tuple[Partition, int]]:
        """Terms in canonical (reverse lexicographic) partition order."""
        for p in canonical_sort(self.terms):
            yield p, self.terms[p]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SchurSum):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "SchurSum") -> "SchurSum":
        if bool(self) and bool(other) and self.degree != other.degree:
            raise ValueError("cannot add sums of different degrees")
        merged = dict(self.terms)
        for p, c in other.terms.items():
            merged[p] = merged.get(p, 0) + c
        return SchurSum(self.degree if self else other.degree, merged)

    def __neg__(self) -> "SchurSum":
        return SchurSum(self.degree, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other: "SchurSum") -> "SchurSum":
        return self + (-other)

    def scale(self, k: int) -> "SchurSum":
        return SchurSum(self.degree, {p: k * c for p, c in self.terms.items()})

    def __mul__(self, other: "SchurSum") -> "SchurSum":
        return multiply(self, other)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for p, c in self.items():
            coeff = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            bits.append(f"{coeff}s{list(p)}")
        return " + ".join(bits).replace("+ -", "- ")


class HMonomial(NamedTuple):
    """One signed product of complete homogeneous functions h_(indices)."""

    coeff: int
    indices: Partition


@cache
def lr_coefficient(gamma: Partition, alpha: Partition, mu: Partition) -> int:
    """Littlewood-Richardson coefficient of s_mu in s_gamma * s_alpha.

    Counts the semistandard fillings of the skew shape mu/gamma with
    content alpha whose reverse reading word (right to left along rows,
    longest row first) is a lattice word.  Cells are filled in reading
    order so row/column/lattice constraints are checked incrementally.
    """
    gamma, alpha, mu = tuple(gamma), tuple(alpha), tuple(mu)
    if weight(gamma) + weight(alpha) != weight(mu):
        return 0
    if not contains(mu, gamma) or not contains(mu, alpha):
        return 0
    if not alpha:
        return 1
    nrows = len(mu)
    inner = tuple(gamma) + (0,) * (nrows - len(gamma))
    # cells in reverse reading order: longest row on top, each row right
    # to left; both neighbours that constrain a cell are then already set
    cells = []
    for r in range(nrows):
        for c in range(mu[r] - 1, inner[r] - 1, -1):
            cells.append((r, c))
    maxval = len(alpha)
    grid = [[0] * mu[r] for r in range(nrows)]
    counts = [0] * (maxval + 1)
    total = 0

    def fill(idx: int) -> None:
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        r, c = cells[idx]
        # right neighbour already filled; entry must not exceed it
        hi = grid[r][c + 1] if c + 1 < mu[r] else maxval
        # cell above (row r-1) already filled when it is part of the skew
        lo = grid[r - 1][c] + 1 if r > 0 and c >= inner[r - 1] else 1
        for v in range(lo, hi + 1):
            if counts[v] >= alpha[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # lattice word would break
            grid[r][c] = v
            counts[v] += 1
            fill(idx + 1)
            counts[v] -= 1
        grid[r][c] = 0

    fill(0)
    return total


def _schur_product_terms(gamma: Partition, alpha: Partition) -> dict[Partition, int]:
    w = weight(gamma) + weight(alpha)
    widest = (gamma[0] if gamma else 0) + (alpha[0] if alpha else 0)
    out = {}
    for mu in partitions_of(w):
        if len(mu) > len(gamma) + len(alpha) or (mu and mu[0] > widest):
            continue
        c = lr_coefficient(gamma, alpha, mu)
        if c:
            out[mu] = c
    return out


def multiply(f: SchurSum, g: SchurSum) -> SchurSum:
    """Product of two Schur sums; degrees add."""
    result: dict[Partition, int] = {}
    for p, cp in f.terms.items():
        for q, cq in g.terms.items():
            for mu, lr in _schur_product_terms(p, q).items():
                result[mu] = result.get(mu, 0) + cp * cq * lr
    return SchurSum(f.degree + g.degree, result)


def perp(gamma: Partition, f: SchurSum) -> SchurSum:
    """Adjoint of multiplication by s_gamma: skews every term by gamma."""
    gamma = check_partition(gamma)
    d = f.degree - weight(gamma)
    if d < 0:
        return SchurSum.zero(0)
    result: dict[Partition, int] = {}
    for lam, c in f.terms.items():
        if not contains(lam, gamma):
            continue
        for alpha in partitions_of(d):
            if not contains(lam, alpha):
                continue
            lr = lr_coefficient(gamma, alpha, lam)
            if lr:
                result[alpha] = result.get(alpha, 0) + c * lr
    return SchurSum(d, result)


def scalar(f: SchurSum, g: SchurSum) -> int:
    """Hall scalar product; Schur functions are orthonormal."""
    if f.degree != g.degree:
        return 0
    small, big = (f.terms, g.terms) if len(f.terms) <= len(g.terms) else (g.terms, f.terms)
    return sum(c * big.get(p, 0) for p, c in small.items())


def h_determinant(matrix: list[list[int]]) -> dict[Partition, int]:
    """Signed h-monomials of the determinant det(h_{matrix[i][j]}).

    Entries are h-indices, with h_0 = 1 and a negative index meaning a
    zero entry, so the returned index partitions carry only positive
    parts.  Monomials that cancel are dropped.
    """
    m = len(matrix)
    acc: dict[Partition, int] = {}

    def expand(row: int, used: int, sign: int, indices: list[int]) -> None:
        if row == m:
            key = tuple(sorted(indices, reverse=True))
            acc[key] = acc.get(key, 0) + sign
            return
        for col in range(m):
            bit = 1 << col
            r = matrix[row][col]
            if used & bit or r < 0:
                continue
            # sign of the permutation: columns already used to the right
            parity = -1 if bin(used >> (col + 1)).count("1") % 2 else 1
            expand(row + 1, used | bit, sign * parity, indices + ([r] if r else []))

    expand(0, 0, 1, [])
    return {p: c for p, c in acc.items() if c}


def jacobi_trudi(lam: Partition) -> list[HMonomial]:
    """Signed h-expansion of s_lam from the determinant det(h_{lam_i-i+j}).

    Terms are listed in canonical order of their index partitions.
    """
    lam = check_partition(lam)
    m = len(lam)
    acc = h_determinant([[lam[i] - i + j for j in range(m)] for i in range(m)])
    return [HMonomial(acc[p], p) for p in canonical_sort(acc)]


@cache
def h_to_schur(indices: Partition) -> SchurSum:
    """Expand h_indices in the Schur basis (Kostka-positive)."""
    indices = check_partition(indices)
    out = SchurSum.schur(())
    for r in indices:
        out = multiply(out, SchurSum.schur((r,)))
    return out


def skew_then_multiply(nus: tuple[Partition, ...], f: SchurSum) -> SchurSum:
    """The composite (multiply by every s_nu) after (skew by every s_nu).

    Stops at the first skew that vanishes and returns zero of f's degree.
    """
    g = f
    for nu in nus:
        g = perp(nu, g)
        if not g:
            return SchurSum.zero(f.degree)
    for nu in nus:
        g = multiply(SchurSum.schur(nu), g)
    return g


def h_inner_s(lam: Partition, mu: Partition) -> SchurSum:
    """Kronecker-side product h_lam (.) s_mu expanded over Schur terms.

    Sums, over one partition nu of every part of lam except the largest,
    the skew-then-multiply composite applied to s_mu.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    if weight(lam) != weight(mu):
        raise ValueError("h_inner_s requires equal weights")
    s_mu = SchurSum.schur(mu)
    result = SchurSum.zero(weight(mu))
    for nus in iproduct(*(partitions_of(part) for part in lam[1:])):
        result = result + skew_then_multiply(nus, s_mu)
    return result


def schur_sum_to_json(f: SchurSum) -> dict:
    """JSON form: degree plus canonical-order terms, big-int-safe coeffs."""
    return {
        "degree": f.degree,
        "terms": [
            {"partition": list(p), "coeff": str(c)} for p, c in f.items()
        ],
    }


def schur_sum_from_json(obj: dict) -> SchurSum:
    terms = {
        check_partition(t["partition"]): int(t["coeff"]) for t in obj["terms"]
    }
    return SchurSum(int(obj["degree"]), terms)
