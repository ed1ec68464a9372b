"""Operators on Schur sums that realize Kronecker products.

An operator is built from a truncated partition (the indexing partition
with its largest part dropped): expand a determinant of complete
homogeneous functions whose first row is all ones, then replace each
signed monomial h_alpha by the sum over partition tuples
(nu_1 |- alpha_1, ...) of the composite map

    f  ->  (multiply by every s_nu) ( (skew by every s_nu) f ).

Applied to s_mu this reproduces the Kronecker product expansion without
touching a character table, and it does not depend on the largest part
of the indexing partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product as iproduct

from .partitions import Partition, check_partition, partitions_of, weight
from .symfunc import SchurSum, h_determinant, skew_then_multiply


@dataclass(frozen=True)
class KroneckerOperator:
    """Signed sum of composite multiply/skew terms.

    Each term is (coefficient, nu_list); it acts linearly by skewing by
    every nu first, then multiplying by every nu.  An empty nu_list is
    coefficient times the identity.
    """

    terms: tuple[tuple[int, tuple[Partition, ...]], ...]

    def normalize(self) -> "KroneckerOperator":
        """Merge terms whose nu multisets agree; deterministic order."""
        acc: dict[tuple[Partition, ...], int] = {}
        for coeff, nus in self.terms:
            key = tuple(sorted(nus, reverse=True))
            acc[key] = acc.get(key, 0) + coeff
        merged = tuple(
            (acc[key], key) for key in sorted(acc, key=_term_key) if acc[key]
        )
        return KroneckerOperator(merged)


def _term_key(nus: tuple[Partition, ...]):
    return (sum(weight(nu) for nu in nus), len(nus), nus)


@cache
def build_operator(lambda_bar: Partition) -> KroneckerOperator:
    """Operator for the family of partitions whose tail is lambda_bar.

    The empty tail gives the identity (trivial factor leaves everything
    unchanged)."""
    lambda_bar = check_partition(lambda_bar)
    # Jacobi-Trudi matrix of lambda_bar with a row of ones (h_0) on top
    m = len(lambda_bar) + 1
    matrix = [[0] * m] + [
        [part - i + j for j in range(m)] for i, part in enumerate(lambda_bar, 1)
    ]
    terms: list[tuple[int, tuple[Partition, ...]]] = []
    for alpha, coeff in sorted(h_determinant(matrix).items(), reverse=True):
        for nus in iproduct(*(partitions_of(part) for part in alpha)):
            terms.append((coeff, nus))
    return KroneckerOperator(tuple(terms))


def apply(op: KroneckerOperator, f: SchurSum) -> SchurSum:
    """Apply the operator; degree is preserved term by term."""
    result = SchurSum.zero(f.degree)
    for coeff, nus in op.terms:
        g = skew_then_multiply(nus, f)
        if g:
            result = result + g.scale(coeff)
    return result


def kron_product_via_operator(lam: Partition, mu: Partition) -> SchurSum:
    """Kronecker product expansion of the lam and mu irreducibles."""
    lam, mu = check_partition(lam), check_partition(mu)
    if weight(lam) != weight(mu):
        raise ValueError("equal weights required")
    return apply(build_operator(lam[1:]), SchurSum.schur(mu))


def kron_power_nm1(n: int, k: int) -> SchurSum:
    """k-th Kronecker power of the (n-1,1) irreducible, by iterating the
    single-cell operator on the one-row Schur function."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if k < 0:
        raise ValueError("k must be nonnegative")
    op = build_operator((1,))
    f = SchurSum.schur((n,))
    for _ in range(k):
        f = apply(op, f)
    return f
