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

The operator's cost grows steeply with the weight of its tail, and any
of four tails can index one product: s_lam * s_mu = s_mu * s_lam, and
s_lam' * s_mu' = s_lam * s_mu because the character of lam' is the sign
character times that of lam (Macdonald I.7).  So
``kron_product_via_operator`` builds the operator from whichever of lam,
mu, lam', mu' has the longest first row, the first in that order on a
tie, and applies it to s_mu, s_lam, s_mu' or s_lam' in turn; the
conjugate pairs travel together, so no omega is needed.  The route is
therefore symmetric by construction: a relation check on the operator
calls ``apply(build_operator(.))`` at a fixed orientation.

``build_operator`` merges the nu tuples that differ only in order
(``normalize``, the one place terms merge).  ``apply`` is one call to the
summed composite ``symfunc.skew_then_multiply``, which sums the terms as
given into one sum of s_a s_b^perp, memoised per operator, and skews by
each b and multiplies by each s_a once.

Powers of the (n-1,1) irreducible are memoised in ``_powers`` per
``(n, k)`` by the rule of ``_memo.iterate``.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import product as iproduct

from ._memo import iterate
from ._record import Record
from .partitions import (
    Partition,
    check_count,
    check_partition,
    check_same_weight,
    checked_front,
    conjugate,
    partitions_of,
    weight,
)
from .symfunc import SchurSum, h_determinant, skew_then_multiply


class KroneckerOperator(Record):
    """Signed sum of composite multiply/skew terms.

    Each term is (coefficient, nu_list); it acts linearly by skewing by
    every nu first, then multiplying by every nu.  An empty nu_list is
    coefficient times the identity.  ``apply`` sums the terms as given.
    """

    __slots__ = ("terms",)  # tuple[tuple[int, tuple[Partition, ...]], ...]

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
def _build_operator(lambda_bar: Partition) -> KroneckerOperator:
    """``build_operator`` of a checked partition, memoised."""
    # Jacobi-Trudi matrix of lambda_bar with a row of ones (h_0) on top
    m = len(lambda_bar) + 1
    matrix = [[0] * m] + [
        [part - i + j for j in range(m)] for i, part in enumerate(lambda_bar, 1)
    ]
    terms: list[tuple[int, tuple[Partition, ...]]] = []
    for alpha, coeff in h_determinant(matrix).items():
        for nus in iproduct(*(partitions_of(part) for part in alpha)):
            terms.append((coeff, nus))
    return KroneckerOperator(tuple(terms)).normalize()


@checked_front(_build_operator)
def build_operator(lambda_bar: Partition) -> KroneckerOperator:
    """Merged operator for the partitions whose tail is lambda_bar.

    The empty tail gives the identity (trivial factor leaves everything
    unchanged).  The tail is checked before the memo, ``_build_operator``,
    is read."""
    return _build_operator(check_partition(lambda_bar))


def apply(op: KroneckerOperator, f: SchurSum) -> SchurSum:
    """Apply the operator; degree is preserved term by term."""
    return skew_then_multiply(op.terms, f)


def kron_product_via_operator(lam: Partition, mu: Partition) -> SchurSum:
    """Kronecker product expansion of the lam and mu irreducibles.

    The product is symmetric and unchanged when both factors are
    conjugated, so the operator is built from whichever of lam, mu, lam',
    mu' has the longest first row (the first of them on a tie) and
    applied to the Schur function of its partner."""
    _, (lam, mu) = check_same_weight(lam, mu)
    lam_c, mu_c = conjugate(lam), conjugate(mu)
    pairs = ((lam, mu), (mu, lam), (lam_c, mu_c), (mu_c, lam_c))
    # max keeps the first of equal keys; () sorts below every first row
    index, partner = max(pairs, key=lambda pair: pair[0][:1])
    return apply(build_operator(index[1:]), SchurSum.schur(partner))


# (n, k) -> k-th power of the (n-1,1) irreducible; values are only read
_powers: dict[tuple[int, int], SchurSum] = {}


def kron_power_nm1(n: int, k: int) -> SchurSum:
    """k-th Kronecker power of the (n-1,1) irreducible, by iterating the
    single-cell operator on the one-row Schur function (``_memo.iterate``)."""
    n = check_count(n, "n", 2)
    step = partial(apply, build_operator((1,)))
    return iterate(_powers, n, SchurSum.schur((n,)), step, k)
