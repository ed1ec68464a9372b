"""Closed-form walk counts, blocks-of-size-two-or-more Stirling numbers,
and exact truncated exponential generating functions.

Everything here is exact integer arithmetic: a series is held as its
counts a_k = k! c_k, products are binomial convolutions, and the walk
series divides by ell! exactly, once per count.  The checks are
equalities rather than tolerances.  Only ``partitions`` is imported, the
formula's regime test included, so the route stays independent of the
walks it checks.  ``fractions`` (with ``decimal`` and ``numbers`` behind
it) is imported only where a coefficient a_k / k! is read.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import islice
from math import comb, factorial
from operator import add, index, sub

from .partitions import (
    Partition,
    _standard_tableaux_count,
    bijection_regime_ok,
    check_count,
    check_partition,
    weight,
)


def _p2_rows(k: int):
    """Rows p2(0..k, m) for m = 0, 1, ..., k // 2, each built from the one
    before by p2(n, m) = m*p2(n-1, m) + (n-1)*p2(n-2, m-1): the element n
    joins one of the m blocks of a partition of the others, or forms a
    block of two with one of them.  Rows of larger m are zero."""
    row = [1] + [0] * k
    yield row
    for m in range(1, k // 2 + 1):
        prev, row = row, [0] * (k + 1)
        for n in range(2 * m, k + 1):
            row[n] = m * row[n - 1] + (n - 1) * prev[n - 2]
        yield row


# typed, so 6.0 never finds the entry of 6 and always reaches the index
@lru_cache(maxsize=None, typed=True)
def p2(n: int, m: int) -> int:
    """Set partitions of an n-set into m blocks, every block of size >= 2."""
    n, m = index(n), index(m)
    if n < 0 or m < 0 or n < 2 * m:
        return 0
    return next(islice(_p2_rows(n), m, None))[n]


# the rows of p2 up to the order of the running ``egf_check``, or () outside
# one: p2(n, m) does not depend on how far a row goes, so every k of a check
# reads the one table instead of rebuilding its rows.  A lone formula sum
# builds its own rows, two at a time, and holds no table.
_p2_held: tuple[list[int], ...] = ()


@cache
def _formula_sum(k: int, ell: int) -> int:
    """The double sum of ``multiplicity_formula`` over fixed points m1 and
    blocks m2 (k letters, ell cells below the first row), read off one pass
    over the rows of p2."""
    top = min(ell, k)
    choose_k = [comb(k, m1) for m1 in range(top + 1)]
    held = _p2_held
    rows = held[: k // 2 + 1] if held and len(held[0]) > k else _p2_rows(k)
    total = 0
    for m2, row in enumerate(rows):
        for m1 in range(max(0, ell - m2), top + 1):
            total += choose_k[m1] * comb(m2, ell - m1) * row[k - m1]
    return total


def multiplicity_formula(n: int, k: int, lam: Partition) -> int:
    """Multiplicity of the lam-irreducible in the k-th power of the
    (n-1,1) character, valid when n >= k + second part of lam.

    Counts the pairs (T, pi): the standard-tableau factor fills the
    truncated shape, the outer sum picks fixed points, the inner sum
    splits the rest into blocks of size >= 2 and selects which block
    maxima label cells.
    """
    n, k, lam = index(n), check_count(k), check_partition(lam)
    if weight(lam) != n:
        raise ValueError(f"lam must be a partition of {n}")
    if not bijection_regime_ok(n, k, lam):
        raise ValueError(
            f"formula regime requires n >= k + second part; "
            f"got n={n}, k={k}, lam={lam}"
        )
    ell = n - (lam[0] if lam else 0)  # cells of the truncated shape
    return _standard_tableaux_count(lam[1:]) * _formula_sum(k, ell)


def _pascal_rows(K: int):
    """Rows C(n, 0..n) for n = 0..K, each built from the one before."""
    row = [1]
    for _ in range(K + 1):
        yield row
        row = [1, *(a + b for a, b in zip(row, row[1:])), 1]


class TruncatedEGF:
    """Exponential generating function truncated at order K, held as its
    integer counts a_0..a_K: the coefficient of x^k is a_k / k!.

    A product is the binomial convolution of the counts, and exp solves
    g' = f'g on them, so the arithmetic never leaves the integers.  exp
    requires a zero constant term.
    """

    __slots__ = ("counts",)

    def __init__(self, counts):
        self.counts = tuple(map(index, counts))
        if not self.counts:
            raise ValueError("need at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, k: int) -> Fraction:
        """The coefficient c_k = a_k / k!."""
        from fractions import Fraction

        return Fraction(self.counts[k], factorial(k))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedEGF):
            return NotImplemented
        return self.counts == other.counts

    def __add__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        return TruncatedEGF(map(add, self.counts, other.counts))

    def __sub__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        return TruncatedEGF(map(sub, self.counts, other.counts))

    def __mul__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        """a_n = sum_i C(n, i) f_i g_{n-i}: the product of the series."""
        K = min(self.order, other.order)
        f, g = self.counts, other.counts
        return TruncatedEGF(
            sum(c * f[i] * g[n - i] for i, c in enumerate(row))
            for n, row in enumerate(_pascal_rows(K))
        )

    def pow(self, e: int) -> "TruncatedEGF":
        """The e-th power by repeated squaring, about 2 log2(e) products."""
        e = check_count(e, "exponent")
        out, square = TruncatedEGF.one(self.order), self
        while e:
            if e & 1:
                out = out * square
            e >>= 1
            if e:
                square = square * square
        return out

    def exp(self) -> "TruncatedEGF":
        """exp of a series with zero constant term, exactly truncated.

        g = exp(f) solves g' = f'g, so g_0 = 1 and g_n is the sum over
        j = 1..n of C(n-1, j-1) f_j g_{n-j}: O(K^2) products."""
        f = self.counts
        if f[0] != 0:
            raise ValueError("exp needs a zero constant term")
        g = [1]
        for n, row in enumerate(_pascal_rows(self.order - 1), 1):
            g.append(sum(c * f[j + 1] * g[n - 1 - j] for j, c in enumerate(row)))
        return TruncatedEGF(g)

    @staticmethod
    def one(K: int) -> "TruncatedEGF":
        return TruncatedEGF([1] + [0] * check_count(K, "order"))

    @staticmethod
    def x(K: int) -> "TruncatedEGF":
        K = check_count(K, "order")
        return TruncatedEGF([0, 1] + [0] * (K - 1) if K else [0])

    @staticmethod
    def exp_x(K: int) -> "TruncatedEGF":
        return TruncatedEGF([1] * (check_count(K, "order") + 1))

    def __repr__(self) -> str:
        return "TruncatedEGF(" + ", ".join(map(str, self.counts)) + ")"


def no_small_blocks_egf(K: int) -> TruncatedEGF:
    """exp(e^x - x - 1): blocks of size >= 2, exponentially weighted."""
    return (TruncatedEGF.exp_x(K) - TruncatedEGF.x(K) - TruncatedEGF.one(K)).exp()


def egf_rhs(lambda_bar: Partition, K: int) -> TruncatedEGF:
    """Series whose k-th count counts walks ending at the shape lambda_bar
    extended by a long first row:

        f / ell! * exp(e^x - x - 1) * (e^x - 1)^ell

    with ell the weight of lambda_bar and f its standard-tableau count;
    ell! divides every count exactly, and a remainder aborts loudly."""
    lambda_bar = check_partition(lambda_bar)
    ell = weight(lambda_bar)
    if K < ell:
        raise ValueError(f"order {K} below the weight {ell} of {lambda_bar}")
    em1 = TruncatedEGF.exp_x(K) - TruncatedEGF.one(K)
    rhs = no_small_blocks_egf(K) * em1.pow(ell)
    f, blocks = _standard_tableaux_count(lambda_bar), factorial(ell)
    counts, rems = zip(*(divmod(f * a, blocks) for a in rhs.counts))
    if any(rems):
        raise ArithmeticError(f"a count is not divisible by {ell}!")
    return TruncatedEGF(counts)


def egf_check(lambda_bar: Partition, K: int) -> list[dict]:
    """Compare each count of the series with the closed formula.

    For each ell <= k <= K the formula is evaluated at the smallest valid
    weight (k plus the largest part of lambda_bar) and again one higher,
    which also exercises the independence of that choice.  The rows of p2
    up to K are built once and shared by every k.  Returns one report row
    per k."""
    global _p2_held
    lambda_bar = check_partition(lambda_bar)
    ell = weight(lambda_bar)
    series = egf_rhs(lambda_bar, K)
    top = lambda_bar[0] if lambda_bar else 0
    rows = []
    _p2_held = tuple(_p2_rows(K))
    try:
        for k in range(ell, K + 1):
            egf_count = series.counts[k]
            base = k + top
            if base - ell < 1:  # the added part is at least 1
                base = ell + 1
            formula_counts = []
            for n_k in (base, base + 1):
                lam = tuple(sorted(lambda_bar + (n_k - ell,), reverse=True))
                formula_counts.append(multiplicity_formula(n_k, k, lam))
            rows.append(
                {
                    "k": k,
                    "formula": str(formula_counts[0]),
                    "egf": str(egf_count),
                    "ok": formula_counts[0] == formula_counts[1] == egf_count,
                }
            )
    finally:
        _p2_held = ()
    return rows
