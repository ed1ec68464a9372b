"""Closed-form walk counts, blocks-of-size-two-or-more Stirling numbers,
and exact truncated exponential generating functions.

Everything here is exact: counts are big integers, series coefficients
are rationals, and the generating-function checks are equalities rather
than tolerances.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial

from .partitions import Partition, check_partition, standard_tableaux_count, weight
from .tableaux import bijection_regime_ok


@cache
def p2(n: int, m: int) -> int:
    """Set partitions of an n-set into m blocks, every block of size >= 2.

    Recurrence: p2(n, m) = m*p2(n-1, m) + (n-1)*p2(n-2, m-1)."""
    if n < 0 or m < 0:
        return 0
    if n < 2 * m:
        return 0
    if m == 0:
        return 1 if n == 0 else 0
    return m * p2(n - 1, m) + (n - 1) * p2(n - 2, m - 1)


def multiplicity_formula(n: int, k: int, lam: Partition) -> int:
    """Multiplicity of the lam-irreducible in the k-th power of the
    (n-1,1) character, valid when n >= k + second part of lam.

    Counts the pairs (T, pi): the standard-tableau factor fills the
    truncated shape, the outer sum picks fixed points, the inner sum
    splits the rest into blocks of size >= 2 and selects which block
    maxima label cells.
    """
    lam = check_partition(lam)
    if weight(lam) != n:
        raise ValueError(f"lam must be a partition of {n}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not bijection_regime_ok(n, k, lam):
        raise ValueError(
            f"formula regime requires n >= k + second part; "
            f"got n={n}, k={k}, lam={lam}"
        )
    ell = n - (lam[0] if lam else 0)  # cells of the truncated shape
    total = 0
    for m1 in range(0, ell + 1):
        inner = 0
        for m2 in range(ell - m1, (k - m1) // 2 + 1):
            inner += comb(m2, ell - m1) * p2(k - m1, m2)
        total += comb(k, m1) * inner
    return standard_tableaux_count(lam[1:]) * total


class TruncatedEGF:
    """Power series with exact rational coefficients c_0..c_K.

    Addition, multiplication and exponentiation stay closed at the
    truncation order; exp requires a zero constant term.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("need at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedEGF):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        K = min(self.order, other.order)
        return TruncatedEGF(
            [self.coeffs[i] + other.coeffs[i] for i in range(K + 1)]
        )

    def __sub__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        K = min(self.order, other.order)
        return TruncatedEGF(
            [self.coeffs[i] - other.coeffs[i] for i in range(K + 1)]
        )

    def __mul__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        K = min(self.order, other.order)
        out = [Fraction(0)] * (K + 1)
        for i, ci in enumerate(self.coeffs[: K + 1]):
            if not ci:
                continue
            for j in range(0, K + 1 - i):
                cj = other.coeffs[j]
                if cj:
                    out[i + j] += ci * cj
        return TruncatedEGF(out)

    def scale(self, c) -> "TruncatedEGF":
        c = Fraction(c)
        return TruncatedEGF([c * x for x in self.coeffs])

    def pow(self, e: int) -> "TruncatedEGF":
        out = TruncatedEGF.one(self.order)
        for _ in range(e):
            out = out * self
        return out

    def exp(self) -> "TruncatedEGF":
        """exp of a series with zero constant term, exactly truncated.

        g = exp(f) solves g' = f'g, so g_0 = 1 and
        n g_n = sum_{j=1..n} j f_j g_{n-j}, which takes O(K^2) products."""
        f = self.coeffs
        if f[0] != 0:
            raise ValueError("exp needs a zero constant term")
        g = [Fraction(1)]
        for n in range(1, self.order + 1):
            terms = (j * f[j] * g[n - j] for j in range(1, n + 1) if f[j])
            g.append(sum(terms, Fraction(0)) / n)
        return TruncatedEGF(g)

    @staticmethod
    def one(K: int) -> "TruncatedEGF":
        return TruncatedEGF([1] + [0] * K)

    @staticmethod
    def x(K: int) -> "TruncatedEGF":
        return TruncatedEGF([0, 1] + [0] * (K - 1)) if K >= 1 else TruncatedEGF([0])

    @staticmethod
    def exp_x(K: int) -> "TruncatedEGF":
        return TruncatedEGF([Fraction(1, factorial(j)) for j in range(K + 1)])

    def __repr__(self) -> str:
        return "TruncatedEGF(" + ", ".join(str(c) for c in self.coeffs) + ")"


def no_small_blocks_egf(K: int) -> TruncatedEGF:
    """exp(e^x - x - 1): blocks of size >= 2, exponentially weighted."""
    return (TruncatedEGF.exp_x(K) - TruncatedEGF.x(K) - TruncatedEGF.one(K)).exp()


def egf_rhs(lambda_bar: Partition, K: int) -> TruncatedEGF:
    """Series whose k-th coefficient times k! counts walks ending at the
    shape lambda_bar extended by a long first row:

        f / ell! * exp(e^x - x - 1) * (e^x - 1)^ell

    with ell the weight of lambda_bar and f its standard-tableau count."""
    lambda_bar = check_partition(lambda_bar)
    ell = weight(lambda_bar)
    if K < ell:
        raise ValueError(f"order {K} below the weight {ell} of {lambda_bar}")
    em1 = TruncatedEGF.exp_x(K) - TruncatedEGF.one(K)
    rhs = no_small_blocks_egf(K) * em1.pow(ell)
    return rhs.scale(Fraction(standard_tableaux_count(lambda_bar), factorial(ell)))


def egf_check(lambda_bar: Partition, K: int) -> list[dict]:
    """Compare k! times each series coefficient with the closed formula.

    For each ell <= k <= K the formula is evaluated at the smallest valid
    weight (k plus the largest part of lambda_bar) and again one higher,
    which also exercises the independence of that choice.  Returns one
    report row per k."""
    lambda_bar = check_partition(lambda_bar)
    ell = weight(lambda_bar)
    series = egf_rhs(lambda_bar, K)
    top = lambda_bar[0] if lambda_bar else 0
    rows = []
    for k in range(ell, K + 1):
        value = series[k] * factorial(k)
        egf_count = int(value) if value.denominator == 1 else value
        ok = value.denominator == 1
        base = k + top
        if base - ell < 1:  # the added part must be positive
            base = ell + 1
        formula_counts = []
        for n_k in (base, base + 1):
            lam = tuple(sorted(lambda_bar + (n_k - ell,), reverse=True))
            formula_counts.append(multiplicity_formula(n_k, k, lam))
        ok = ok and formula_counts[0] == formula_counts[1] == egf_count
        rows.append(
            {
                "k": k,
                "formula": str(formula_counts[0]),
                "egf": str(egf_count),
                "ok": ok,
            }
        )
    return rows
