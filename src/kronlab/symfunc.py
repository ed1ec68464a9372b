"""Homogeneous symmetric functions in the Schur basis, exact integers.

The core object is :class:`SchurSum`, a formal integer combination of
Schur functions of one common degree.  Multiplication expands through the
Littlewood-Richardson rule, ``perp`` is the adjoint of multiplication
under the Hall scalar product, and the ``h``-side operations expand
products of complete homogeneous functions; ``h_determinant`` expands
the operator's determinant and Jacobi-Trudi's s_lam = det(h_{lam_i-i+j}).

One engine counts LR fillings: a product of two Schur functions is built
from them directly, adding the content of the smaller factor one label
at a time as a horizontal strip, and is memoised per pair.  The strips
of one label on one partial filling (``_lattice_strips``) recur across
product pairs, so they are memoised once for all pairs, as tuples; each
shape and row-count tuple they store is the one object held for it in
``_shared``, and those shapes are also the keys of the product memo.
``lr_coefficient`` reads its coefficient from that per-pair memo, and a
skew s_lam/gamma is expanded from those coefficients once per pair
(lam, gamma) and memoised.  It runs only over the shapes alpha inside
lam for which lam/alpha fits gamma's box, alpha_i >= lam_(i+len(gamma))
and alpha_i >= lam_i - gamma_1 (``partitions.partitions_inside`` with
that floor): an LR filling of lam/alpha with content gamma has at most
len(gamma) cells in a column, and as c^lam_{gamma alpha} =
c^lam'_{gamma' alpha'} (Macdonald I.9) at most gamma_1 cells in a row.
The memoised dicts are shared, so callers only read them.

``skew_then_multiply`` is the one composite behind the operator route
(``kron_ops.apply``).  It takes a list of (coefficient, nu-tuple) terms,
each the map f -> (multiply by every s_nu)(skew by every s_nu)(f), and
collects them, as given, before applying them (``build_operator`` has
merged its own).  Each term's product P_t = prod s_nu is expanded once.
The sum is then sum_{a,b} m[b][a] s_a s_b^perp, with
m[b][a] = sum_t coeff_t P_t[a] P_t[b]: f is skewed once by each b, the
skews are gathered per a, and each gathered sum is multiplied by s_a
once.  Row m[b] is built only when the skew by b leaves something, and
memoised per term tuple.  It works on term dicts through the two private
helpers that ``perp`` and ``multiply`` are built on, ``_skew`` and
``_add_products``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cache

from .partitions import (
    Partition,
    canonical_sort,
    check_partition,
    checked_front,
    contains,
    partitions_inside,
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

    def __reduce__(self):
        return SchurSum, (self.degree, self.terms)

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


@cache
def _lr_coefficient(gamma: Partition, alpha: Partition, mu: Partition) -> int:
    """``lr_coefficient`` of checked partitions, memoised."""
    g, a = weight(gamma), weight(alpha)
    if g + a != weight(mu):
        return 0
    if not contains(mu, gamma) or not contains(mu, alpha):
        return 0
    big, small = (gamma, alpha) if g >= a else (alpha, gamma)
    return _schur_product_terms(big, small).get(mu, 0)


@checked_front(_lr_coefficient)
def lr_coefficient(gamma: Partition, alpha: Partition, mu: Partition) -> int:
    """Littlewood-Richardson coefficient of s_mu in s_gamma * s_alpha.

    Read from the memoised product of the pair, which is shared with
    ``multiply`` and only read.  By c^mu_{gamma alpha} = c^mu_{alpha gamma}
    the factor of smaller weight is the content, the first argument on a
    tie, as in ``multiply``; so the skew by nu and the product by s_nu of
    the operator route read the same memo entries.  The partitions are
    checked before the memo, ``_lr_coefficient``, is read.
    """
    return _lr_coefficient(check_partition(gamma), check_partition(alpha), check_partition(mu))


@cache
def _schur_product_terms(gamma: Partition, alpha: Partition) -> dict[Partition, int]:
    """Littlewood-Richardson coefficients of s_gamma * s_alpha, by shape.

    Builds the LR fillings of mu/gamma with content alpha directly, one
    label at a time: the cells labelled i+1 form a horizontal strip on the
    shape filled so far, and the reverse reading word stays a lattice
    word, i.e. for each row r the labels i+1 in rows <= r are no more than
    the labels i in rows < r.  Partial fillings with the same shape and
    the same per-row count of the last label continue alike, so each such
    state is carried once with its number of fillings.
    """
    states: dict[tuple[Partition, Partition | None], int] = {(gamma, None): 1}
    for size in alpha:
        grown: dict[tuple[Partition, Partition | None], int] = {}
        for (shape, last), ways in states.items():
            for state in _lattice_strips(shape, last, size):
                grown[state] = grown.get(state, 0) + ways
        states = grown
    out: dict[Partition, int] = {}
    for (mu, _), ways in states.items():
        out[mu] = out.get(mu, 0) + ways
    return out


# one shared object per distinct shape or row-count tuple in the strip
# memo; dict.setdefault on int tuples is atomic, so threads may share it
_shared: dict[tuple[int, ...], tuple[int, ...]] = {}


@cache
def _lattice_strips(
    shape: Partition, last: Partition | None, size: int
) -> tuple[tuple[Partition, Partition], ...]:
    """Every horizontal strip of ``size`` cells of the next label on
    ``shape`` that keeps the reading word a lattice word, as (new shape,
    per-row count of the new label).  ``last`` is the per-row count of the
    previous label, or None for the first label, which is unconstrained.

    Memoised across product pairs, and every stored shape and row count
    is the one ``_shared`` object equal to it.
    """
    rows = len(shape)
    below = shape + (0,)
    freed = (last or ()) + (0,) * (rows + 1 - len(last or ()))
    grown = list(below)
    counts = [0] * (rows + 1)
    out = []
    share = _shared.setdefault

    def place(r: int, left: int, allow: int) -> None:
        # allow: labels i in rows < r minus labels i+1 placed in rows < r;
        # rows below r hold at most below[r] cells of a horizontal strip
        while not (most := min(left, allow, left if r == 0 else below[r - 1] - below[r])):
            # row r takes no cell; left <= below[r] as the content is a partition
            allow += freed[r]
            r += 1
        for k in range(most, max(0, left - below[r]) - 1, -1):
            counts[r] = k
            grown[r] = below[r] + k
            if k < left:
                place(r + 1, left - k, allow - k + freed[r])
                continue
            new = tuple(grown) if grown[rows] else tuple(grown[:rows])
            placed = tuple(counts[: r + 1])
            out.append((share(new, new), share(placed, placed)))
        counts[r] = 0
        grown[r] = below[r]

    place(0, size, size if last is None else 0)
    del place  # it refers to itself: break the cycle so no garbage is left
    return tuple(out)


def multiply(f: SchurSum, g: SchurSum) -> SchurSum:
    """Product of two Schur sums; degrees add.  Every term must be a
    partition."""
    for p in (*f.terms, *g.terms):
        check_partition(p)
    result: dict[Partition, int] = {}
    _add_products(result, f.terms, f.degree, g.terms, g.degree)
    return SchurSum(f.degree + g.degree, result)


def _add_products(
    result: dict[Partition, int],
    f: dict[Partition, int],
    f_degree: int,
    g: dict[Partition, int],
    g_degree: int,
) -> None:
    """Add the product of the term dicts f and g into ``result``."""
    # c^mu_{pq} = c^mu_{qp}: the factor of smaller weight is the content
    big, small = (f, g) if f_degree >= g_degree else (g, f)
    get = result.get
    for p, cp in big.items():
        for q, cq in small.items():
            c = cp * cq
            for mu, lr in _schur_product_terms(p, q).items():
                result[mu] = get(mu, 0) + c * lr


@cache
def _skew_terms(lam: Partition, gamma: Partition) -> dict[Partition, int]:
    """s_lam/gamma in the Schur basis: {alpha: c^lam_{gamma alpha}}."""
    if not contains(lam, gamma):
        return {}
    # an LR filling of lam/alpha with content gamma puts at most len(gamma)
    # cells in a column, and as c^lam_{gamma alpha} = c^lam'_{gamma' alpha'}
    # at most gamma_1 in a row, so alpha_i >= lam_(i+len(gamma)) and
    # alpha_i >= lam_i - gamma_1 (Macdonald I.9): lam/alpha fits gamma's box
    width = gamma[0] if gamma else 0
    shifted = lam[len(gamma) :] + (0,) * len(gamma)
    floor = tuple(f for f in map(max, shifted, [part - width for part in lam]) if f > 0)
    out = {}
    for alpha in partitions_inside(lam, weight(lam) - weight(gamma), floor):
        lr = _lr_coefficient(gamma, alpha, lam)
        if lr:
            out[alpha] = lr
    return out


def perp(gamma: Partition, f: SchurSum) -> SchurSum:
    """Adjoint of multiplication by s_gamma: skews every term by gamma.
    Every term must be a partition."""
    gamma = check_partition(gamma)
    for p in f.terms:
        check_partition(p)
    d = f.degree - weight(gamma)
    if d < 0:
        return SchurSum.zero(0)
    return SchurSum(d, _skew(gamma, f.terms))


def _skew(gamma: Partition, f: dict[Partition, int]) -> dict[Partition, int]:
    """The term dict f skewed by s_gamma."""
    result: dict[Partition, int] = {}
    for lam, c in f.items():
        for alpha, lr in _skew_terms(lam, gamma).items():
            result[alpha] = result.get(alpha, 0) + c * lr
    return result


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
    del expand  # it refers to itself: break the cycle so no garbage is left
    return {p: c for p, c in acc.items() if c}


@cache
def _h_to_schur(indices: Partition) -> SchurSum:
    """``h_to_schur`` of a checked partition, memoised."""
    out = SchurSum.schur(())
    for r in indices:
        out = multiply(out, SchurSum.schur((r,)))
    return out


@checked_front(_h_to_schur)
def h_to_schur(indices: Partition) -> SchurSum:
    """Expand h_indices in the Schur basis (Kostka-positive).  The indices
    are checked before the memo, ``_h_to_schur``, is read."""
    return _h_to_schur(check_partition(indices))


def skew_then_multiply(
    terms: Iterable[tuple[int, tuple[Partition, ...]]], f: SchurSum
) -> SchurSum:
    """Sum over (coeff, nus) of coeff times the composite (multiply by
    every s_nu) after (skew by every s_nu), applied to f.

    Applied collected (``_Collected``): f is skewed once by each b that
    leaves something, the skews are gathered per a, and each gathered sum
    is multiplied by s_a once.  The identity term is added directly.
    Every term of f must be a partition.
    """
    for p in f.terms:
        check_partition(p)
    op = _collected(terms if isinstance(terms, tuple) else tuple(terms))
    result = {p: op.identity * c for p, c in f.terms.items()} if op.identity else {}
    gathered: dict[Partition, dict[Partition, int]] = {}
    for b in op.columns:
        if weight(b) > f.degree:
            break
        skewed = _skew(b, f.terms)
        if not skewed:
            continue
        for a, c in op.row(b).items():
            g = gathered.setdefault(a, {})
            for p, v in skewed.items():
                g[p] = g.get(p, 0) + c * v
    for a, g in gathered.items():
        size = weight(a)
        _add_products(result, {a: 1}, size, g, f.degree - size)
    return SchurSum(f.degree, result)


class _Collected:
    """A signed sum of composites, collected as sum_{a,b} m[b][a] s_a s_b^perp
    (see the module docstring).

    ``identity`` is m[()][()], summed over the terms with no nu; the other
    terms are summed as given, unmerged.
    ``columns`` lists every other b with some P_t[b] != 0, lightest first.
    ``row(b)`` builds row m[b] when first asked for and memoises it; m is
    block diagonal by weight and symmetric.
    """

    __slots__ = ("identity", "columns", "_by_weight", "_rows")

    def __init__(self, terms: tuple[tuple[int, tuple[Partition, ...]], ...]):
        self.identity = 0
        self._by_weight: dict[int, list[tuple[int, dict[Partition, int]]]] = {}
        self._rows: dict[Partition, dict[Partition, int]] = {}
        columns: set[Partition] = set()
        for coeff, nus in terms:
            if not nus:
                self.identity += coeff
                continue
            size, product = 0, {(): 1}
            for nu in map(check_partition, nus):
                grown: dict[Partition, int] = {}
                _add_products(grown, product, size, {nu: 1}, weight(nu))
                size, product = size + weight(nu), grown
            self._by_weight.setdefault(size, []).append((coeff, product))
            columns.update(product)
        self.columns = sorted(columns, key=weight)

    def row(self, b: Partition) -> dict[Partition, int]:
        """Row m[b]: {a: m[b][a]}, without zero entries."""
        row = self._rows.get(b)
        if row is None:
            acc: dict[Partition, int] = {}
            for coeff, product in self._by_weight[weight(b)]:
                if pb := product.get(b):
                    c = coeff * pb
                    for a, pa in product.items():
                        acc[a] = acc.get(a, 0) + c * pa
            row = self._rows[b] = {a: c for a, c in acc.items() if c}
        return row


@cache
def _collected(terms: tuple[tuple[int, tuple[Partition, ...]], ...]) -> _Collected:
    """The collected form of a term tuple, memoised per tuple."""
    return _Collected(terms)


def schur_sum_to_json(f: SchurSum) -> dict:
    """JSON form: degree plus canonical-order terms, big-int-safe coeffs."""
    return {
        "degree": f.degree,
        "terms": [
            {"partition": list(p), "coeff": str(c)} for p, c in f.items()
        ],
    }

