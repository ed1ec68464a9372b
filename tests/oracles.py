"""Independent brute-force oracles used to freeze expected values.

Nothing here calls back into the routines under test: polynomials are
expanded monomial by monomial, tableaux, LR fillings, set partitions and
walks are listed exhaustively, partitions are filtered from all
compositions, walk steps are recomputed cell by cell, character values
come from border-strip removal, added strips from splicing shape tuples,
Kronecker products from one projection per irreducible, containment row
by row, the partition function comes from the pentagonal recurrence,
products of series from their plain coefficient products,
exponentials of series from their power sums, corners from the row
lengths and the Hall scalar product from equal-shape coefficients.
"""

from bisect import bisect_left
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import comb, factorial


@cache
def ssyt_polynomial(shape, nvars):
    """Schur polynomial in nvars variables as {exponent tuple: coeff},
    by listing semistandard tableaux (rows weak, columns strict).

    Memoised: the returned Counter is shared, so callers only read it."""
    shape = tuple(shape)
    if not shape:
        return Counter({(0,) * nvars: 1})
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    grid = [[0] * shape[r] for r in range(len(shape))]
    out = Counter()

    def fill(i):
        if i == len(cells):
            expo = [0] * nvars
            for r, c in cells:
                expo[grid[r][c] - 1] += 1
            out[tuple(expo)] += 1
            return
        r, c = cells[i]
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])
        if r > 0 and c < shape[r - 1]:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, nvars + 1):
            grid[r][c] = v
            fill(i + 1)
        grid[r][c] = 0

    fill(0)
    return out


def polynomial_product(a, b):
    out = Counter()
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[tuple(x + y for x, y in zip(ea, eb))] += ca * cb
    return +out


@cache
def standard_fillings_count(shape):
    """Standard tableaux of a shape, counted by peeling the largest label
    off every removable cell in turn (no hook lengths involved)."""
    shape = tuple(shape)
    if not shape:
        return 1
    total = 0
    for i in range(len(shape)):
        if i + 1 == len(shape) or shape[i + 1] < shape[i]:
            smaller = list(shape)
            smaller[i] -= 1
            if smaller[-1] == 0:
                smaller.pop()
            total += standard_fillings_count(tuple(smaller))
    return total


@cache
def vandermonde(m):
    """a_delta = det(x_i^(m-1-j)) in m variables, as {exponent tuple: sign}."""
    from itertools import permutations

    out = {}
    for sigma in permutations(range(m)):
        inversions = sum(sigma[i] > sigma[j] for i in range(m) for j in range(i + 1, m))
        out[tuple(m - 1 - s for s in sigma)] = (-1) ** inversions
    return out


@cache
def power_sum_product(gamma, m):
    """p_gamma = prod_r (x_1^r + ... + x_m^r) as {exponent tuple: coeff},
    one factor at a time, so partitions with a common prefix share work."""
    if not gamma:
        return Counter({(0,) * m: 1})
    r = gamma[-1]
    power_sum = Counter({tuple(r if j == i else 0 for j in range(m)): 1 for i in range(m)})
    return polynomial_product(power_sum_product(gamma[:-1], m), power_sum)


def frobenius_character(lam, gamma):
    """Irreducible character value chi^lam(gamma) by Frobenius' formula: the
    coefficient of x^(lam + delta) in a_delta * p_gamma, in len(lam)
    variables.  Plain polynomial arithmetic; no beta-numbers, no border
    strips."""
    lam, m = tuple(lam), len(lam)
    target = [part + m - 1 - i for i, part in enumerate(lam)]
    a_delta = vandermonde(m)
    return sum(
        coeff * a_delta.get(tuple(t - e for t, e in zip(target, expo)), 0)
        for expo, coeff in power_sum_product(tuple(gamma), m).items()
    )


@cache
def mn_character(lam, gamma):
    """Irreducible character value chi^lam(gamma) by the Murnaghan-Nakayama
    rule in the removal direction: strip a border strip of size gamma[0]
    off lam in every way, with sign (-1)^height, and recurse on the rest of
    gamma.  On beta-numbers (first-column hook lengths) removing a strip of
    size r moves one beta-number down by r, and its height is the number of
    beta-numbers jumped over.  Recursion depth is len(gamma)."""
    lam, gamma = tuple(lam), tuple(gamma)
    if not gamma:
        return 1
    r, rest = gamma[0], gamma[1:]
    beta = [part + i for i, part in enumerate(reversed(lam))]  # ascending
    total = 0
    for j in range(bisect_left(beta, r), len(beta)):
        low = beta[j] - r
        pos = bisect_left(beta, low)
        if beta[pos] == low:
            continue
        new = beta[:pos] + [low] + beta[pos:j] + beta[j + 1 :]
        parts = tuple(x - i for i, x in enumerate(new) if x > i)[::-1]
        total += (-1 if (j - pos) % 2 else 1) * mn_character(parts, rest)
    return total


def border_strips(lam, r):
    """Every shape made by adding a border strip of size r to lam, with the
    sign (-1)^height of the strip, by splicing shape tuples: the
    beta-number of row j moves up by r and lands at row p, and rows
    p..j-1, the strip's height, each move down one row and gain a cell."""
    lam = tuple(lam)
    rows = lam + (0,) * r  # a strip adds at most r rows
    top = len(rows) - 1
    beta = [part + top - i for i, part in enumerate(rows)]  # descending
    out = []
    p = 0
    for j, b in enumerate(beta):
        while beta[p] > b + r:
            p += 1
        if beta[p] == b + r:
            continue
        moved = tuple(x + 1 for x in rows[p:j])
        shape = lam[:p] + (rows[j] + r - (j - p),) + moved + lam[j + 1 :]
        out.append((shape, -1 if (j - p) % 2 else 1))
    return out


def kron_by_projection(partitions, values, lam, mu):
    """{alpha: multiplicity} of the product of the characters lam and mu,
    projected onto each irreducible alpha on its own: (1/n!) times the sum
    over classes of class size times chi^lam chi^mu chi^alpha, from a
    character table given as its partitions (rows and columns alike) and
    its rows of values.  Class sizes are n! over the centralizer order."""
    rows = dict(zip(partitions, values))
    n = sum(lam)
    sizes = []
    for rho in partitions:
        z = 1
        for part, m in Counter(rho).items():
            z *= part**m * factorial(m)
        sizes.append(factorial(n) // z)
    out = {}
    for alpha in partitions:
        total = sum(
            size * x * y * a for size, x, y, a in zip(sizes, rows[lam], rows[mu], rows[alpha])
        )
        assert total % factorial(n) == 0, (lam, mu, alpha)
        if total:
            out[alpha] = total // factorial(n)
    return out


def contains_rowwise(outer, inner):
    """Diagram containment by its definition: row i of inner is no longer
    than row i of outer, for every row, a missing row being empty."""
    return all(
        (inner[i] if i < len(inner) else 0) <= (outer[i] if i < len(outer) else 0)
        for i in range(max(len(outer), len(inner)))
    )


def lr_fillings(gamma, alpha, mu):
    """Littlewood-Richardson coefficient c^mu_{gamma alpha}, by listing the
    semistandard fillings of mu/gamma with content alpha whose reverse
    reading word (right to left along rows, longest row first) is a lattice
    word.  Cells are filled in reading order, one at a time, so the row,
    column and lattice constraints are checked as each cell is set."""
    gamma, alpha, mu = tuple(gamma), tuple(alpha), tuple(mu)
    if sum(gamma) + sum(alpha) != sum(mu):
        return 0

    def inside(small):
        return len(small) <= len(mu) and all(s <= m for s, m in zip(small, mu))

    if not inside(gamma) or not inside(alpha):
        return 0
    nrows = len(mu)
    inner = gamma + (0,) * (nrows - len(gamma))
    # both neighbours that constrain a cell come earlier in this order
    cells = [(r, c) for r in range(nrows) for c in range(mu[r] - 1, inner[r] - 1, -1)]
    maxval = len(alpha)
    grid = [[0] * mu[r] for r in range(nrows)]
    counts = [0] * (maxval + 1)
    total = 0

    def fill(idx):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        r, c = cells[idx]
        # the entry may not exceed its right neighbour
        hi = grid[r][c + 1] if c + 1 < mu[r] else maxval
        # and must exceed the cell above when that cell is in the skew
        lo = grid[r - 1][c] + 1 if r > 0 and c >= inner[r - 1] else 1
        for v in range(lo, hi + 1):
            if counts[v] >= alpha[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # the reading word would stop being a lattice word
            grid[r][c] = v
            counts[v] += 1
            fill(idx + 1)
            counts[v] -= 1
        grid[r][c] = 0

    fill(0)
    return total


def set_partitions(items):
    """All set partitions of a list, as lists of tuples."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [block + (first,)] + smaller[i + 1 :]
        yield [(first,)] + smaller


@cache
def partitions_listed(n):
    """All partitions of n in reverse lexicographic order, by keeping the
    weakly decreasing ones among all 2^(n-1) compositions of n."""
    found = []
    for cuts in range(1 << max(n - 1, 0)):
        ends = [i + 1 for i in range(n - 1) if cuts >> i & 1] + [n]
        parts = tuple(b - a for a, b in zip([0] + ends, ends)) if n else ()
        if list(parts) == sorted(parts, reverse=True):
            found.append(parts)
    return tuple(sorted(found, reverse=True))


@cache
def partition_count(n):
    """Partition function via the pentagonal number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if j % 2 == 0 else 1
        if g1 <= n:
            total += sign * partition_count(n - g1)
        if g2 <= n:
            total += sign * partition_count(n - g2)
        j += 1
    return total


def corner_rows(p):
    """0-based rows whose last cell is a corner of p."""
    return [i for i in range(len(p)) if i + 1 == len(p) or p[i + 1] < p[i]]


CornerSet = namedtuple("CornerSet", ("corners", "first_corner"))


def corners(p):
    """Removable cells of p, top row first, and the first corner: the
    corner on the topmost row of maximal length (None for no cells)."""
    p = tuple(p)
    cells = tuple((i + 1, p[i]) for i in reversed(corner_rows(p)))
    return CornerSet(cells, (p.count(p[0]), p[0]) if p else None)


def addable_rows(p):
    """0-based rows that can take one more cell, len(p) for a new row."""
    return [i for i in range(len(p)) if i == 0 or p[i] < p[i - 1]] + [len(p)]


def remove_corner(p, c):
    """Remove the corner cell c = (row, col), 1-based, from p; rejects
    any other cell."""
    p = tuple(p)
    row, col = c
    if row - 1 not in corner_rows(p) or p[row - 1] != col:
        raise ValueError(f"{c} is not a corner of {p}")
    smaller = list(p)
    smaller[row - 1] -= 1
    if smaller[-1] == 0:
        smaller.pop()
    return tuple(smaller)


def add_corner_positions(p):
    """Every partition one cell larger than p, the cell added bottom row
    first, which is their canonical order."""
    p = tuple(p)
    return [
        p[:j] + (p[j] + 1,) + p[j + 1 :] if j < len(p) else p + (1,) for j in addable_rows(p)
    ]


def walk_steps(p):
    """Legal walk steps from p as (next shape, mark), computed inline rather
    than through the library: every single-corner move to a different shape,
    then a stay marked (row, col) on each corner but the first, the corner
    on the topmost row of maximal length; moves in reverse lexicographic
    order, stays top row first."""
    p = tuple(p)
    moves = set()
    for i in corner_rows(p):
        smaller = list(p)
        smaller[i] -= 1
        if smaller[-1] == 0:
            smaller.pop()
        for j in addable_rows(smaller):
            bigger = smaller + [0] if j == len(smaller) else list(smaller)
            bigger[j] += 1
            if tuple(bigger) != p:
                moves.add(tuple(bigger))
    first = p.count(p[0]) - 1 if p else None
    stays = [(p, (i + 1, p[i])) for i in reversed(corner_rows(p)) if i != first]
    return [(q, None) for q in sorted(moves, reverse=True)] + stays


def walk_count_recursive(mu, lam, k):
    """Walk counter written from first principles on top of walk_steps."""
    mu, lam = tuple(mu), tuple(lam)

    @cache
    def count(p, steps):
        if steps == 0:
            return 1 if p == lam else 0
        return sum(count(q, steps - 1) for q, _ in walk_steps(p))

    return count(mu, k)


def walks_by_final_shape(mu, k):
    """Every length-k walk from mu over walk_steps, in depth-first order and
    unpruned, grouped by final shape as (shapes, marks) pairs."""
    steps = cache(walk_steps)
    out = {}

    def extend(shapes, marks):
        if len(marks) == k:
            out.setdefault(shapes[-1], []).append((shapes, marks))
            return
        for q, mark in steps(shapes[-1]):
            extend(shapes + (q,), marks + (mark,))

    extend((tuple(mu),), ())
    return out


@cache
def p2_recursive(n, m):
    """Set partitions of an n-set into m blocks of size >= 2, by
    p2(n, m) = m*p2(n-1, m) + (n-1)*p2(n-2, m-1): the element n joins one
    of the m blocks of a partition of the rest, or forms a block of two
    with one of the other n-1 elements."""
    if n < 2 * m or m < 0:
        return 0
    if m == 0:
        return 1 if n == 0 else 0
    return m * p2_recursive(n - 1, m) + (n - 1) * p2_recursive(n - 2, m - 1)


def formula_sum_rebuilt(k, ell):
    """The double sum of the closed formula, sum over fixed points m1 and
    blocks m2 of C(k, m1) C(m2, ell - m1) p2(k - m1, m2), with the rows of
    p2 rebuilt from scratch for this k: row m from row m - 1 by
    p2(n, m) = m*p2(n-1, m) + (n-1)*p2(n-2, m-1)."""
    rows, row = [], [1] + [0] * k
    rows.append(row)
    for m in range(1, k // 2 + 1):
        prev, row = row, [0] * (k + 1)
        for n in range(2 * m, k + 1):
            row[n] = m * row[n - 1] + (n - 1) * prev[n - 2]
        rows.append(row)
    top = min(ell, k)
    return sum(
        comb(k, m1) * comb(m2, ell - m1) * row[k - m1]
        for m2, row in enumerate(rows)
        for m1 in range(max(0, ell - m2), top + 1)
    )


def singleton_free_partitions(k):
    """Set partitions of a k-set with no singleton block, by inclusion and
    exclusion over the singletons: sum_j (-1)^(k-j) C(k, j) B_j, with the
    Bell numbers B_j read off the Bell triangle."""
    row, bells = [1], [1]
    for _ in range(k):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        bells.append(row[0])
    return sum((-1) ** (k - j) * comb(k, j) * bells[j] for j in range(k + 1))


def series_product(f, g):
    """The product of two power series by their plain (Cauchy) product of
    coefficients, truncated at the lower of the two orders."""
    K = min(len(f), len(g)) - 1
    return [sum(f[a] * g[i - a] for a in range(i + 1)) for i in range(K + 1)]


def exp_series(f):
    """exp of a power series f_0..f_K with zero constant term, truncated at
    order K: the sum of f**j / j! for j <= K, by plain list products."""
    K = len(f) - 1
    out = [Fraction(0)] * (K + 1)
    power = [Fraction(1)] + [Fraction(0)] * K
    for j in range(K + 1):
        out = [o + c / factorial(j) for o, c in zip(out, power)]
        power = series_product(power, f)
    return out


def decreasing_cycle_permutations(k):
    """All permutations of 1..k whose nontrivial cycles are decreasing,
    given as tuples of cycles (greatest first, sorted by greatest)."""
    out = []
    for images in permutations(range(1, k + 1)):
        mapping = {i + 1: images[i] for i in range(k)}
        seen, cycles, ok = set(), [], True
        for start in range(1, k + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = mapping[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = mapping[x]
            top = cyc.index(max(cyc))
            cyc = cyc[top:] + cyc[:top]
            if any(b >= a for a, b in zip(cyc, cyc[1:])):
                ok = False
                break
            cycles.append(tuple(cyc))
        if ok:
            out.append(tuple(sorted(cycles)))
    return out


def partial_standard_tableaux(k):
    """Every partial standard tableau labelled in 1..k, as rows (bottom row
    first): each subset of the labels written in increasing order, each
    label into any cell that can be added to the shape so far."""
    out = []

    def grow(rows, labels):
        if not labels:
            out.append(rows)
            return
        for i in addable_rows([len(r) for r in rows]):
            bigger = list(rows) + [()] if i == len(rows) else list(rows)
            bigger[i] += (labels[0],)
            grow(tuple(bigger), labels[1:])

    for size in range(k + 1):
        for labels in combinations(range(1, k + 1), size):
            grow((), labels)
    return out


@cache
def _block_words(lam):
    """Every word naming, for each of sum(lam) elements, the block it lies
    in, block b holding lam[b] elements."""
    word = [b for b, part in enumerate(lam) for _ in range(part)]
    return tuple(set(permutations(word)))


def fixed_set_compositions(lam, gamma):
    """The permutation character of the Young subgroup of type lam at class
    gamma, as the number of set compositions of type lam (blocks of sizes
    lam[0], lam[1], ... in order) that one permutation of cycle type gamma
    maps to themselves."""
    lam, gamma = tuple(lam), tuple(gamma)
    if sum(lam) != sum(gamma):
        return 0
    sigma, start = [], 0
    for c in gamma:
        sigma += [start + (i + 1) % c for i in range(c)]
        start += c
    return sum(
        all(w[x] == w[sigma[x]] for x in range(len(sigma))) for w in _block_words(lam)
    )


def scalar(f, g):
    """Hall scalar product of two Schur sums: the Schur functions are
    orthonormal, so it adds the products of equal-shape coefficients."""
    if f.degree != g.degree:
        return 0
    return sum(c * g.terms.get(p, 0) for p, c in f.terms.items())
