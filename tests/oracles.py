"""Independent brute-force oracles used to freeze expected values.

Nothing here calls back into the routines under test: polynomials are
expanded monomial by monomial, tableaux, LR fillings and set partitions
are listed exhaustively, and the partition function comes from the
pentagonal recurrence.
"""

from collections import Counter
from functools import cache


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


def walk_count_recursive(mu, lam, k):
    """Walk counter written from first principles: recompute corners and
    single-cell moves inline rather than through the library."""
    mu, lam = tuple(mu), tuple(lam)

    def corner_rows(p):
        return [
            i for i in range(len(p)) if i + 1 == len(p) or p[i + 1] < p[i]
        ]

    def addable_rows(p):
        return [i for i in range(len(p)) if i == 0 or p[i] < p[i - 1]] + [len(p)]

    @cache
    def count(p, steps):
        if steps == 0:
            return 1 if p == lam else 0
        total = 0
        for i in corner_rows(p):
            smaller = list(p)
            smaller[i] -= 1
            if smaller[-1] == 0:
                smaller.pop()
            for j in addable_rows(tuple(smaller)):
                bigger = list(smaller)
                if j == len(bigger):
                    bigger.append(1)
                else:
                    bigger[j] += 1
                q = tuple(bigger)
                if q != p:
                    total += count(q, steps - 1)
        stays = len(corner_rows(p)) - 1
        if stays > 0:
            total += stays * count(p, steps - 1)
        return total

    return count(mu, k)


def decreasing_cycle_permutations(k):
    """All permutations of 1..k whose nontrivial cycles are decreasing,
    given as tuples of cycles (greatest first, sorted by greatest)."""
    from itertools import permutations

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
