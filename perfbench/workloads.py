"""Workload inputs, the jobs that run them, and each job's correctness gate.

Inputs are generated here from the seed with the benchmark's own
partition and walk generators, so the inputs do not depend on the code
under test; kronlab only ever sees the generated inputs.  A run is a
sequence of rounds; round r of seed s always holds the same jobs.

Every round has the same shape: the strata below are fixed and only the
values drawn inside them depend on the seed.  Stratifying is what keeps
the per-run figures steady across seeds without fixing the inputs.
"""

from __future__ import annotations

import json
import random
from functools import cache
from math import factorial

WORKLOADS = ("kron_products", "power_sweep", "cli_oneshot")

# kron_products: every tail lam-bar of weight <= 7 that fits under a first
# row at n in 10..12 appears twice per round, at n spread over the sizes
# it fits, plus fixed staircase-like squares.  Without the weight bound a
# single job such as (1^13) x (7,2,2,2) takes over a minute.
KRON_N = (10, 11, 12)
KRON_TAIL_WEIGHT = 7
KRON_TAIL_REPEATS = 2
KRON_SQUARES = ((4, 3, 2, 1), (5, 3, 2, 1), (4, 3, 3, 2), (5, 4, 2, 1))

# power_sweep: every n in 6..14 the same number of times per round, with
# k spread over 0..12.
POWER_N = range(6, 15)
POWER_K = range(13)
POWER_PER_N = 6

# cli_oneshot: each of the eight subcommands the same number of times per
# round.
CLI_PER_KIND = 4
WALKS_PER_FILE = 6


def rng_for(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rnd}")


# ---------------------------------------------------------------------------
# the benchmark's own combinatorics (independent of the code under test)


@cache
def partitions(n: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Partitions of n with parts <= largest, reverse lexicographic."""
    largest = n if largest is None else largest
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(min(n, largest), 0, -1)
        for rest in partitions(n - first, first)
    )


def hook_count(p) -> int:
    """Standard tableaux of shape p by the hook length formula."""
    cols = [sum(1 for part in p if part > j) for j in range(p[0])] if p else []
    count = factorial(sum(p))
    for i, part in enumerate(p):
        for j in range(part):
            count //= (part - j - 1) + (cols[j] - i - 1) + 1
    return count


def class_size(gamma) -> int:
    z, run = 1, 0
    for i, part in enumerate(gamma):
        run = run + 1 if i and gamma[i - 1] == part else 1
        z *= part * run
    return factorial(sum(gamma)) // z


def in_regime(n: int, k: int, lam) -> bool:
    return n >= k + (lam[1] if len(lam) > 1 else 0)


def fmt(p) -> str:
    return "[" + ",".join(map(str, p)) + "]"


def _walk_steps(p):
    """Corner moves of p (distinct results), then one stay per corner other
    than the first corner, marked with that corner as (row, col)."""
    rows = len(p)
    corners = [(i + 1, p[i]) for i in range(rows) if i + 1 == rows or p[i + 1] < p[i]]
    first = (sum(1 for part in p if part == p[0]), p[0])
    moves = set()
    for row, _ in corners:
        q = list(p)
        q[row - 1] -= 1
        if q[-1] == 0:
            q.pop()
        for i in range(len(q) + 1):
            if i == len(q):
                r = tuple(q) + (1,)
            elif i == 0 or q[i] < q[i - 1]:
                r = tuple(q[:i]) + (q[i] + 1,) + tuple(q[i + 1:])
            else:
                continue
            if r != p:
                moves.add(r)
    steps = [(q, None) for q in sorted(moves, reverse=True)]
    steps += [(p, c) for c in reversed(corners) if c != first]
    return steps


def random_walk(rng: random.Random, n: int, k: int) -> str:
    """A uniformly stepped length-k corner-move walk from (n), as text."""
    shape = (n,)
    tokens = [fmt(shape)]
    for _ in range(k):
        shape, mark = rng.choice(_walk_steps(shape))
        tokens.append(fmt(shape) + (f"*{mark[0]}:{mark[1]}" if mark else ""))
    return " ".join(tokens)


def final_shape(walk: str):
    last = walk.split()[-1].partition("*")[0][1:-1]
    return tuple(int(x) for x in last.split(",") if x)


# ---------------------------------------------------------------------------
# input generation, one round at a time


def _systematic(rng: random.Random, items, count: int) -> list:
    """``count`` picks spread evenly over ``items`` from a random offset,
    in random order: every round covers the whole range the same way."""
    step = len(items) / count
    start = rng.random() * step
    picks = [items[int(start + j * step)] for j in range(count)]
    rng.shuffle(picks)
    return picks


def kron_round(rng: random.Random) -> list[dict]:
    tails = [t for w in range(KRON_TAIL_WEIGHT + 1) for t in partitions(w)
             if w + (t[0] if t else 0) <= KRON_N[-1]]
    jobs = []
    for tail in tails:
        w = sum(tail)
        fits = [n for n in KRON_N if n - w >= (tail[0] if tail else 0)]
        # The r-th copy of a tail takes mu from the r-th slice of the
        # partitions of n ordered by dimension, so every tail meets light
        # and heavy mu alike and the round's total work barely moves.
        for r, n in enumerate(_systematic(rng, fits, KRON_TAIL_REPEATS)):
            ranked = sorted(partitions(n), key=hook_count)
            width = len(ranked) / KRON_TAIL_REPEATS
            mu = ranked[int((r + rng.random()) * width)]
            jobs.append({"lam": [n - w, *tail], "mu": list(mu)})
    jobs += [{"lam": list(sq), "mu": list(sq)} for sq in KRON_SQUARES]
    rng.shuffle(jobs)
    return jobs


def power_round(rng: random.Random) -> list[dict]:
    jobs = [{"n": n, "k": k} for n in POWER_N
            for k in _systematic(rng, POWER_K, POWER_PER_N)]
    rng.shuffle(jobs)
    return jobs


def _tail_bounded(rng: random.Random, n: int, bound: int):
    return rng.choice([p for p in partitions(n) if n - p[0] <= bound])


def _in_regime_walk(rng: random.Random, n: int, k: int) -> str:
    while True:
        walk = random_walk(rng, n, k)
        if in_regime(n, k, final_shape(walk)):
            return walk


def cli_round(rng: random.Random) -> list[dict]:
    """CLI jobs: argv plus whatever the parent's check needs.  Each kind
    gets CLI_PER_KIND jobs with its sizes spread over their ranges."""

    def spread(lo, hi):
        return _systematic(rng, range(lo, hi + 1), CLI_PER_KIND)

    jobs = []
    for n, k in zip(spread(6, 9), spread(1, 5)):
        lam, mu = _tail_bounded(rng, n, k), rng.choice(partitions(n))
        jobs.append({"kind": "kron", "lam": lam, "mu": mu,
                     "argv": ["kron", fmt(lam), fmt(mu), "--method=both"]})
    for n, k in zip(spread(4, 8), spread(0, 8)):
        jobs.append({"kind": "power", "n": n, "k": k,
                     "argv": ["power", str(n), str(k), "--method=all"]})
    for n, k in zip(spread(3, 6), spread(2, 6)):
        jobs.append({"kind": "verify", "n": n, "k": k,
                     "argv": ["verify", "--n", str(n), "--k", str(k)]})
    for n in spread(4, 10):
        jobs.append({"kind": "chartable", "n": n,
                     "argv": ["chartable", str(n), "--format=json"]})
    for n, k in zip(spread(5, 8), spread(2, 5)):
        lam = final_shape(random_walk(rng, n, k))
        jobs.append({"kind": "tableaux", "n": n, "k": k, "lam": lam,
                     "argv": ["tableaux", "list", fmt((n,)), fmt(lam), str(k)]})
    for _ in range(CLI_PER_KIND):
        walks = [_in_regime_walk(rng, rng.randint(k + 2, 2 * k + 2), k)
                 for k in _systematic(rng, range(2, 9), WALKS_PER_FILE)]
        jobs.append({"kind": "bijection", "walks": walks, "argv": ["bijection"]})
    for n, k in zip(spread(8, 14), spread(0, 8)):
        lam = final_shape(_in_regime_walk(rng, n, k))
        jobs.append({"kind": "formula", "n": n, "k": k, "lam": lam,
                     "argv": ["formula", str(n), str(k), fmt(lam)]})
    for w, order in zip(spread(0, 4), spread(5, 12)):
        lam_bar = rng.choice(partitions(w))
        jobs.append({"kind": "egf", "lam_bar": lam_bar, "order": order,
                     "argv": ["egf", fmt(lam_bar), "--order", str(order), "--check"]})
    rng.shuffle(jobs)
    return jobs


ROUNDS = {"kron_products": kron_round, "power_sweep": power_round,
          "cli_oneshot": cli_round}


def make_round(workload: str, seed: int, rnd: int) -> list[dict]:
    return ROUNDS[workload](rng_for(workload, seed, rnd))


# ---------------------------------------------------------------------------
# library jobs, run inside a session worker; each returns None when every
# route agrees, or a message naming the disagreement


def kron_job(kl, job) -> str | None:
    lam, mu = tuple(job["lam"]), tuple(job["mu"])
    op = kl.kron_product_via_operator(lam, mu)
    ch = kl.kron_product_via_characters(lam, mu)
    if op != ch:
        return f"kron {lam} x {mu}: operator {op!r} != character {ch!r}"
    dim = sum(c * hook_count(nu) for nu, c in op.items())
    if dim != hook_count(lam) * hook_count(mu):
        return f"kron {lam} x {mu}: dimension {dim} != f(lam) f(mu)"
    return None


def power_job(kl, job) -> str | None:
    n, k = job["n"], job["k"]
    op = kl.kron_power_nm1(n, k)
    ch = kl.kron_power_oracle(n, k)
    if op != ch:
        return f"power n={n} k={k}: operator != character"
    for lam in partitions(n):
        walks = kl.count_kronecker_tableaux((n,), lam, k)
        if walks != op.coefficient(lam):
            return f"power n={n} k={k} lam={lam}: walks {walks} != operator {op.coefficient(lam)}"
        if in_regime(n, k, lam):
            formula = kl.multiplicity_formula(n, k, lam)
            if formula != walks:
                return f"power n={n} k={k} lam={lam}: formula {formula} != walks {walks}"
    if sum(c * hook_count(lam) for lam, c in op.items()) != (n - 1) ** k:
        return f"power n={n} k={k}: dimension != (n-1)^k"
    return None


JOBS = {"kron_products": kron_job, "power_sweep": power_job}


# ---------------------------------------------------------------------------
# CLI jobs, checked by the parent outside the timed region


def _schur_terms(payload) -> dict:
    return {tuple(t["partition"]): int(t["coeff"]) for t in payload["terms"]}


def check_cli(kl, job, rc: int, out: str) -> str | None:
    """None if the CLI job's exit code and output are right."""
    kind = job["kind"]
    if rc != 0:
        return f"{kind}: exit {rc}"
    lines = [line for line in out.splitlines() if line.strip()]
    if kind == "tableaux":
        n, k, lam = job["n"], job["k"], tuple(job["lam"])
        expected = kl.count_kronecker_tableaux((n,), lam, k)
        if len(lines) != expected or len(set(lines)) != len(lines):
            return f"tableaux: {len(lines)} walks listed, {expected} counted"
        for line in lines:
            walk = kl.parse_walk(line)
            if walk.initial != (n,) or walk.final != lam or walk.length != k:
                return f"tableaux: listed walk {line!r} has the wrong ends"
        return None
    records = [json.loads(line) for line in lines]
    if not records or any(r.get("schema") != "kronlab/1" for r in records):
        return f"{kind}: output lacks schema kronlab/1"
    rec = records[0]
    if kind == "kron":
        terms = _schur_terms(rec)
        dim = sum(c * hook_count(nu) for nu, c in terms.items())
        if rec["degree"] != sum(job["lam"]) or dim != hook_count(job["lam"]) * hook_count(job["mu"]):
            return "kron: expansion fails the dimension check"
    elif kind == "power":
        terms = _schur_terms(rec)
        if sum(c * hook_count(lam) for lam, c in terms.items()) != (job["n"] - 1) ** job["k"]:
            return "power: expansion fails the dimension check"
    elif kind == "verify":
        if rec["ok"] is not True or len(rec["rows"]) != (job["n"] - 1) * (job["k"] + 1):
            return "verify: sweep not ok"
    elif kind == "chartable":
        n = job["n"]
        parts = [tuple(p) for p in rec["partitions"]]
        if parts != list(partitions(n)):
            return "chartable: partitions not all listed in canonical order"
        for lam, row in zip(parts, rec["values"]):
            row = [int(v) for v in row]
            if row[-1] != hook_count(lam):
                return f"chartable: degree of {lam} is not the hook count"
            if sum(class_size(g) * v * v for g, v in zip(parts, row)) != factorial(n):
                return f"chartable: row {lam} is not orthonormal"
    elif kind == "bijection":
        if len(records) != len(job["walks"]):
            return "bijection: one record per walk expected"
        for walk, r in zip(job["walks"], records):
            T = kl.PartialStandardTableau(tuple(tuple(row) for row in r["rows"]))
            pi = kl.DecCyclePermutation(tuple(tuple(c) for c in r["cycles"]))
            back = kl.from_pair(T, pi, r["n"], r["k"])
            if kl.format_walk(back) != walk or r["regime_ok"] is not True:
                return f"bijection: {walk!r} does not round-trip"
    elif kind == "formula":
        expected = kl.count_kronecker_tableaux((job["n"],), tuple(job["lam"]), job["k"])
        if int(rec["multiplicity"]) != expected:
            return f"formula: {rec['multiplicity']} != {expected} walks"
    else:
        rows = rec["rows"]
        if len(rows) != job["order"] - sum(job["lam_bar"]) + 1 or not all(r["ok"] is True for r in rows):
            return "egf: not every row ok"
    return None
