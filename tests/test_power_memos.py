"""The per-(start, k) memos of the operator and walk routes: any call order,
threads, and the number of operator applications a sweep costs."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from kronlab import _memo, characters, cli, enumeration, kron_ops, partitions, tableaux
from kronlab.characters import kron_power_oracle
from kronlab.enumeration import TruncatedEGF, multiplicity_formula, p2
from kronlab.kron_ops import apply, build_operator, kron_power_nm1
from kronlab.partitions import partitions_of
from kronlab.symfunc import SchurSum
from kronlab.tableaux import (
    KroneckerTableau,
    count_kronecker_tableaux,
    from_pair,
    list_kronecker_tableaux,
    strip_first_row,
    to_pair,
    unstrip,
    walk_counts,
)

from oracles import walk_count_recursive

CASES = [(n, k) for n in range(2, 9) for k in range(9)]


def clear_memos():
    kron_ops._powers.clear()
    tableaux._endpoints.clear()


@pytest.fixture(scope="module")
def reference():
    """Powers by k fresh operator applications; walk counts from the
    first-principles recursion."""
    op = build_operator((1,))
    powers = {}
    for n in range(2, 9):
        f = SchurSum.schur((n,))
        for k in range(9):
            powers[n, k] = f
            f = apply(op, f)
    walks = {
        (n, k): {lam: walk_count_recursive((n,), lam, k) for lam in partitions_of(n)}
        for n, k in CASES
    }
    return powers, walks


def check(n, k, reference):
    powers, walks = reference
    power = kron_power_nm1(n, k)
    assert power == powers[n, k], (n, k)
    assert walk_counts((n,), k) == power, (n, k)
    for lam in partitions_of(n):
        count = count_kronecker_tableaux((n,), lam, k)
        assert count == power.coefficient(lam), (n, k, lam)
        assert count == walks[n, k][lam], (n, k, lam)


@pytest.mark.parametrize("order", ["descending", "shuffled"])
def test_memos_in_any_k_order(order, reference):
    cases = sorted(CASES, key=lambda c: (c[0], -c[1]))
    if order == "shuffled":
        random.Random(20261018).shuffle(cases)
    clear_memos()
    for n, k in cases:
        check(n, k, reference)
    # every value read back from the memos is still the reference value
    for n, k in cases:
        check(n, k, reference)


def test_threaded_memo_fill_matches_serial():
    calls = [
        (fn, n, k)
        for fn in (kron_power_nm1, lambda n, k: walk_counts((n,), k))
        for n, k in CASES
    ] * 3
    random.Random(7).shuffle(calls)
    clear_memos()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda c: c[0](*c[1:]), calls, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    clear_memos()
    serial = [fn(*args) for fn, *args in calls]
    assert threaded == serial


def test_listing_leaves_the_walk_memo_as_it_was():
    clear_memos()
    count_kronecker_tableaux((6,), (4, 2), 3)
    before = dict(tableaux._endpoints)
    listed = tableaux.list_kronecker_tableaux((6,), (4, 2), 7)
    assert tableaux._endpoints == before
    assert len(listed) == count_kronecker_tableaux((6,), (4, 2), 7)


@pytest.fixture
def applied(monkeypatch):
    """The degree of every Schur sum the operator is applied to, from empty
    memos on."""
    degrees = []

    def counting_apply(op, f):
        degrees.append(f.degree)
        return apply(op, f)

    clear_memos()
    monkeypatch.setattr(kron_ops, "apply", counting_apply)
    return degrees


# route -> (module, name of the step it reads at call time, its memo, the
# call for k at n = 5, its value at k = 0, one step)
ROUTES = {
    "operator": (
        kron_ops,
        "apply",
        kron_ops._powers,
        lambda k: kron_power_nm1(5, k),
        SchurSum.schur((5,)),
        lambda f: apply(build_operator((1,)), f),
    ),
    "walks": (
        tableaux,
        "_step",
        tableaux._endpoints,
        lambda k: tableaux._walk_endpoints((5,), k),
        {(5,): 1},
        tableaux._step,
    ),
}


@pytest.mark.parametrize("route", list(ROUTES))
def test_a_descending_sweep_takes_each_step_once(route, monkeypatch):
    module, name, _, call, *_ = ROUTES[route]
    steps = []
    step = getattr(module, name)

    def counting_step(*args):
        steps.append(args)
        return step(*args)

    clear_memos()
    monkeypatch.setattr(module, name, counting_step)
    for k in range(8, -1, -1):
        call(k)
    # k = 8 stores every step on the way, so the smaller k step nothing
    assert len(steps) == 8


@pytest.mark.parametrize("route", list(ROUTES))
def test_a_high_power_keeps_the_low_steps_and_its_own(route):
    _, _, memo, call, first, step = ROUTES[route]
    clear_memos()
    call(100)
    keep = _memo.KEEP_EVERY_STEP
    assert sorted(k for _, k in memo) == [*range(1, keep + 1), 100]
    fresh = first
    for _ in range(80):
        fresh = step(fresh)
    assert call(80) == fresh


def test_a_walk_with_no_step_is_not_carried_forward(monkeypatch):
    def no_step(vec):
        raise AssertionError("stepped walks that cannot step")

    clear_memos()
    monkeypatch.setattr(tableaux, "_step", no_step)
    # n <= 1 returns before the memo search, so a huge k answers at once
    assert count_kronecker_tableaux((1,), (1,), 10**7) == 0
    assert walk_counts((), 10**7) == SchurSum.zero(0)
    assert count_kronecker_tableaux((), (), 0) == 1


# the one walk of length 2 from (2) back to (2), its stripped walk and pair
WALK = KroneckerTableau(((2,), (1, 1), (2,)), (None, None))
REDUCED = strip_first_row(WALK, 2, 2)
PAIR = to_pair(WALK, 2, 2)

# each call reads its argument k, a count that 2 satisfies
POWER_CALLS = {
    "characters": lambda k: kron_power_oracle(5, k),
    "operator": lambda k: kron_power_nm1(5, k),
    "operator-n": lambda n: kron_power_nm1(n, 2),
    "walks": lambda k: walk_counts((5,), k),
    "count": lambda k: count_kronecker_tableaux((5,), (3, 2), k),
    "walks-n1": lambda k: walk_counts((1,), k),
    "count-n0": lambda k: count_kronecker_tableaux((), (), k),
    "formula": lambda k: multiplicity_formula(5, k, (4, 1)),
    "p2-n": lambda n: p2(n, 1),
    "p2-m": lambda m: p2(6, m),
    "partitions-of": partitions_of,
    "to-pair-n": lambda n: to_pair(WALK, n, 2),
    "to-pair-k": lambda k: to_pair(WALK, 2, k),
    "strip-n": lambda n: strip_first_row(WALK, n, 2),
    "strip-k": lambda k: strip_first_row(WALK, 2, k),
    "unstrip-n": lambda n: unstrip(REDUCED, n),
    "from-pair-n": lambda n: from_pair(*PAIR, n, 2),
    "list-k": lambda k: list_kronecker_tableaux((2,), (2,), k),
    "list-limit": lambda limit: list_kronecker_tableaux((2,), (2,), 2, limit=limit),
    "pow": lambda e: TruncatedEGF.exp_x(3).pow(e),
    "one": TruncatedEGF.one,
    "x": TruncatedEGF.x,
    "exp-x": TruncatedEGF.exp_x,
}


@pytest.mark.parametrize("call", list(POWER_CALLS))
@pytest.mark.parametrize("k", [2.0, 2.5, Fraction(2), "2"], ids=repr)
def test_a_power_that_is_not_an_integer_raises_on_a_cold_and_a_warm_memo(call, k):
    clear_memos()
    characters._power_sums.cache_clear()
    enumeration._formula_sum.cache_clear()
    enumeration.p2.cache_clear()
    partitions.partitions_of.cache_clear()
    with pytest.raises(TypeError):
        POWER_CALLS[call](k)
    POWER_CALLS[call](2)
    with pytest.raises(TypeError):
        POWER_CALLS[call](k)


def test_verify_applies_the_operator_once_per_power(applied, capsys):
    assert cli.main(["verify", "--n", "6", "--k", "6"]) == 0
    capsys.readouterr()
    # n = 2..6, each carried from k - 1 to k for k = 1..6
    assert 0 < len(applied) <= 5 * 6
