"""The memo rule of the iterated powers: the operator and walk routes each
keep the k-th iterate of their step in their own dict under (start, k)."""

from .partitions import check_count

# every step up to this is kept once taken, and past it only the k asked
# for, so one long power keeps one value of big coefficients, not thousands
KEEP_EVERY_STEP = 64


def iterate(memo: dict, start, first, step, k: int):
    """The k-th iterate of ``step`` on ``first``, memoised in ``memo`` per
    ``(start, k)``: carried forward from the largest step below k already
    stored, and storing every step up to ``KEEP_EVERY_STEP`` and k, so a
    sweep over k <= K <= 64, in any order, costs K steps.  The stored
    values are shared, so callers only read them.  A k that is not an
    integer raises ``TypeError``, before the memo is read."""
    k = check_count(k)
    if (value := memo.get((start, k))) is not None:
        return value
    for done in range(k - 1, 0, -1):
        if (value := memo.get((start, done))) is not None:
            break
    else:
        done, value = 0, first
    for i in range(done + 1, k + 1):
        value = step(value)
        if i <= KEEP_EVERY_STEP or i == k:
            memo[start, i] = value
    return value
