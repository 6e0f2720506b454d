"""Fixed Fibonacci table: values, rank lookup, checked arithmetic."""

import pytest

from hofg import RANK_MAX, VALUE_LIMIT, fib, fib_inv
from hofg.errors import DomainError, RankOverflow
from hofg.fibonacci import _INV_LIMIT


def test_known_values():
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(2) == 1
    assert fib(7) == 13
    assert fib(10) == 55


def test_recurrence_full_table():
    for k in range(RANK_MAX - 1):
        assert fib(k) + fib(k + 1) == fib(k + 2)


def test_strictly_increasing_from_rank_two():
    # k stops at 90: comparing at k = 91 would need rank 92, which the
    # fixed table does not carry
    for k in range(2, RANK_MAX):
        assert fib(k) < fib(k + 1)


def test_top_of_table_fits_the_value_domain():
    assert fib(RANK_MAX) < VALUE_LIMIT
    assert fib(RANK_MAX) + fib(RANK_MAX - 1) < VALUE_LIMIT


def test_rank_errors():
    with pytest.raises(DomainError):
        fib(-1)
    with pytest.raises(RankOverflow):
        fib(RANK_MAX + 1)


def test_fib_inv_examples():
    assert fib_inv(11) == 6
    assert fib_inv(1) == 2
    assert fib_inv(55) == 10


def test_fib_inv_brackets_its_argument():
    for n in range(1, 20_000):
        k = fib_inv(n)
        assert fib(k) <= n
        assert n < fib(k + 1)


def test_fib_inv_on_table_entries():
    # F(1) = F(2) = 1 collapses to rank 2; everything above is exact
    assert fib_inv(fib(1)) == 2
    for k in range(2, RANK_MAX + 1):
        assert fib_inv(fib(k)) == k
    # fib_inv starts from the top rank of n's bit length and steps down, so
    # pin both sides of every table entry and of every power of two
    edges = {fib(k) + d for k in range(RANK_MAX + 1) for d in (-1, 1)}
    edges |= {(1 << b) + d for b in range(64) for d in (-1, 0)}
    for n in sorted(e for e in edges if 1 <= e < _INV_LIMIT):
        assert fib_inv(n) == max(k for k in range(RANK_MAX + 1) if fib(k) <= n), n


def test_fib_inv_domain():
    with pytest.raises(DomainError):
        fib_inv(0)
    with pytest.raises(DomainError):
        fib_inv(-5)
    top = fib(RANK_MAX) + fib(RANK_MAX - 1)
    assert fib_inv(top - 1) == RANK_MAX
    with pytest.raises(RankOverflow):
        fib_inv(top)
