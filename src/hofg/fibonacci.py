"""Fibonacci numbers over a fixed, checked range.

The sequence is F(0) = 0, F(1) = 1, F(k+2) = F(k) + F(k+1).  Values stay
below 2**63 and ranks at most 91: the table is computed once and never
extended.  Each public function that reads ranks tests n against its domain
before its first lookup, and raises _outside's error, which names it and n.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import DomainError, RankOverflow

RANK_MAX = 91
VALUE_LIMIT = 1 << 63


def _outside(name: str, n: int, lo: int = 0) -> DomainError:
    """The error for n outside name's domain, which starts at lo: DomainError
    below lo, else RankOverflow.  A guard raises it after one range test."""
    if n < lo:
        return DomainError(f"{name}: n must be >= {lo}, got {n}")
    return RankOverflow(f"{name}: n = {n} needs a Fibonacci rank beyond {RANK_MAX}")


def _build_table() -> tuple[int, ...]:
    t = [0, 1]
    while len(t) <= RANK_MAX:
        t.append(t[-2] + t[-1])
    return tuple(t)


_FIB: tuple[int, ...] = _build_table()

# Largest value with an in-table rank.  Values from here up to 2**63 would
# need rank 92, which the fixed table deliberately does not carry.
_INV_LIMIT = _FIB[RANK_MAX] + _FIB[RANK_MAX - 1]

# _TOP_RANK[b] is the largest rank k with F(k) < 2**b.  F(k+2) >= 2*F(k), so at
# most two Fibonacci numbers share a bit length: for m >= 1 the largest k with
# F(k) <= m is at most two ranks below _TOP_RANK[m.bit_length()].
_TOP_RANK: tuple[int, ...] = tuple(bisect_left(_FIB, 1 << b) - 1 for b in range(64))


def fib(k: int) -> int:
    """Return F(k) for 0 <= k <= 91."""
    if k < 0:
        raise DomainError(f"fib: negative rank {k}")
    if k > RANK_MAX:
        raise RankOverflow(f"fib: rank {k} exceeds table maximum {RANK_MAX}")
    return _FIB[k]


def fib_inv(n: int) -> int:
    """Return the largest rank k with F(k) <= n, for n >= 1.

    Because F(1) = F(2) = 1, the answer is never 1: fib_inv(1) == 2.  This is
    the rank the greedy decomposition peels off first, so n = 0 (which would
    admit rank 0 and break the rank >= 2 convention) is a domain error.
    """
    if not 1 <= n < _INV_LIMIT:
        raise _outside("fib_inv", n, 1)
    k = _TOP_RANK[n.bit_length()]
    while _FIB[k] > n:
        k -= 1
    return k
