"""Fibonacci-sum decompositions of natural numbers.

A decomposition is a strictly increasing list of ranks >= 2, stored
lowest-rank-first, standing for the sum of the Fibonacci numbers at those
ranks.  The empty list stands for 0.  Two flavors appear throughout:

* canonical (gap 2): consecutive ranks differ by at least 2.  Every n has
  exactly one such form, found greedily from the largest Fibonacci number.
* relaxed (gap 1): consecutive ranks merely distinct.  Many forms can share
  a value; `normalize` folds any of them back to the canonical one.

Ranks start at 2 because F(1) = F(2) = 1 would otherwise make even the
canonical form ambiguous.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import DomainError, RankOverflow
from .fibonacci import _FIB, _INV_LIMIT, _TOP_RANK, RANK_MAX, VALUE_LIMIT


class _Form(NamedTuple):
    ranks: tuple[int, ...]
    gap: int = 2


class Decomposition(_Form):
    """Ranks of a Fibonacci-sum form, lowest first.

    gap = 2 marks a canonical form, gap = 1 a relaxed one.  Every canonical
    form is also a valid relaxed form, but not the other way around.
    """

    __slots__ = ()

    def __new__(cls, ranks: tuple[int, ...], gap: int = 2) -> Decomposition:
        if gap not in (1, 2):
            raise DomainError(f"Decomposition: gap must be 1 or 2, got {gap}")
        prev = None
        for k in ranks:
            if k < 2 or k > RANK_MAX:
                raise DomainError(f"Decomposition: rank {k} outside [2, {RANK_MAX}]")
            if prev is not None and k - prev < gap:
                raise DomainError(
                    f"Decomposition: ranks {prev},{k} violate the minimum gap {gap}")
            prev = k
        return tuple.__new__(cls, (ranks, gap))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __len__(self) -> int:
        return len(self.ranks)


class RankClass(Enum):
    """Classification of n by the low end of its canonical decomposition.

    TWO:        lowest rank is 2
    THREE_ODD:  lowest rank is 3, second-lowest rank odd
    THREE_EVEN: lowest rank is 3, second-lowest rank even
    THREE_BARE: lowest rank is 3 and there is no second term (only n = 2)
    HIGH_EVEN:  lowest rank is >= 4 and even
    HIGH_ODD:   lowest rank is >= 4 and odd
    """

    TWO = "Two"
    THREE_ODD = "ThreeOdd"
    THREE_EVEN = "ThreeEven"
    THREE_BARE = "ThreeBare"
    HIGH_EVEN = "HighEven"
    HIGH_ODD = "HighOdd"


# each member bound once by name: RankClass.X costs a slow class lookup on 3.11
_TWO, _THREE_ODD, _THREE_EVEN = RankClass.TWO, RankClass.THREE_ODD, RankClass.THREE_EVEN
_THREE_BARE, _HIGH_EVEN, _HIGH_ODD = (RankClass.THREE_BARE, RankClass.HIGH_EVEN,
                                      RankClass.HIGH_ODD)


def _build_low_ranks() -> tuple[tuple[int, ...], ...]:
    # the walk's own greedy step: r in [F(k), F(k+1)) is F(k) on top of the
    # entry for r - F(k) < F(k-1), built already; ranks highest first
    table: list[tuple[int, ...]] = [()]
    for k in range(2, 18):
        table += [(k,) + rest for rest in table[:_FIB[k - 1]]]
    return tuple(table)


_LOW_RANKS = _build_low_ranks()  # the canonical ranks of each r < F(18)
_LOW_LIMIT = len(_LOW_RANKS)


def _greedy_ranks(n: int, name: str) -> list[int]:
    """Canonical ranks of n, ascending: the one greedy walk.

    Every rank route (decompose, low, classify, g_via_decomposition,
    gbar_via_complement) reads this list, passing its name for the errors;
    none walks the ranks itself.  Each term is fib_inv's lookup, inlined
    because a call per term costs more than the lookup: the top rank for
    the remainder's bit length, stepped down at most twice.  Once the
    remainder is below F(18) the walk hands over to _LOW_RANKS, because
    over a sweep most terms lie below rank 18 (4.5 of 7.9 up to 10^6).
    """
    if not 0 <= n < _INV_LIMIT:
        if n < 0:
            raise DomainError(f"{name}: n must be >= 0, got {n}")
        raise RankOverflow(f"{name}: n = {n} needs a Fibonacci rank beyond {RANK_MAX}")
    ranks: list[int] = []
    while n >= _LOW_LIMIT:
        k = _TOP_RANK[n.bit_length()]
        while _FIB[k] > n:
            k -= 1
        ranks.append(k)
        n -= _FIB[k]
    ranks += _LOW_RANKS[n]
    ranks.reverse()
    return ranks


def decompose(n: int) -> Decomposition:
    """Canonical decomposition of n >= 0, greedily from the top.

    The greedy choice (always peel off the largest Fibonacci number <= the
    remainder) is what forces gaps >= 2: after removing F(k) the remainder is
    below F(k-1), so rank k-1 can never follow rank k.
    """
    return Decomposition(tuple(_greedy_ranks(n, "decompose")))


def sum_of(d: Decomposition) -> int:
    """Value represented by d, with overflow checked.

    Relaxed forms over high ranks can exceed the value range even though
    every term individually fits, hence the running check.
    """
    total = 0
    for k in d.ranks:
        total += _FIB[k]
        if total >= VALUE_LIMIT:
            raise DomainError("sum_of: decomposition sums past the value range")
    return total


def normalize(d: Decomposition) -> Decomposition:
    """Fold a relaxed decomposition into the canonical one, same value.

    Repeatedly merges the highest consecutive pair: F(m) + F(m+1) = F(m+2).
    Taking the highest pair first means the merged rank m+2 is never already
    present (that would put a consecutive pair above the chosen one), so the
    list stays duplicate-free without any further case analysis.  Term count
    never increases.
    """
    ranks = list(d.ranks)
    while True:
        hi = -1
        for i in range(len(ranks) - 1):
            if ranks[i + 1] == ranks[i] + 1:
                hi = i
        if hi < 0:
            break
        m = ranks[hi]
        if m + 2 > RANK_MAX:
            raise RankOverflow(f"normalize: merged rank {m + 2} exceeds {RANK_MAX}")
        ranks[hi:hi + 2] = [m + 2]
    return Decomposition(tuple(ranks))


def low(n: int) -> int:
    """Lowest rank in the canonical decomposition of n >= 1."""
    if n < 1:
        raise DomainError(f"low: n must be >= 1, got {n}")
    return _greedy_ranks(n, "low")[0]


def classify(n: int) -> RankClass:
    """RankClass of n >= 1; see RankClass for the tag definitions."""
    if n < 1:
        raise DomainError(f"classify: n must be >= 1, got {n}")
    ranks = _greedy_ranks(n, "classify")
    lo = ranks[0]
    if lo == 2:
        return _TWO
    if lo == 3:
        if len(ranks) == 1:
            return _THREE_BARE
        return _THREE_ODD if ranks[1] & 1 else _THREE_EVEN
    return _HIGH_ODD if lo & 1 else _HIGH_EVEN


def next_three_odd(n: int) -> int:
    """Smallest m > n with classify(m) == THREE_ODD.

    Spacing fact: starting from a three-odd number the next one is 5 or 8
    away, and the first one overall is 7, so the scan below is short.
    """
    m = max(n + 1, 1)
    while m < _INV_LIMIT:
        if classify(m) is _THREE_ODD:
            return m
        m += 1
    raise DomainError(f"next_three_odd: n = {n} has no three-odd successor < F(92)")


def relax(d: Decomposition) -> Decomposition:
    """A relaxed (gap=1) form with the same value as d.

    Splits the lowest rank k into (k-2, k-1) while that stays legal.  The
    result is always a new gap=1 form: when the lowest rank is 2 or 3 no
    split is possible, and it keeps d's ranks but not d's gap, so
    relax(decompose(2)) != decompose(2).
    """
    ranks = list(d.ranks)
    while ranks and ranks[0] >= 4:
        k = ranks.pop(0)
        ranks[0:0] = [k - 2, k - 1]
    return Decomposition(tuple(ranks), gap=1)


def fib_sum_text(d: Decomposition) -> str:
    """Render d as 'F_4+F_6' (or '0' for the empty decomposition)."""
    if not d.ranks:
        return "0"
    return "+".join(f"F_{k}" for k in d.ranks)
