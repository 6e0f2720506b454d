"""The staircase function g and the machinery around it.

g is defined by g(0) = 0 and g(n) = n - g(g(n-1)).  It climbs by 0 or 1 at
each step, hits every natural number, and is tied to Fibonacci structure in
a way this package exploits for independent recomputation: the same values
fall out of

* the defining equation, filled ascending into a memo table,
* a rank-shift on the canonical Fibonacci decomposition of n,
* running sums of the Fibonacci word, the steps g(n+1) - g(n)
  (portfolio.py), and
* an exact golden-ratio floor formula.

Keeping all four routes alive (rather than collapsing them into the fastest
one) is the point: they cross-validate each other over large ranges.
"""

from __future__ import annotations

from enum import Enum
from math import isqrt

from .errors import DomainError
from .fibonacci import _FIB, _INV_LIMIT, RANK_MAX, _outside
from .zeckendorf import _greedy_ranks, low

# Domain cap for the closed-form route: F(92), the rank routes' edge.  isqrt
# is exact at any size, so it is a contract, not a precision limit.
PHI_DOMAIN = _INV_LIMIT

# Most entries a MemoTable holds (about 2.8 GB at ~28 bytes per entry).
TABLE_MAX = 10**8

_SEEDS = {
    ("g", "defining"): (0,),
    ("g", "delta"): (0, 1),
    ("gbar", "defining"): (0, 1, 1, 2),
    ("gbar", "delta"): (0, 1, 1, 2, 3),
}


class Arity(Enum):
    UNARY = 1
    BINARY = 2


class MemoTable:
    """Dense prefix of g or gbar values, indexed from 0, grown on demand.

    Invariants: values[0] == 0; consecutive values step by 0 or 1; the prefix
    is complete (no holes).  Entries never change once written, so one writer
    may extend the table while readers use the already-populated prefix; two
    concurrent writers are the caller's bug.

    which selects the function ("g" or "gbar"); rule selects the fill
    algorithm ("defining" for the function's own equation, "delta" for the
    difference-bit recurrence).  Both rules produce the same values, and
    the unit tests compare them; `hofg check` compares the Fibonacci-word
    routes instead, which share no code with this fill.  With the shift
    c = 0 for g and c = 1 for gbar, entry m is

        defining:  m + c - v[c + v[m-1]]
        delta:     v[m-1] + 1 - d(m-2) * d(j),  j = v[m-2+c]

    where d(i) = v[i+1] - v[i] is the step bit.  The gbar delta rule holds
    only from m = 5, hence its longer seed run.  A fill carries the last
    entries it wrote from step to step, and an entry equal to the one
    before it is stored as that same int object, so each distinct value
    (about 0.618 of the entries) has one object.  A table holds at most
    TABLE_MAX entries; asking for more raises DomainError before anything
    is allocated.  A fill that runs out of memory drops the table back to
    its seeds before the MemoryError propagates, so the memory is free
    for whatever handles it.
    """

    def __init__(self, which: str = "g", rule: str = "defining"):
        try:
            seeds = _SEEDS[(which, rule)]
        except KeyError:
            raise DomainError(f"MemoTable: no table flavor ({which!r}, {rule!r})") from None
        self.which = which
        self.rule = rule
        self._values: list[int] = list(seeds)

    def __len__(self) -> int:
        return len(self._values)

    def ensure(self, n: int) -> None:
        """Extend the table so that index n is populated."""
        if n >= len(self._values):
            if n >= TABLE_MAX:
                raise DomainError(f"{self.which}: index {n} needs a table of more "
                                  f"than TABLE_MAX = {TABLE_MAX} entries")
            self._fill(n)

    def value(self, n: int) -> int:
        if 0 <= n < len(self._values):  # filled: no call to ensure
            return self._values[n]
        if n < 0:
            raise _outside(self.which, n)
        self.ensure(n)
        return self._values[n]

    def prefix(self, count: int) -> list[int]:
        """First count values as a fresh list (bulk-read API)."""
        if count < 0:
            raise DomainError(f"{self.which}: prefix count must be >= 0, got {count}")
        if count:
            self.ensure(count - 1)
        return self._values[:count]

    def _fill(self, n: int) -> None:
        # each loop carries the last entries written, and an entry equal to
        # its left neighbour is appended as that same int object
        v = self._values
        append = v.append
        c = 1 if self.which == "gbar" else 0
        try:
            if self.rule == "defining":
                prev = v[-1]
                for m in range(len(v) + c, n + 1 + c):  # the formula's m + c
                    x = m - v[c + prev]
                    if x != prev:
                        prev = x
                    append(prev)
            else:
                # a, b = v[m-2], v[m-1]; the step is 1 unless d(m-2) = d(j) = 1
                a, b = v[-2], v[-1]
                for _ in range(len(v), n + 1):
                    # the or tests d(j) only when d(m-2) = 1, where j = a + c
                    if a == b or v[a + c] == v[a + c + 1]:
                        a, b = b, b + 1
                    else:
                        a = b
                    append(b)
        except MemoryError:
            # clear frees the entries without allocating; a slice delete
            # would need a buffer of its own
            v.clear()
            v.extend(_SEEDS[(self.which, self.rule)])
            raise


_G = MemoTable("g")


def g(n: int, table: MemoTable | None = None) -> int:
    """g(n) via the defining equation and the shared memo table.

    Pass a fresh MemoTable("g") as table to avoid the shared module-level
    cache (pure mode for tests).
    """
    return (_G if table is None else table).value(n)


def g_values(count: int) -> list[int]:
    """Bulk form of g: the first count values as a list."""
    return _G.prefix(count)


def g_via_decomposition(n: int) -> int:
    """g(n) by rank arithmetic, no recursion.

    g(n) is the sum of F(k-1) over the ranks k of the canonical
    decomposition of n.  A rank 2 shifts to rank 1, which needs no repair
    because F(1) = F(2).
    """
    total = 0
    for k in _greedy_ranks(n, "g_via_decomposition"):
        total += _FIB[k - 1]
    return total


def g_via_phi(n: int) -> int:
    """g(n) = floor((n+1)/phi), evaluated in exact integer arithmetic.

    With m = n+1: floor(m/phi) = floor(m*phi) - m and
    floor(m*phi) = (m + isqrt(5*m*m)) // 2.  No floats anywhere, so there is
    no precision cliff; the domain cap PHI_DOMAIN = F(92), the rank routes'
    edge, is a documented contract, not a numeric necessity.  Note the +1:
    the variant floor(n/phi) is wrong already at n = 1.
    """
    if n < 0:
        raise _outside("g_via_phi", n)
    if n >= PHI_DOMAIN:
        raise DomainError(f"g_via_phi: n must be < F(92) = {PHI_DOMAIN}, got {n}")
    m = n + 1
    return (m + isqrt(5 * m * m)) // 2 - m


def g_max_antecedent(n: int) -> int:
    """Largest m with g(m) = n, namely n + g(n), g by rank arithmetic, for n
    up to F(91) - 1, whose antecedent is F(92) - 1, the rank edge."""
    if not 0 <= n < _FIB[RANK_MAX]:  # F(91): its antecedent F(92) passes the rank edge
        raise _outside("g_max_antecedent", n)
    return n + g_via_decomposition(n)


def g_arity(n: int) -> Arity:
    """Number of children of node n in the g tree (as an Arity tag).

    Unary iff low(n) is odd, except the root: node 1 has low(1) = 2 but only
    the single child 2 (its other antecedent is 1 itself, which the tree does
    not count as a child).
    """
    if n < 1:
        raise _outside("g_arity", n, 1)
    if n == 1:
        return Arity.UNARY
    return Arity.UNARY if low(n) & 1 else Arity.BINARY
