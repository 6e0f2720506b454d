"""The mirror function gbar, and the flip involution connecting it to g.

Nodes of the g tree at depth k are exactly the integers in
[1 + F(k+1), F(k+2)].  flip reverses each of those blocks in place
(flip(n) = 1 + F(k+3) - n, with 0 and 1 fixed), and gbar is g conjugated by
flip.  Like g, gbar has a portfolio of independent routes (five in total)
that cross-validate each other:

* conjugation:        gbar(n) = flip(g(flip(n)))
* defining equation:  gbar(n) = n + 1 - gbar(1 + gbar(n-1))   (n > 3)
* Fibonacci word:     running sums of the mirror Fibonacci word
* correction:         gbar(n) = g(n) + 1 exactly when n is ThreeOdd
* complement:         rank arithmetic on F(k+2) - n, k = depth(n)
"""

from __future__ import annotations

from .errors import DomainError, RankOverflow
from .fibonacci import _FIB, _INV_LIMIT, RANK_MAX, fib_inv
from .g_func import Arity, MemoTable, g, g_arity
from .zeckendorf import _THREE_ODD, _greedy_ranks, classify

_GBAR = MemoTable("gbar")


def depth(n: int) -> int:
    """Number of g-applications taking n down to 1 (0 for n <= 1).

    Computed without iterating g: the integers at depth k are exactly
    [1 + F(k+1), F(k+2)], so for n >= 2 the depth is fib_inv(n-1) - 1.
    depth(0) = 0 is a convention (0 is not a tree node).
    """
    if n < 0:
        raise DomainError(f"depth: n must be >= 0, got {n}")
    if n <= 1:
        return 0
    if n > _INV_LIMIT:  # F(92): above it, n - 1 needs rank 92
        raise RankOverflow(f"depth: n = {n} needs a Fibonacci rank beyond {RANK_MAX}")
    return fib_inv(n - 1) - 1


def flip(n: int) -> int:
    """Reverse the depth-k block [1 + F(k+1), F(k+2)] around its middle.

    flip(n) = 1 + F(k+1) + F(k+2) - n = 1 + F(k+3) - n, an involution that
    preserves depth.  Fixed points: 0, 1, and the middles of odd blocks.
    """
    if n < 0:
        raise DomainError(f"flip: n must be >= 0, got {n}")
    if n <= 1:
        return n
    if n > _FIB[RANK_MAX - 1]:  # F(90): above it, the rank k + 3 passes 91
        raise RankOverflow(f"flip: n = {n} needs a Fibonacci rank beyond {RANK_MAX}")
    return 1 + _FIB[fib_inv(n - 1) + 2] - n  # F(k + 3)


def gbar(n: int, table: MemoTable | None = None) -> int:
    """gbar(n) via its defining equation gbar(n) = n + 1 - gbar(1 + gbar(n-1)).

    The equation holds for n > 3; indices 0..3 are seeded (0, 1, 1, 2).
    Pass a fresh MemoTable("gbar") to avoid the shared cache.
    """
    return (_GBAR if table is None else table).value(n)


def gbar_values(count: int) -> list[int]:
    """Bulk form of gbar: the first count values as a list."""
    return _GBAR.prefix(count)


def gbar_via_flip(n: int) -> int:
    """gbar(n) = flip(g(flip(n))): the mirror function by conjugation."""
    if n < 0:
        raise DomainError(f"gbar_via_flip: n must be >= 0, got {n}")
    return flip(g(flip(n)))


def gbar_via_g_correction(n: int) -> int:
    """gbar(n) = g(n) + 1 if n is ThreeOdd, else g(n) exactly.

    The two functions agree everywhere except on the ThreeOdd numbers
    (7, 15, 20, ...), where the mirror runs one ahead.
    """
    if n < 0:
        raise DomainError(f"gbar_via_g_correction: n must be >= 0, got {n}")
    bump = 1 if n >= 1 and classify(n) is _THREE_ODD else 0
    return g(n) + bump


def gbar_via_complement(n: int) -> int:
    """gbar(n) by rank arithmetic on the complement within n's depth block.

    For n >= 2, n lies in the block [1 + F(k), F(k+1)] with
    k = fib_inv(n-1) = depth(n) + 1: decompose F(k+1) - n canonically and
    subtract the rank-shifted complement from F(k), leaving out a rank-2
    term (its shifted F(1) = 1 would be subtracted and then added back,
    because F(1) = F(2)):

        gbar(n) = F(k) - sum(F(i-1) for ranks i > 2)
    """
    if n < 0:
        raise DomainError(f"gbar_via_complement: n must be >= 0, got {n}")
    if n <= 1:
        return n
    if n > _FIB[RANK_MAX]:  # F(91): above it, the rank k + 1 passes 91
        raise RankOverflow(
            f"gbar_via_complement: n = {n} needs a Fibonacci rank beyond {RANK_MAX}")
    k = fib_inv(n - 1)
    total = _FIB[k]
    for i in _greedy_ranks(_FIB[k + 1] - n, "gbar_via_complement"):
        if i > 2:
            total -= _FIB[i - 1]
    return total


def gbar_rightmost_child(n: int) -> int:
    """Largest m with gbar(m) = n, namely n - 1 + gbar(n+1).  Needs n >= 2.

    The formula does not cover the root (node 1 has the single child 2) or
    n = 0, which is not a tree node.
    """
    if n < 2:
        raise DomainError(f"gbar_rightmost_child: n must be >= 2, got {n}")
    return n - 1 + gbar(n + 1)


def gbar_leftmost_child(n: int) -> int:
    """Smallest m with gbar(m) = n: the largest g-antecedent, conjugated.

    flip sends n to the g tree, where the largest antecedent is
    flip(n) + g(flip(n)); flipping back lands on the smallest gbar child.
    Equal to gbar_rightmost_child(n) exactly on unary nodes.
    """
    if n < 2:
        raise DomainError(f"gbar_leftmost_child: n must be >= 2, got {n}")
    f = flip(n)
    return flip(f + g(f))


def gbar_arity(n: int) -> Arity:
    """Child count of node n in the gbar tree: g_arity at flip(n)."""
    if n < 1:
        raise DomainError(f"gbar_arity: n must be >= 1, got {n}")
    return g_arity(flip(n))
