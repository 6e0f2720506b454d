"""The mirror function and the flip involution.

gbar has five independent routes; the tests here pin small values from
first principles, then let the routes police each other over a moderate
range.  The exhaustive range lives in test_acceptance.py.
"""

import pytest

from hofg import (
    Arity,
    MemoTable,
    RankClass,
    classify,
    depth,
    fib,
    flip,
    g,
    g_values,
    gbar,
    gbar_arity,
    gbar_leftmost_child,
    gbar_rightmost_child,
    gbar_values,
    gbar_via_complement,
    gbar_via_flip,
    gbar_via_g_correction,
)
from hofg.errors import DomainError, HofgError

N = 20_000


# --- depth ---

def test_depth_examples():
    assert depth(1) == 0
    assert depth(0) == 0
    assert depth(9) == 5
    assert depth(13) == 5


def test_depth_against_iteration():
    for n in range(2, 5_000):
        m, steps = n, 0
        while m != 1:
            m = g(m)
            steps += 1
        assert depth(n) == steps


def test_depth_blocks():
    # depth is constant on [1+F(k+1), F(k+2)] and changes at the seams
    for k in range(1, 20):
        lo, hi = 1 + fib(k + 1), fib(k + 2)
        assert depth(lo) == k
        assert depth(hi) == k
        assert depth(hi + 1) == k + 1


def test_depth_census():
    counts = {}
    for n in range(2, fib(27) + 1):
        counts[depth(n)] = counts.get(depth(n), 0) + 1
    for k in range(1, 26):
        assert counts[k] == fib(k)


# --- flip ---

def test_flip_examples():
    assert flip(9) == 13
    assert flip(1) == 1
    assert flip(0) == 0
    assert flip(7) == 7


def test_flip_is_a_depth_preserving_involution():
    for n in range(N):
        m = flip(n)
        assert flip(m) == n
        assert depth(m) == depth(n)


def test_flip_reverses_each_block():
    for k in range(1, 20):
        lo, hi = 1 + fib(k + 1), fib(k + 2)
        assert flip(lo) == hi
        assert flip(hi) == lo


def test_flip_neighbor_rule():
    for n in range(2, N):
        if depth(n + 1) == depth(n):
            assert flip(n + 1) == flip(n) - 1


def test_flip_domain():
    with pytest.raises(DomainError):
        flip(-1)
    with pytest.raises(DomainError):
        depth(-1)
    # the top edge F(90) closes its depth block, which F(89) + 1 opens
    assert flip(fib(90)) == fib(89) + 1
    with pytest.raises(HofgError):
        flip(fib(90) + 1)


# --- gbar values and routes ---

def test_initial_values():
    assert [gbar(n) for n in range(4)] == [0, 1, 1, 2]
    assert gbar(7) == 5


def test_pinned_values():
    expected = {2: 1, 3: 2, 4: 3, 8: 5, 14: 9, 15: 10, 17: 11, 20: 13, 28: 18}
    for n, v in expected.items():
        assert gbar(n) == v


def test_five_way_equivalence():
    expected = gbar_values(N + 1)
    assert [gbar_via_flip(n) for n in range(N + 1)] == expected
    assert MemoTable("gbar", rule="delta").prefix(N + 1) == expected
    assert [gbar_via_g_correction(n) for n in range(N + 1)] == expected
    assert [gbar_via_complement(n) for n in range(N + 1)] == expected


def test_every_route_rejects_negatives():
    routes = (gbar, gbar_via_flip, MemoTable("gbar", rule="delta").value,
              gbar_via_g_correction, gbar_via_complement)
    for fn in routes:
        with pytest.raises(DomainError):
            fn(-1)
    with pytest.raises(DomainError, match=r"^gbar: n must be >= 0, got -1$"):
        gbar(-1)


def test_defining_equation_as_stated():
    values = gbar_values(N + 1)
    for n in range(4, N):
        assert values[n] == n + 1 - values[1 + values[n - 1]]


def test_delta_recurrence_identity():
    values = gbar_values(N + 2)
    for n in range(3, N):
        d_next = values[n + 2] - values[n + 1]
        d_here = values[n + 1] - values[n]
        q = values[n + 1]
        assert d_next == 1 - d_here * (values[q + 1] - values[q])


def test_comparison_with_g():
    gv = g_values(N + 1)
    bv = gbar_values(N + 1)
    for n in range(1, N + 1):
        diff = bv[n] - gv[n]
        assert diff in (0, 1)
        assert (diff == 1) == (classify(n) is RankClass.THREE_ODD)


def test_fibonacci_images_dense():
    for j in range(2, 31):
        assert gbar(fib(j)) == fib(j - 1)
        if j > 2:
            assert gbar(1 + fib(j)) == 1 + fib(j - 1)


def test_fibonacci_images_complement_route():
    # the rank arithmetic extends far past the dense tables; 1 + F(91)
    # sits in depth block 90 whose complement needs rank 92, so the
    # shifted-by-one law stops one rank earlier
    for j in range(2, 92):
        assert gbar_via_complement(fib(j)) == fib(j - 1)
    for j in range(3, 91):
        assert gbar_via_complement(1 + fib(j)) == 1 + fib(j - 1)


def test_gbar_lowers_depth_by_one():
    for n in range(2, N):
        assert depth(gbar(n)) == depth(n) - 1


def test_alternative_equation():
    values = gbar_values(N + 1)
    for n in range(4, N + 1):
        assert values[values[n]] + values[n - 1] == n


# --- children in the mirror tree ---

def test_child_examples():
    assert gbar_rightmost_child(5) == 8
    assert gbar_leftmost_child(5) == 7
    assert gbar_rightmost_child(9) == 14
    assert gbar_leftmost_child(4) == 6
    assert gbar_rightmost_child(4) == 6
    assert gbar_leftmost_child(10) == 15


def test_node_three_has_two_children():
    # 3 = F(4) sits at depth 2; its antecedents under gbar are 4 and 5
    assert gbar(4) == 3
    assert gbar(5) == 3
    assert gbar(6) == 4
    assert gbar_rightmost_child(3) == 5
    assert gbar_leftmost_child(3) == 4


def test_children_against_brute_force():
    values = gbar_values(4 * 1000)
    antecedents = {}
    for m, v in enumerate(values):
        antecedents.setdefault(v, []).append(m)
    for n in range(2, 1000):
        kids = antecedents[n]
        assert gbar_rightmost_child(n) == max(kids)
        assert gbar_leftmost_child(n) == min(kids)
        expect = 1 if gbar_arity(n) is Arity.UNARY else 2
        assert len(kids) == expect


def test_children_coherence():
    for n in range(2, N):
        r = gbar_rightmost_child(n)
        assert gbar(r) == n
        assert gbar(r + 1) == n + 1
        left = gbar_leftmost_child(n)
        assert gbar(left) == n
        assert gbar(left - 1) == n - 1


def test_arity_examples():
    assert gbar_arity(5) is Arity.BINARY
    assert gbar_arity(4) is Arity.UNARY
    assert gbar_arity(2) is Arity.UNARY
    assert gbar_arity(1) is Arity.UNARY


def test_child_domain_errors():
    for fn in (gbar_rightmost_child, gbar_leftmost_child):
        with pytest.raises(DomainError):
            fn(1)
        with pytest.raises(DomainError):
            fn(0)
    with pytest.raises(DomainError):
        gbar_arity(0)
