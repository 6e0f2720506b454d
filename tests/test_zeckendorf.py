"""Decomposition machinery: greedy form, normalization, rank classes.

The normalization tests lean on the fact that normalize and decompose are
independently coded (merge-highest-pair versus greedy-from-the-top), so each
serves as the other's oracle.
"""

import os
import pickle
import random
import subprocess
import sys
import threading
from bisect import bisect_left
from math import isqrt

import pytest

import hofg
from hofg import (
    Arity,
    Decomposition,
    RankClass,
    classify,
    decompose,
    depth,
    fib,
    fib_inv,
    fib_sum_text,
    flip,
    g_arity,
    g_max_antecedent,
    g_via_decomposition,
    g_via_phi,
    gbar_arity,
    gbar_leftmost_child,
    gbar_rightmost_child,
    gbar_via_complement,
    gbar_via_flip,
    gbar_via_g_correction,
    low,
    next_three_odd,
    normalize,
    relax,
    sum_of,
    zeckendorf,
)
from hofg.errors import DomainError, HofgError, RankOverflow
from hofg.fibonacci import _INV_LIMIT
from hofg.tree import children
from hofg.zeckendorf import _LOW_RANKS, _greedy_ranks


def run_python(code):
    """Run code in a fresh interpreter on the hofg under test; a run that
    outlives 10 s raises TimeoutExpired, so a hang fails instead of stalling."""
    src = os.path.dirname(os.path.dirname(hofg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=10, env=dict(os.environ, PYTHONPATH=path))


TWO = RankClass.TWO
THREE_ODD = RankClass.THREE_ODD
THREE_EVEN = RankClass.THREE_EVEN


def all_canonical_forms(max_rank):
    """Every gap-2 rank tuple over [2, max_rank], by recursive extension."""
    forms = [()]
    for k in range(2, max_rank + 1):
        forms += [f + (k,) for f in forms if not f or k - f[-1] >= 2]
    return forms


def test_decompose_examples():
    assert decompose(11).ranks == (4, 6)
    assert decompose(0).ranks == ()
    assert decompose(12).ranks == (2, 4, 6)


def test_decompose_rejects_negatives():
    with pytest.raises(DomainError):
        decompose(-1)


def test_round_trip_small_range():
    for n in range(0, 30_000):
        d = decompose(n)
        assert d.gap == 2
        assert sum_of(d) == n


def test_canonical_forms_biject_onto_the_integers():
    # uniqueness at small scale: enumerating every legal gap-2 form over
    # ranks 2..16 must hit each value exactly once
    values = sorted(sum_of(Decomposition(f)) for f in all_canonical_forms(16))
    assert values == list(range(len(values)))
    assert len(values) == fib(17)  # forms over [2,16] cover [0, F(17))


def test_sum_of_examples():
    assert sum_of(Decomposition((4, 6))) == 11
    assert sum_of(Decomposition(())) == 0
    assert sum_of(Decomposition((2, 3, 4, 5), gap=1)) == 11


def test_sum_of_overflow():
    d = Decomposition(tuple(range(2, 92)), gap=1)
    with pytest.raises(DomainError, match="^sum_of: ") as caught:
        sum_of(d)
    assert type(caught.value) is DomainError


def test_normalize_examples():
    assert normalize(Decomposition((2, 3, 4, 5), gap=1)).ranks == (4, 6)
    assert normalize(Decomposition((), gap=1)).ranks == ()
    assert normalize(Decomposition((3, 4), gap=1)).ranks == (5,)


def test_normalize_fixes_canonical_forms():
    for n in range(0, 5_000):
        d = decompose(n)
        assert normalize(d) == d


def test_normalize_rank_overflow():
    with pytest.raises(RankOverflow):
        normalize(Decomposition((90, 91), gap=1))


def random_relaxed(rng):
    """A random valid relaxed decomposition with a modest footprint."""
    count = rng.randint(0, 12)
    ranks = []
    k = 2
    for _ in range(count):
        k += rng.choice((0, 0, 0, 1, 2, 5))
        if k > 40:
            break
        ranks.append(k)
        k += 1
    return Decomposition(tuple(ranks), gap=1)


def test_normalization_against_greedy_oracle():
    rng = random.Random(0x5EED)
    for _ in range(10_000):
        d = random_relaxed(rng)
        canon = normalize(d)
        assert canon == decompose(sum_of(d))
        assert len(canon) <= len(d)
        if d.ranks:
            raise_ = canon.ranks[0] - d.ranks[0]
            assert raise_ >= 0
            assert raise_ % 2 == 0


def test_relax_round_trip():
    for n in range(0, 3_000):
        r = relax(decompose(n))
        assert r.gap == 1
        assert sum_of(r) == n
        assert normalize(r) == decompose(n)


def test_relax_bottoms_out():
    # lowest rank 2 or 3 cannot split further
    assert relax(decompose(1)).ranks == (2,)
    assert relax(decompose(11)).ranks == (2, 3, 6)


def test_low_examples():
    assert low(11) == 4
    assert low(1) == 2
    assert low(7) == 3


def test_low_matches_decompose():
    for n in range(1, 20_000):
        assert low(n) == decompose(n).ranks[0]


def test_low_domain():
    with pytest.raises(DomainError):
        low(0)


def test_classify_examples():
    assert classify(7) is THREE_ODD
    assert classify(20) is THREE_ODD
    assert classify(11) is RankClass.HIGH_EVEN
    assert classify(12) is TWO
    assert classify(2) is RankClass.THREE_BARE


@pytest.mark.parametrize("n, member", [
    (1, "TWO"), (7, "THREE_ODD"), (10, "THREE_EVEN"), (2, "THREE_BARE"),
    (3, "HIGH_EVEN"), (5, "HIGH_ODD")])
def test_classify_returns_the_member_itself(n, member):
    # classify returns names bound once at import; identity, not equality,
    # catches a bound name that points at the wrong member
    assert classify(n) is RankClass[member]
    assert decompose(n).ranks[:2] == {
        "TWO": (2,), "THREE_ODD": (3, 5), "THREE_EVEN": (3, 6),
        "THREE_BARE": (3,), "HIGH_EVEN": (4,), "HIGH_ODD": (5,)}[member]


def test_classify_domain():
    with pytest.raises(DomainError):
        classify(0)


def test_three_bare_is_only_two():
    hits = [n for n in range(1, 50_000) if classify(n) is RankClass.THREE_BARE]
    assert hits == [2]


def test_next_three_odd_examples():
    assert next_three_odd(0) == 7
    assert next_three_odd(7) == 15
    assert next_three_odd(15) == 20


def test_next_three_odd_steps_by_five_or_eight():
    n = 7
    while n < 100_000:
        m = next_three_odd(n)
        assert m - n in (5, 8)
        n = m


def test_next_three_odd_from_far_below_zero():
    # a scan that climbs one integer at a time from n + 1 would take hours
    # from -10**18: here that fails after 10 s instead of hanging
    out = run_python("from hofg import next_three_odd; print(next_three_odd(-10**18))")
    assert (out.returncode, out.stdout) == (0, "7\n"), out.stderr


def test_next_three_odd_past_the_value_range():
    # F(91) + 1 = F(2) + F(91) is Two, the next number F(3) + F(91) three-odd
    assert _ranks_oracle(fib(91) + 2) == (3, 91)
    assert next_three_odd(fib(91)) == fib(91) + 2 == 4660046610375530311
    # F(92) - 1 is itself three-odd, so the first step leaves the range
    top = fib(91) + fib(90) - 1
    assert classify(top) is THREE_ODD
    assert next_three_odd(top - 1) == top
    with pytest.raises(DomainError, match=f"^next_three_odd: n = {top} ") as caught:
        next_three_odd(top)
    assert type(caught.value) is DomainError


def test_successor_rank_law():
    # low(n)=2 makes low(n+1) odd; low(n)=3 makes it even and above 2;
    # anything higher resets low(n+1) to 2
    for n in range(1, 50_000):
        lo, nxt = low(n), low(n + 1)
        if lo == 2:
            assert nxt % 2 == 1
        elif lo == 3:
            assert nxt % 2 == 0 and nxt != 2
        else:
            assert nxt == 2


def test_predecessor_rank_law():
    for n in range(2, 50_000):
        lo, prv = low(n), low(n - 1)
        if lo % 2 == 1:
            assert prv == 2
        elif lo != 2:
            assert prv == 3
        else:
            assert prv > 3


def test_three_odd_even_from_two_below():
    for n in range(3, 50_000):
        c = classify(n)
        assert (c is THREE_ODD) == (low(n) == 3 and low(n - 2) % 2 == 1)
        assert (c is THREE_EVEN) == (low(n) == 3 and low(n - 2) % 2 == 0)


def test_high_even_rank_follows_a_three_odd():
    for n in range(2, 50_000):
        if low(n) % 2 == 0 and low(n) >= 6:
            assert classify(n - 1) is THREE_ODD


def test_relaxed_three_odd_start_still_classifies_three_odd():
    # a relaxed form starting 3, then an odd rank >= 5, normalizes to a
    # ThreeOdd value: the low end survives normalization mod 2
    rng = random.Random(1234)
    for _ in range(10_000):
        second = rng.randrange(5, 31, 2)
        tail = []
        k = second
        for _ in range(rng.randint(0, 6)):
            k += rng.choice((1, 2, 3))
            if k > 40:
                break
            tail.append(k)
        d = Decomposition((3, second, *tail), gap=1)
        assert classify(sum_of(d)) is THREE_ODD


def test_decomposition_validation():
    # the first two run under the default gap, 2
    for args, text in ((((1, 3),), "Decomposition: rank 1 outside [2, 91]"),
                       (((2, 3),), "Decomposition: ranks 2,3 violate the minimum gap 2"),
                       (((2, 2), 1), "Decomposition: ranks 2,2 violate the minimum gap 1"),
                       (((2, 95), 1), "Decomposition: rank 95 outside [2, 91]"),
                       (((2, 4), 3), "Decomposition: gap must be 1 or 2, got 3")):
        with pytest.raises(DomainError) as info:
            Decomposition(*args)
        assert str(info.value) == text
    assert len(Decomposition((2, 3), gap=1)) == 2


def test_decomposition_is_a_frozen_record():
    d = Decomposition((4, 6))
    assert (d.ranks, d.gap, len(d)) == ((4, 6), 2, 2)
    assert repr(d) == "Decomposition(ranks=(4, 6), gap=2)"
    assert d == Decomposition((4, 6), gap=2) == decompose(11)
    assert hash(d) == hash(Decomposition((4, 6), 2))
    assert d != Decomposition((4, 6), gap=1)
    assert len({d, decompose(11), relax(d)}) == 2
    assert not Decomposition(()) and len(Decomposition(())) == 0
    assert pickle.loads(pickle.dumps(d)) == d
    for name in ("ranks", "gap"):
        with pytest.raises(AttributeError):
            setattr(d, name, (2,))
    assert d.ranks == (4, 6)


def test_decomposition_replace_runs_the_checks():
    assert Decomposition((4, 6))._replace(gap=1) == Decomposition((4, 6), gap=1)
    with pytest.raises(DomainError):
        Decomposition((4, 6))._replace(ranks=(2, 3))


def test_fib_sum_text():
    assert fib_sum_text(decompose(11)) == "F_4+F_6"
    assert fib_sum_text(decompose(0)) == "0"
    assert fib_sum_text(decompose(1)) == "F_2"


# Oracles for the rank routes across the whole domain, sharing no code with
# the package: a local Fibonacci list, a local greedy split, the exact golden
# floor for g, and gbar by conjugating that floor with a local flip.
_F = [0, 1]
while len(_F) < 95:
    _F.append(_F[-2] + _F[-1])
_INV_EDGE = _F[92]  # first n whose greedy split would need rank 92
_COMPLEMENT_EDGE = _F[91] + 1  # first n whose depth block ends at F(92)


def _ranks_oracle(n):
    ranks = []
    while n:
        k = bisect_left(_F, n + 1) - 1
        ranks.append(k)
        n -= _F[k]
    return tuple(ranks[::-1])


def _g_oracle(n):
    m = n + 1
    return (m + isqrt(5 * m * m)) // 2 - m


def _flip_oracle(n):
    if n <= 1:
        return n
    k = bisect_left(_F, n) - 2  # n lies in [1 + F(k+1), F(k+2)]
    return 1 + _F[k + 3] - n


def _gbar_oracle(n):
    return _flip_oracle(_g_oracle(_flip_oracle(n)))


def _preimages(oracle, n):
    """The m with oracle(m) == n, for the g or gbar oracle: they lie within
    1 of n + g(n), about phi * n (2 is a margin)."""
    c = n + _g_oracle(n)
    return [m for m in range(c - 2, c + 3) if oracle(m) == n]


def _arity_oracle(oracle, n):
    """A node's children are its preimages: one when unary, two when binary."""
    return (None, Arity.UNARY, Arity.BINARY)[len(_preimages(oracle, n))]


def _class_oracle(n):
    lo, *rest = _ranks_oracle(n)
    if lo == 2:
        return TWO
    if lo == 3:
        return (THREE_ODD if rest[0] & 1 else THREE_EVEN) if rest else RankClass.THREE_BARE
    return RankClass.HIGH_ODD if lo & 1 else RankClass.HIGH_EVEN


def _log_uniform_points(rng, edge, count):
    """edge - 1 plus count - 1 points in [1, edge), uniform in bit length."""
    top = (edge - 1).bit_length()
    points = [edge - 1]
    for _ in range(count - 1):
        b = rng.randint(1, top)
        points.append(rng.randrange(1 << (b - 1), min(1 << b, edge)))
    return points


def test_rank_route_domain_edges():
    last = _INV_EDGE - 1
    assert low(last) == _ranks_oracle(last)[0]
    assert decompose(last).ranks == _ranks_oracle(last)
    assert classify(last) is THREE_ODD  # F(3) + F(5) + ... + F(91)
    assert g_via_decomposition(last) == _g_oracle(last)
    for route in (low, classify, decompose, g_via_decomposition):
        with pytest.raises(RankOverflow):
            route(_INV_EDGE)
    last = _COMPLEMENT_EDGE - 1
    assert last == fib(91)
    assert gbar_via_complement(last) == _gbar_oracle(last)
    with pytest.raises(RankOverflow):
        gbar_via_complement(_COMPLEMENT_EDGE)


def test_arity_domain_edges():
    for n in range(2, 2_000):
        assert g_arity(n) is _arity_oracle(_g_oracle, n), n
        assert gbar_arity(n) is _arity_oracle(_gbar_oracle, n), n
    assert g_arity(_INV_EDGE - 1) is _arity_oracle(_g_oracle, _INV_EDGE - 1) is Arity.UNARY
    with pytest.raises(HofgError):
        g_arity(_INV_EDGE)
    # gbar_arity reads flip, whose top edge is F(90)
    assert gbar_arity(_F[90]) is _arity_oracle(_gbar_oracle, _F[90]) is Arity.BINARY
    with pytest.raises(HofgError):
        gbar_arity(_F[90] + 1)


def _overflow(name):
    return RankOverflow, f"{name}: n = {{n}} needs a Fibonacci rank beyond 91"


def children_g(n):
    return children("g", n)


def children_gbar(n):
    return children("gbar", n)


# Each public scalar function that reads Fibonacci ranks: its lower edge
# (None: any n), its top edge, its oracle, and the exact error above the top
# edge.  That error names the function, or the public function it hands n
# to, at the n it was given; below the lower edge the function names itself.
EDGES = [
    (fib_inv, 1, _INV_EDGE - 1, lambda n: _ranks_oracle(n)[-1], _overflow("fib_inv")),
    (decompose, 0, _INV_EDGE - 1, lambda n: Decomposition(_ranks_oracle(n)),
     _overflow("decompose")),
    (low, 1, _INV_EDGE - 1, lambda n: _ranks_oracle(n)[0], _overflow("low")),
    (classify, 1, _INV_EDGE - 1, _class_oracle, _overflow("classify")),
    (g_via_decomposition, 0, _INV_EDGE - 1, _g_oracle, _overflow("g_via_decomposition")),
    (g_arity, 1, _INV_EDGE - 1, lambda n: _arity_oracle(_g_oracle, n), _overflow("low")),
    (depth, 0, _INV_EDGE, lambda n: bisect_left(_F, n) - 2, _overflow("depth")),
    (flip, 0, _F[90], _flip_oracle, _overflow("flip")),
    (gbar_arity, 1, _F[90], lambda n: _arity_oracle(_gbar_oracle, n), _overflow("flip")),
    (gbar_via_complement, 0, _F[91], _gbar_oracle, _overflow("gbar_via_complement")),
    # the functions that answer through g or gbar: each names the function
    # it hands the same n to, or itself where it hands on another n
    (gbar_via_g_correction, 0, _INV_EDGE - 1, _gbar_oracle,
     _overflow("g_via_decomposition")),
    # the largest antecedent of F(91) is F(92), past the rank edge
    (g_max_antecedent, 0, _F[91] - 1, lambda n: n + _g_oracle(n),
     _overflow("g_max_antecedent")),
    (children_g, 1, _F[91] - 1, lambda n: _preimages(_g_oracle, n),
     _overflow("g_max_antecedent")),
    (gbar_via_flip, 0, _F[90], _gbar_oracle, _overflow("gbar_via_flip")),
    (children_gbar, 1, _F[90], lambda n: _preimages(_gbar_oracle, n), _overflow("flip")),
    (gbar_rightmost_child, 2, _F[91] - 1, lambda n: _preimages(_gbar_oracle, n)[-1],
     _overflow("gbar_rightmost_child")),
    # a level-88 node's smallest child is on level 89, past flip's edge F(90)
    (gbar_leftmost_child, 2, _F[89], lambda n: _preimages(_gbar_oracle, n)[0],
     _overflow("gbar_leftmost_child")),
    (next_three_odd, None, _INV_EDGE - 2,
     lambda n: next(m for m in range(n + 1, n + 9) if _class_oracle(m) is THREE_ODD),
     (DomainError, "next_three_odd: n = {n} has no three-odd successor < F(92)")),
]


@pytest.mark.parametrize("func, lo, edge, oracle, error", EDGES,
                         ids=[row[0].__name__ for row in EDGES])
def test_top_edge_answers_and_then_names_the_function_and_n(func, lo, edge, oracle, error):
    assert func(edge) == oracle(edge)
    kind, text = error
    for n in (edge + 1, 2**63 - 1):
        with pytest.raises(HofgError) as caught:
            func(n)
        # exact: RankOverflow is itself a DomainError
        assert type(caught.value) is kind, n
        assert str(caught.value) == text.format(n=n)
    if lo is not None:
        func(lo)  # answers: the oracles do not all cover the root and 0
        name = {children_g: "children", children_gbar: "children"}.get(func, func.__name__)
        with pytest.raises(HofgError) as caught:
            func(lo - 1)
        assert type(caught.value) is DomainError
        assert str(caught.value) == f"{name}: n must be >= {lo}, got {lo - 1}"


def test_complement_route_with_and_without_a_rank_two_term():
    # gbar_via_complement subtracts F(i - 1) for the ranks i > 2 of
    # F(k + 2) - n; a rank-2 term of the complement is left out
    def complement(n):
        return _F[bisect_left(_F, n)] - n  # F(k + 2), the top of n's block

    with_two = [4, 12, 30, 33, 88, _F[60] - 1, _F[91] - 1, _F[91] - 4]
    without = [5, 11, 31, 87, _F[60] - 2, _F[91] - 2, _F[91]]
    for n in with_two:
        assert _ranks_oracle(complement(n))[:1] == (2,), n
    for n in without:
        assert 2 not in _ranks_oracle(complement(n)), n
    for n in with_two + without:
        assert gbar_via_complement(n) == _gbar_oracle(n), n
    assert (gbar_via_complement(4), gbar_via_complement(5)) == (3, 3)
    assert gbar_via_complement(_F[91]) == _F[90]
    with pytest.raises(RankOverflow, match=f"^gbar_via_complement: n = {_COMPLEMENT_EDGE} "
                       "needs a Fibonacci rank beyond 91$"):
        gbar_via_complement(_COMPLEMENT_EDGE)
    with pytest.raises(RankOverflow):
        gbar_via_complement(2**63 - 1)


def test_rank_routes_at_random_points_across_the_domain():
    rng = random.Random(20260)
    for n in _log_uniform_points(rng, _INV_EDGE, 2000):
        ranks = _ranks_oracle(n)
        assert decompose(n).ranks == ranks, n
        assert low(n) == ranks[0], n
        assert g_via_decomposition(n) == _g_oracle(n), n
    for n in _log_uniform_points(rng, _COMPLEMENT_EDGE, 2000):
        assert gbar_via_complement(n) == _gbar_oracle(n), n
    for n in _log_uniform_points(rng, _F[90] + 1, 2000):
        assert flip(n) == _flip_oracle(n), n
    for n in _log_uniform_points(rng, _F[92] + 1, 2000):
        assert depth(n) == (bisect_left(_F, n) - 2 if n > 1 else 0), n
    # the phi floor against the rank sum, not against the floor it computes
    for n in _log_uniform_points(rng, _INV_EDGE, 2000):
        assert g_via_phi(n) == sum(_F[k - 1] for k in _ranks_oracle(n)), n


def test_greedy_walk_matches_a_full_table_walk():
    # the walk looks each term up by its bit length; the oracle bisects the
    # whole table for every term, so agreement on each n pins that no rank is lost
    for n in range(300_001):
        assert _greedy_ranks(n, "decompose") == _ranks_oracle(n), n


def test_greedy_walk_domain_edges():
    assert _INV_LIMIT == _INV_EDGE
    assert _greedy_ranks(_INV_LIMIT - 1, "decompose") == _ranks_oracle(_INV_LIMIT - 1)
    # each term starts from the top rank of the remainder's bit length: pin
    # both sides of every Fibonacci number and of every power of two
    edges = {_F[k] + d for k in range(93) for d in (-1, 1)}
    edges |= {(1 << b) + d for b in range(64) for d in (-1, 0)}
    for n in sorted(e for e in edges if 0 <= e < _INV_LIMIT):
        assert _greedy_ranks(n, "decompose") == _ranks_oracle(n), n
    for n in (_INV_LIMIT, 2**63 - 1):
        with pytest.raises(RankOverflow, match=f"^low: n = {n} "):
            _greedy_ranks(n, "low")


def test_greedy_walk_hands_out_tuples():
    # the walk finishes from a fixed table below F(18), and a hit joins an
    # entry of it to the memo's high ranks: every form is an immutable
    # tuple, so no caller can change what the next caller reads
    assert isinstance(_LOW_RANKS, tuple)
    assert all(isinstance(entry, tuple) for entry in _LOW_RANKS)
    for n in (7, 2583, 10**6, _F[90]):
        _greedy_ranks(_F[60], "low")  # another walk's memo, so n misses
        before = zeckendorf._memo
        missed = _greedy_ranks(n, "decompose")
        memo = zeckendorf._memo
        assert memo is not before and type(memo[2]) is tuple, n
        hit = _greedy_ranks(n, "decompose")
        assert zeckendorf._memo is memo, n
        for ranks in (missed, hit):
            assert type(ranks) is tuple and ranks == _ranks_oracle(n), n
    # 10**6 and 10**6 + 1 share the high ranks of 10**6 (30, 26, 24), and
    # 999801 is those ranks alone
    for n in (10**6, 999_801, _F[90]):
        _greedy_ranks(n, "decompose")
        memo = zeckendorf._memo
        for m in (n, n + 1):
            assert _greedy_ranks(m, "decompose") == _ranks_oracle(m), m
            assert zeckendorf._memo is memo, m  # a hit, not a fresh walk
    # the entry guard runs before the memo and leaves it as it was
    with pytest.raises(DomainError) as caught:
        _greedy_ranks(-1, "low")
    assert str(caught.value) == "low: n must be >= 0, got -1"
    with pytest.raises(RankOverflow) as caught:
        _greedy_ranks(_INV_LIMIT, "classify")
    assert str(caught.value) == (
        f"classify: n = {_INV_LIMIT} needs a Fibonacci rank beyond 91")
    assert zeckendorf._memo is memo
    assert _greedy_ranks(_F[90] + 2583, "decompose") == _ranks_oracle(_F[90] + 2583)
    assert zeckendorf._memo is memo


def test_greedy_walk_descending_sweep():
    # each n below the memo's base H walks afresh, and its high ranks serve
    # the n below it down to their own base
    for n in range(60_000, -1, -1):
        assert _greedy_ranks(n, "decompose") == _ranks_oracle(n), n


@pytest.mark.parametrize("k", [19, 20, 21, 30, 60, 91])
def test_greedy_walk_windows_across_a_fibonacci_number(k):
    # F(k) - 1 is F(k-1) + F(k-3) + ...: for odd k its lowest high rank is
    # 18, whose span is F(17), not F(18), so an ascending window reaches the
    # span's edge at F(k) itself; for even k the lowest high rank is 19
    window = range(_F[k] - 1700, _F[k] + 1700)
    assert min(r for r in _ranks_oracle(_F[k] - 1) if r >= 18) == (18 if k % 2 else 19)
    for sweep in (window, reversed(window)):
        for n in sweep:
            assert _greedy_ranks(n, "decompose") == _ranks_oracle(n), n


def test_greedy_walk_sweeps_interleaved_with_random_points():
    # a random point replaces the memo, so the sweep's next n walks afresh
    rng = random.Random(91)
    points = _log_uniform_points(rng, _INV_EDGE, 6000)
    for sweep in (range(10**6 - 6000, 10**6 + 6000), range(_F[60] + 6000, _F[60] - 6000, -1)):
        for n in sweep:
            if rng.random() < 0.1:
                m = points.pop()
                assert _greedy_ranks(m, "low") == _ranks_oracle(m), m
            assert _greedy_ranks(n, "decompose") == _ranks_oracle(n), n


def test_greedy_walk_memo_shared_by_threads():
    # each thread sweeps its own window, so the threads keep replacing one
    # another's memo; a walk that read a half-written memo would go wrong
    windows = [range(_F[k] - 1200, _F[k] + 1200) for k in (21, 30, 45, 60, 75, 91)]
    expected = [[_ranks_oracle(n) for n in w] for w in windows]
    wrong = []

    def sweep(window, want):
        try:
            for _ in range(3):
                if [_greedy_ranks(n, "decompose") for n in window] != want:
                    wrong.append(window)
        except IndexError as exc:  # a read past _LOW_RANKS: a torn memo too
            wrong.append(exc)

    threads = [threading.Thread(target=sweep, args=pair) for pair in zip(windows, expected)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_greedy_walk_rejects_negatives_without_looping():
    # a negative remainder stops the step-down at rank 0, and peeling F(0) = 0
    # never reaches 0, so a walk without its entry guard hangs: here that
    # fails after 10 s
    out = run_python(
        "from hofg.zeckendorf import _greedy_ranks; _greedy_ranks(-1, 'decompose')")
    assert out.returncode == 1
    assert out.stderr.splitlines()[-1].endswith(
        "DomainError: decompose: n must be >= 0, got -1"), out.stderr
