"""Top-level acceptance gate.

One test per shipping criterion, in order, each ending with a single
ACCEPT line (visible under pytest -s).  Timed criteria do their whole
sweep inside the measured window, using fresh tables where a fill is part
of the work; untimed criteria share the session-scoped arrays from
conftest.  Criteria 2 and 3 sweep every registry route of their function
through portfolio.compare; the scalar functions behind the rank routes'
window forms are swept n by n in test_portfolio.py.  Budgets are
wall-clock seconds on the machine running the suite.
"""

import random
import time
from pathlib import Path

from hofg import (
    Arity,
    MemoTable,
    RankClass,
    build_tree,
    classify,
    decompose,
    fib,
    flip,
    g,
    g_values,
    g_via_phi,
    gbar,
    normalize,
    parse_bfile,
    resolve_offset,
    sum_of,
    verify,
)
from hofg.portfolio import ROUTES, compare
from hofg.zeckendorf import Decomposition

LIMIT = 1_000_000
DATA = Path(__file__).parent / "data"

THREE_ODD = RankClass.THREE_ODD
THREE_EVEN = RankClass.THREE_EVEN


def report(criterion, label, extra=""):
    print(f"ACCEPT {criterion} {label}: PASS{extra}")


def random_relaxed(rng):
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


def test_criterion_1_initial_values():
    assert [g(n) for n in range(6)] == [0, 1, 1, 2, 3, 3]
    assert [gbar(n) for n in range(4)] == [0, 1, 1, 2]
    assert gbar(7) == 5
    report(1, "initial values")


def sweep_routes(func, defining, count):
    """Compare every registry route to func with defining over 0..LIMIT."""
    routes = [route for route in ROUTES if route.func == func]
    assert len(routes) == count, [route.name for route in routes]
    for route in routes:
        assert compare(route, defining, LIMIT) == (True, f"n=0..{LIMIT}"), route.name


def test_criterion_2_four_way_g_equivalence():
    started = time.perf_counter()
    defining = MemoTable("g").prefix(LIMIT + 1)
    sweep_routes("g", defining, 3)  # decomposition, word, phi floor
    assert g_via_phi(1) == defining[1]  # pins the off-by-one in the floor form
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(2, f"four-way g equivalence to {LIMIT}", f" ({elapsed:.1f} s)")


def test_criterion_3_five_way_gbar_equivalence():
    started = time.perf_counter()
    defining = MemoTable("gbar").prefix(LIMIT + 1)
    sweep_routes("gbar", defining, 4)  # flip, word, correction, complement
    elapsed = time.perf_counter() - started
    assert elapsed < 20.0
    report(3, f"five-way gbar equivalence to {LIMIT}", f" ({elapsed:.1f} s)")


def test_criterion_4_comparison_law():
    started = time.perf_counter()
    gv = MemoTable("g").prefix(LIMIT + 1)
    bv = MemoTable("gbar").prefix(LIMIT + 1)
    prev_odd = None
    first_odd = None
    for n in range(1, LIMIT + 1):
        diff = bv[n] - gv[n]
        assert diff in (0, 1), n
        is_odd3 = classify(n) is THREE_ODD
        assert (diff == 1) == is_odd3, n
        if is_odd3:
            if first_odd is None:
                first_odd = n
            else:
                assert n - prev_odd in (5, 8), n
            prev_odd = n
    assert first_odd == 7
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(4, f"comparison and spacing to {LIMIT}", f" ({elapsed:.1f} s)")


def test_criterion_5_equation_suites(g_seq, gbar_seq, lows, classes):
    gg = g_values(LIMIT + g_seq[LIMIT] + 3)  # reach n + g(n) + 1 at the top
    for n in range(LIMIT + 1):
        assert gg[n + gg[n]] == n, ("largest antecedent", n)
        assert gg[n + gg[n] + 1] == n + 1, ("largest antecedent +1", n)
        assert gg[n] + gg[gg[n + 1] - 1] == n, ("alternative g equation", n)

    for n in range(4, LIMIT + 1):
        assert gbar_seq[gbar_seq[n]] + gbar_seq[n - 1] == n, \
            ("alternative gbar equation", n)
        assert gbar_seq[n] == n + 1 - gbar_seq[1 + gbar_seq[n - 1]], \
            ("gbar defining form", n)

    for n in range(LIMIT):
        d_next = g_seq[n + 2] - g_seq[n + 1]
        d_here = g_seq[n + 1] - g_seq[n]
        j = g_seq[n]
        assert d_next == 1 - d_here * (g_seq[j + 1] - g_seq[j]), \
            ("g difference recurrence", n)
    for n in range(3, LIMIT):
        d_next = gbar_seq[n + 2] - gbar_seq[n + 1]
        d_here = gbar_seq[n + 1] - gbar_seq[n]
        q = gbar_seq[n + 1]
        assert d_next == 1 - d_here * (gbar_seq[q + 1] - gbar_seq[q]), \
            ("gbar difference recurrence", n)

    for n in range(1, LIMIT + 1):
        lo, nxt = lows[n], lows[n + 1]
        if lo == 2:
            assert nxt % 2 == 1, ("successor law", n)
        elif lo == 3:
            assert nxt % 2 == 0 and nxt != 2, ("successor law", n)
        else:
            assert nxt == 2, ("successor law", n)
    for n in range(2, LIMIT + 1):
        lo, prv = lows[n], lows[n - 1]
        if lo % 2 == 1:
            assert prv == 2, ("predecessor law", n)
        elif lo != 2:
            assert prv == 3, ("predecessor law", n)
        else:
            assert prv > 3, ("predecessor law", n)
    for n in range(3, LIMIT + 1):
        c = classes[n]
        assert (c is THREE_ODD) == (lows[n] == 3 and lows[n - 2] % 2 == 1), \
            ("three-odd characterization", n)
        assert (c is THREE_EVEN) == (lows[n] == 3 and lows[n - 2] % 2 == 0), \
            ("three-even characterization", n)
    for n in range(2, LIMIT + 1):
        if lows[n] % 2 == 0 and lows[n] >= 6:
            assert classes[n - 1] is THREE_ODD, ("high-even predecessor", n)

    for n in range(1, LIMIT + 1):
        assert (g_seq[n + 1] == g_seq[n]) == (lows[n] == 2), ("plateau law", n)
        if lows[n] % 2 == 1:
            assert g_seq[n - 1] == g_seq[n], ("step-down law", n)
        else:
            assert g_seq[n - 1] == g_seq[n] - 1, ("step-down law", n)
        if lows[n] > 2:
            assert lows[g_seq[n]] == lows[n] - 1, ("rank shift law", n)
        lo = lows[n]
        img = lows[g_seq[n]]
        if lo == 2:
            assert img % 2 == 0, ("image rank law", n)
        elif lo == 3:
            assert img == 2, ("image rank law", n)
        else:
            assert img > 2 and lows[g_seq[n] + 1] % 2 == 0, \
                ("image rank law", n)
        c = classes[n]
        if c is THREE_EVEN:
            assert classes[g_seq[n] + 1] is THREE_ODD, ("class transport", n)
        elif c is THREE_ODD:
            assert (classes[g_seq[n] + 1] is THREE_EVEN
                    or lows[g_seq[n] + 1] > 3), ("class transport", n)
    report(5, f"equation suites exhaustive to {LIMIT}")


def test_criterion_6_decomposition_round_trip():
    for n in range(LIMIT + 1):
        d = decompose(n)
        assert sum_of(d) == n, n
        assert normalize(d) == d, n
    rng = random.Random(20260819)
    for _ in range(10_000):
        d = random_relaxed(rng)
        canon = normalize(d)
        assert canon == decompose(sum_of(d))
        assert len(canon) <= len(d)
    report(6, f"round trip and uniqueness to {LIMIT}, 10000 relaxed forms")


def test_criterion_7_tree_suite():
    started = time.perf_counter()
    max_depth = 20
    gt = build_tree("g", max_depth)
    bt = build_tree("gbar", max_depth)
    for t in (gt, bt):
        for k in range(1, max_depth + 1):
            lv = t.level(k)
            assert lv.start == 1 + fib(k + 1)
            assert lv.stop == fib(k + 2) + 1
            assert len(lv) == fib(k)
            for n in lv:
                assert t.parent[n] in t.level(k - 1)
    for p, kids in gt.child_lists.items():
        if p <= 2:
            continue
        if gt.arity[p] is Arity.BINARY:
            assert gt.arity[kids[0]] is Arity.BINARY
            assert gt.arity[kids[1]] is Arity.UNARY
        else:
            assert gt.arity[kids[0]] is Arity.BINARY
    for p, kids in bt.child_lists.items():
        if p <= 2:
            continue
        if bt.arity[p] is Arity.BINARY:
            assert bt.arity[kids[1]] is Arity.BINARY
            assert bt.arity[kids[0]] is Arity.UNARY
        else:
            assert bt.arity[kids[0]] is Arity.BINARY
    g_edges = {(p, c) for c, p in gt.parent.items()}
    b_edges = {(p, c) for c, p in bt.parent.items()}
    assert {(flip(p), flip(c)) for p, c in g_edges} == b_edges
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(7, f"tree suite at depth {max_depth}", f" ({elapsed:.1f} s)")


def test_criterion_8_oeis_conformance():
    for name, func in (("b005206.txt", "g"), ("b123070.txt", "gbar")):
        rs = parse_bfile((DATA / name).read_text())
        assert len(rs) >= 10_000, name
        offset = resolve_offset(rs, func)
        rep = verify(rs, func, offset)
        assert rep.ok, rep.to_text()
        assert rep.compared >= 10_000
    report(8, "OEIS conformance, two fixtures, 10000 terms each")


def test_criterion_9_three_odd_density(classes):
    count = sum(1 for n in range(1, LIMIT + 1) if classes[n] is THREE_ODD)
    density = count / LIMIT
    assert density < 0.20
    report(9, "three-odd density", f" ({density:.4f} < 0.20)")
