"""The route registry: each route stays independent of its own function's
defining table, no route builds a table of its own, and a check task
compares with the shared table without copying it.  The scalar rank
routes' window forms agree with their scalar functions on any window, and
the scalar functions themselves, which `check` calls only once per window,
agree with the defining tables at every n up to 10^6."""

import random
import sys
from pathlib import Path

import pytest

from hofg import (MemoTable, RankOverflow, cli, fib, flip_gbar, g, g_func, g_via_decomposition,
                  g_via_phi, gbar, gbar_via_complement, gbar_via_flip, gbar_via_g_correction,
                  portfolio)
from hofg.portfolio import ROUTES, _run_suite, check
from hofg.zeckendorf import _greedy_ranks

DATA = Path(__file__).parent / "data"
LIMIT = 10**6
SCALARS = {"decomposition": g_via_decomposition, "phi": g_via_phi, "flip": gbar_via_flip,
           "correction": gbar_via_g_correction, "complement": gbar_via_complement}
# values(0, top) at the edges of the windows of ranks >= 18 and of tree blocks
TOPS = [0, 1, 2, 3, 4, 7, 20, 100, 2583, 2584, 2585, 4180, 4181, 6765, 10946, 46368,
        300_000, LIMIT]


def ids(route):
    return f"{route.func}-{route.key}"


@pytest.mark.parametrize("route", ROUTES, ids=ids)
def test_no_route_reads_its_own_functions_table(monkeypatch, route):
    # a shared table with one wrong entry: a route that reads it fails.
    # gbar's flip and correction routes may read the intact g table.
    wrong = MemoTable(route.func)
    wrong.ensure(6000)
    wrong._values[100] += 1
    module, name = (g_func, "_G") if route.func == "g" else (flip_gbar, "_GBAR")
    monkeypatch.setattr(module, name, wrong)
    assert list(route.values(0, 2000)) == MemoTable(route.func).prefix(2001)


@pytest.mark.parametrize("route", ROUTES, ids=ids)
def test_no_route_builds_a_memo_table(monkeypatch, route):
    # a route may read the shared tables, but a table of its own would hold
    # about 28 B per entry where a word route holds 1 B
    built = []
    init = MemoTable.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MemoTable, "__init__", counted_init)
    for _ in route.values(0, 2000):
        pass
    assert built == []


def test_no_route_reaches_its_own_functions_fill(monkeypatch, capsys):
    # the route census: with both shared tables filled to 3000, a profiler
    # records whose MemoTable._fill each route's sweep reaches, and which
    # route's scalar function.  A route may grow the other function's table
    # (flip reads g past n), never its own, and may call its own scalar
    # function, never another route's.  seq and verify, past 3000 here,
    # reach no fill and build no table.
    fill, init = MemoTable._fill.__code__, MemoTable.__init__.__code__
    scalars = {func.__code__: key for key, func in SCALARS.items()}
    reached = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code is fill:
            reached.append(frame.f_locals["self"].which)
        if event == "call" and frame.f_code is init:
            reached.append("a new table")
        if event == "call" and frame.f_code in scalars:
            reached.append(scalars[frame.f_code])

    for module, name, which in ((g_func, "_G", "g"), (flip_gbar, "_GBAR", "gbar")):
        table = MemoTable(which)
        table.ensure(3000)
        monkeypatch.setattr(module, name, table)
    commands = [["seq", func, "--to", "5000"] for func in cli._SEQ] + [
        ["verify", "--bfile", str(DATA / bfile), "--func", func] for bfile, func in
        (("b005206.txt", "g"), ("b123070.txt", "gbar"))]
    census = {}
    previous = sys.getprofile()
    sys.setprofile(watch)
    try:
        MemoTable("gbar").ensure(10)  # the profiler sees a build and a fill
        assert reached == ["a new table", "gbar"]
        for route in ROUTES:
            reached.clear()
            for _ in route.values(0, 3000):
                pass
            census[ids(route)] = set(reached)
        for argv in commands:
            reached.clear()
            assert cli.run(argv) == 0, argv
            census[" ".join(argv)] = set(reached)
    finally:
        sys.setprofile(previous)
    assert all(route.func not in census[ids(route)] for route in ROUTES), census
    assert all(census[ids(route)] & SCALARS.keys() <= {route.key} for route in ROUTES), census
    assert all(census[" ".join(argv)].isdisjoint({"g", "gbar", "a new table"})
               for argv in commands), census


@pytest.mark.parametrize("func", ["g", "gbar"])
def test_word_routes_match_the_defining_table(func):
    route = next(r for r in ROUTES if (r.func, r.key) == (func, "word"))
    table = MemoTable(func)
    expect = table.prefix(3000)
    for top in range(3000):  # each word length, and each length between
        assert list(route.values(0, top)) == expect[:top + 1], top
    assert list(route.values(0, 10**6)) == table.prefix(10**6 + 1)


@pytest.mark.parametrize("route", ROUTES, ids=ids)
def test_every_route_yields_nothing_on_an_empty_window(route):
    # values(lo, hi) yields the values at lo..hi, so none when hi < lo;
    # lo >= 1, as the rank forms test hi against their scalar's edge first
    for lo in (1, 5, 2584, 100_000):
        assert list(route.values(lo, lo - 1)) == [], lo


def test_route_tasks_compare_against_the_shared_tables_in_place(monkeypatch):
    # a route task reads the filled g or gbar table as it stands: a copy of
    # its prefix would cost each forked check child 8 MB at --max 10^6
    def no_copy(self, count):
        raise AssertionError(f"a route task copied {count} entries of {self.which}")

    monkeypatch.setattr(MemoTable, "prefix", no_copy)
    for route in ROUTES:
        name, ok, detail, _ = _run_suite(route, 2000)
        assert (name, ok, detail) == (route.name, True, "n=0..2000")


def route(key):
    """The route of a key that only one function has (not "word")."""
    return next(r for r in ROUTES if r.key == key)


def scalar(route):
    """What a route's values must equal n by n: its scalar function, or for
    a word route, which has none, its function's defining table."""
    return SCALARS.get(route.key, g if route.func == "g" else gbar)


def first_mismatch(fn, expect):
    """The first n with fn(n) != expect[n], or None."""
    got = list(map(fn, range(len(expect))))
    return next((n for n, (a, b) in enumerate(zip(got, expect)) if a != b), None)


@pytest.fixture(scope="module")
def defining():
    return {func: MemoTable(func).prefix(LIMIT + 1) for func in ("g", "gbar")}


@pytest.mark.parametrize("key", ["decomposition", "complement", "flip", "correction"])
def test_scalar_functions_match_the_defining_table_at_every_n(defining, key):
    # check calls these once per window or block: this is their sweep
    func = "g" if key == "decomposition" else "gbar"
    assert first_mismatch(SCALARS[key], defining[func]) is None


def windows_around(ks, width=3000):
    return [(max(0, fib(k) - width), fib(k) + width) for k in ks]


@pytest.mark.parametrize("key", ["decomposition", "complement"])
def test_table_free_window_forms_match_their_scalar_functions_across_the_domain(key):
    rng = random.Random(29)
    tops = [rng.randrange(1 << rng.randrange(1, fib(90).bit_length())) for _ in range(100)]
    far = [(lo, lo + rng.randrange(3000)) for lo in (min(t, fib(90) - 3000) for t in tops)]
    r = route(key)
    for lo, hi in windows_around(range(19, 89)) + far:
        assert list(r.values(lo, hi)) == list(map(SCALARS[key], range(lo, hi + 1))), (lo, hi)


@pytest.mark.parametrize("r", ROUTES, ids=ids)
def test_every_route_matches_its_scalar_function_around_each_block_edge(r):
    for lo, hi in windows_around(range(31)) + [(2, 2), (5, 5), (2583, 2585)]:
        assert list(r.values(lo, hi)) == list(map(scalar(r), range(lo, hi + 1))), (lo, hi)


@pytest.mark.parametrize("r", ROUTES, ids=ids)
def test_every_route_matches_the_defining_table_from_zero(defining, r):
    # the scalar functions equal this table at each n (the sweep above)
    expect = defining[r.func]
    for top in TOPS:
        assert list(r.values(0, top)) == expect[:top + 1], top


@pytest.mark.parametrize("key, name", [("decomposition", "g_via_decomposition"),
                                       ("complement", "gbar_via_complement"),
                                       ("correction", "classify")])
def test_window_forms_build_their_low_tables_only_as_far_as_hi(monkeypatch, key, name):
    # a small check pays for no table of all 2584 r < F(18)
    calls = []
    real = getattr(portfolio, name)
    monkeypatch.setattr(portfolio, name, lambda n: calls.append(n) or real(n))
    assert list(route(key).values(0, 100)) == list(map(SCALARS[key], range(101)))
    assert 90 < len(calls) <= 120


def test_a_mutant_between_window_bases_passes_check_and_fails_the_scalar_sweep(
        monkeypatch, defining):
    # one too many when n's ranks hold both 17 and 20: a window base has no
    # rank below 18 and the table of r < F(18) no rank above 17, so check
    # never calls the mutant where it differs; the per-n sweep does
    def mutant(n):
        ranks = _greedy_ranks(n, "g_via_decomposition")
        return g_via_decomposition(n) + (17 in ranks and 20 in ranks)

    monkeypatch.setattr(portfolio, "g_via_decomposition", mutant)
    _, suites = check(LIMIT, {"decomposition"})
    assert [ok for _, ok, _, _ in suites] == [True] * 7
    assert first_mismatch(mutant, defining["g"][:20_000]) == fib(17) + fib(20) == 8362


def test_window_forms_past_the_rank_edge_raise_their_scalar_functions_error():
    for key, n in (("decomposition", fib(91) + fib(90) - 1), ("complement", fib(91))):
        with pytest.raises(RankOverflow) as caught:
            list(route(key).values(n, n + 1))
        assert str(caught.value) == (f"{SCALARS[key].__name__}: n = {n + 1} needs a "
                                     "Fibonacci rank beyond 91")
