"""The route registry: each route stays independent of its own function's
defining table, no route builds a table of its own, and a check task
compares with the shared table without copying it."""

import sys

import pytest

from hofg import MemoTable, flip_gbar, g_func
from hofg.portfolio import ROUTES, _check_task


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
    assert list(route.values(2000)) == MemoTable(route.func).prefix(2001)


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
    for _ in route.values(2000):
        pass
    assert built == []


def test_no_route_reaches_its_own_functions_fill(monkeypatch):
    # the route census: with both shared tables filled to 3000, a profiler
    # records whose MemoTable._fill each route's sweep reaches.  A route may
    # grow the other function's table (flip reads g past n), never its own.
    fill = MemoTable._fill.__code__
    reached = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code is fill:
            reached.append(frame.f_locals["self"].which)

    for module, name, which in ((g_func, "_G", "g"), (flip_gbar, "_GBAR", "gbar")):
        table = MemoTable(which)
        table.ensure(3000)
        monkeypatch.setattr(module, name, table)
    census = {}
    previous = sys.getprofile()
    sys.setprofile(watch)
    try:
        MemoTable("gbar").ensure(10)  # the profiler sees a fill
        assert reached == ["gbar"]
        for route in ROUTES:
            reached.clear()
            for _ in route.values(3000):
                pass
            census[ids(route)] = set(reached)
    finally:
        sys.setprofile(previous)
    assert all(route.func not in census[ids(route)] for route in ROUTES), census


@pytest.mark.parametrize("func", ["g", "gbar"])
def test_word_routes_match_the_defining_table(func):
    route = next(r for r in ROUTES if (r.func, r.key) == (func, "word"))
    table = MemoTable(func)
    expect = table.prefix(3000)
    for top in range(3000):  # each word length, and each length between
        assert list(route.values(top)) == expect[:top + 1], top
    assert list(route.values(10**6)) == table.prefix(10**6 + 1)


def test_route_tasks_compare_against_the_shared_tables_in_place(monkeypatch):
    # a route task reads the filled g or gbar table as it stands: a copy of
    # its prefix would cost each forked check child 8 MB at --max 10^6
    def no_copy(self, count):
        raise AssertionError(f"a route task copied {count} entries of {self.which}")

    monkeypatch.setattr(MemoTable, "prefix", no_copy)
    for task, route in enumerate(ROUTES):
        [(name, ok, detail, _)] = _check_task(task, 2000)
        assert (name, ok, detail) == (route.name, True, "n=0..2000")
