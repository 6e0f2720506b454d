"""The route registry: each route stays independent of its own function's
defining table."""

import pytest

from hofg import MemoTable, flip_gbar, g_func
from hofg.portfolio import ROUTES


@pytest.mark.parametrize("route", ROUTES, ids=lambda route: f"{route.func}-{route.key}")
def test_no_route_reads_its_own_functions_table(monkeypatch, route):
    # a shared table with one wrong entry: a route that reads it fails.
    # gbar's flip and correction routes may read the intact g table.
    wrong = MemoTable(route.func)
    wrong.ensure(6000)
    wrong._values[100] += 1
    module, name = (g_func, "_G") if route.func == "g" else (flip_gbar, "_GBAR")
    monkeypatch.setattr(module, name, wrong)
    assert list(route.values(2000)) == MemoTable(route.func).prefix(2001)
