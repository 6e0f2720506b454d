"""The route registry and the check engine behind `hofg check`.

ROUTES lists every independent route to g and gbar once; check() compares
each selected route with the defining-equation table of its function and
runs five invariant spot checks, so a route added here is checked.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, Iterable, NamedTuple

from .errors import HofgError
from .flip_gbar import (gbar, gbar_values, gbar_via_complement, gbar_via_flip,
                        gbar_via_g_correction)
from .g_func import MemoTable, g, g_values, g_via_decomposition, g_via_phi
from .zeckendorf import RankClass, classify, low

_SPOT_CAP = 200_000  # invariant spot checks stay at or below this
_PARALLEL_MIN = 100_000  # below this, starting workers costs more than it saves


class Route(NamedTuple):
    """One route: func is "g" or "gbar", key its `--algorithms` name, name
    the suite name `check` prints; values(top) yields the route's values at
    0..top."""

    func: str
    key: str
    name: str
    values: Callable[[int], Iterable[int]]


def _scalar(fn: Callable[[int], int]) -> Callable[[int], Iterable[int]]:
    return lambda top: map(fn, range(top + 1))


def _delta_table(which: str) -> Callable[[int], Iterable[int]]:
    return lambda top: MemoTable(which, rule="delta").prefix(top + 1)


ROUTES = (
    Route("g", "decomposition", "g: defining = decomposition",
          _scalar(g_via_decomposition)),
    Route("g", "delta", "g: defining = delta", _delta_table("g")),
    Route("g", "phi", "g: defining = phi floor", _scalar(g_via_phi)),
    Route("gbar", "flip", "gbar: defining = flip conjugation",
          _scalar(gbar_via_flip)),
    Route("gbar", "delta", "gbar: defining = delta", _delta_table("gbar")),
    Route("gbar", "correction", "gbar: defining = g + three-odd correction",
          _scalar(gbar_via_g_correction)),
    Route("gbar", "complement", "gbar: defining = complement ranks",
          _scalar(gbar_via_complement)),
)


def compare(route: Route, expect: list[int], max_n: int) -> tuple[bool, str]:
    """Sweep route over 0..max_n against expect in one pass.

    Returns (ok, detail): detail is the checked range "n=0..N", the first
    disagreement "first mismatch at n=k: route value != expected", or the
    count of values when the route yields fewer or more than max_n + 1.
    """
    values = iter(route.values(max_n))
    n = -1
    for n, got in zip(range(max_n + 1), values):
        if got != expect[n]:
            return False, f"first mismatch at n={n}: {got} != {expect[n]}"
    if n < max_n:
        return False, f"route yielded {n + 1} values, expected {max_n + 1}"
    for _ in values:  # one value past max_n is one too many
        return False, f"route yielded more than {max_n + 1} values"
    return True, f"n=0..{max_n}"


def _cpus() -> int:
    """CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _check_task(task: int, max_n: int) -> list[tuple[str, bool, str, float]]:
    """(name, ok, detail, seconds) of ROUTES[task], or of each invariant suite
    when task is len(ROUTES), timed where it runs.  A task reads the shared
    g and gbar tables and nothing another task computed."""
    started = time.perf_counter()
    if task < len(ROUTES):
        route = ROUTES[task]
        expect = (g_values if route.func == "g" else gbar_values)(max_n + 1)
        suites = [(route.name, *compare(route, expect, max_n))]
    else:
        suites = _invariant_suites(max_n)  # a generator: each suite runs on next()
    timed = []
    for suite in suites:
        timed.append((*suite, time.perf_counter() - started))
        started = time.perf_counter()
    return timed


def check(max_n: int, keys: set[str]) -> tuple[float, list[tuple[str, bool, str, float]]]:
    """Fill the shared g and gbar tables to max_n, then run the suite of
    each route whose key is in keys and the invariant suites.  Returns
    (fill seconds, [(name, ok, detail, seconds), ...]) in registry order.
    From _PARALLEL_MIN up, forked workers inherit ROUTES and the filled
    tables and run one task each; below it, or with one CPU or no fork,
    the tasks run here in turn."""
    started = time.perf_counter()
    g(max_n)
    gbar(max_n)
    filled = time.perf_counter() - started
    tasks = [i for i, route in enumerate(ROUTES) if route.key in keys]
    tasks.append(len(ROUTES))
    workers = min(len(tasks), _cpus())
    if max_n >= _PARALLEL_MIN and workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor, as_completed
            from concurrent.futures.process import BrokenProcessPool
            sys.stdout.flush()  # a worker flushes what it inherits on exit
            others = set(multiprocessing.active_children())
            pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"))
            futures = [pool.submit(_check_task, task, max_n) for task in tasks]
            try:
                for future in as_completed(futures):
                    future.result()  # the first error raises here
            except BaseException as exc:
                # stop the pool's workers: shutdown would wait for the
                # suites they are still running
                for child in set(multiprocessing.active_children()) - others:
                    child.terminate()
                pool.shutdown(cancel_futures=True)
                if isinstance(exc, BrokenProcessPool):
                    raise HofgError(f"a check worker died: {exc}") from None
                raise
            pool.shutdown()
            return filled, [suite for future in futures for suite in future.result()]
    return filled, [suite for task in tasks for suite in _check_task(task, max_n)]


def _span(lo: int, hi: int) -> str:
    return f"n={lo}..{hi}" if lo <= hi else f"no n in {lo}..{hi}"


def _invariant_suites(max_n: int):
    """Yield (name, ok, detail) for the five invariant spot checks."""
    cap = min(max_n, _SPOT_CAP)
    gg = g_values(cap + g(cap) + 2)
    ok = all(gg[n + gg[n]] == n and gg[n + gg[n] + 1] == n + 1
             for n in range(cap + 1))
    yield ("invariant: largest antecedent", ok, _span(0, cap))

    ok = all(gg[n] + gg[gg[n + 1] - 1] == n for n in range(cap + 1))
    yield ("invariant: g alternative equation", ok, _span(0, cap))

    bb = gbar_values(cap + 2)
    ok = all(bb[bb[n]] + bb[n - 1] == n for n in range(4, cap + 1))
    yield ("invariant: gbar alternative equation", ok, _span(4, cap))

    # gbar - g is 1 exactly on the three-odd numbers: 7, then steps of 5 or 8
    odd3 = [classify(n) is RankClass.THREE_ODD for n in range(1, cap + 1)]
    marks = [n for n, odd in enumerate(odd3, 1) if odd]
    ok = (all(bb[n] - gg[n] == odd for n, odd in enumerate(odd3, 1))
          and all(b - a in (5, 8) for a, b in zip(marks, marks[1:]))
          and marks[:1] == ([7] if cap >= 7 else []))
    yield ("invariant: comparison and three-odd spacing", ok, _span(1, cap))

    # low(n) = 2 makes low(n+1) odd, 3 makes it even and above 2, and
    # anything higher makes it 2
    lows = [low(n) for n in range(1, cap + 2)]
    ok = all(nxt % 2 == 1 if lo == 2 else nxt % 2 == 0 and nxt != 2 if lo == 3
             else nxt == 2 for lo, nxt in zip(lows, lows[1:]))
    yield ("invariant: successor rank transitions", ok, _span(1, cap))
