"""The route registry and the check engine behind `hofg check`.

ROUTES lists every independent route to g and gbar once; check() compares
each selected route with the defining-equation table of its function and
runs five invariant spot checks, so a route added here is checked.  The
two `word` routes sum the step bits g(n+1) - g(n), which form the
Fibonacci word, and its mirror for gbar: they build byte strings and no
table.
"""

from __future__ import annotations

import os
import sys
import time
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple

from .errors import HofgError
from .flip_gbar import (_GBAR, gbar, gbar_values, gbar_via_complement,
                        gbar_via_flip, gbar_via_g_correction)
from .g_func import _G, g, g_values, g_via_decomposition, g_via_phi
from .zeckendorf import _THREE_ODD, classify, low

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


def _word(mirror: bool) -> Callable[[int], Iterable[int]]:
    """Running sums of a Fibonacci word from s0 = 1, s1 = 10.  The g word
    grows by s(k+1) = s(k) + s(k-1).  The mirror grows by s(k-1) + s(k), and
    its odd-k words are prefixes of gbar's step bits, its even-k words not
    (an identity the check itself confirms)."""
    def values(top: int) -> Iterable[int]:
        prev, word, odd = b"\x01", b"\x01\x00", True
        while len(word) < top or (mirror and not odd):
            prev, word, odd = word, (prev + word if mirror else word + prev), not odd
        return accumulate(word[:top], initial=0)
    return values


ROUTES = (
    Route("g", "decomposition", "g: defining = decomposition",
          _scalar(g_via_decomposition)),
    Route("g", "word", "g: defining = word", _word(mirror=False)),
    Route("g", "phi", "g: defining = phi floor", _scalar(g_via_phi)),
    Route("gbar", "flip", "gbar: defining = flip conjugation",
          _scalar(gbar_via_flip)),
    Route("gbar", "word", "gbar: defining = word", _word(mirror=True)),
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
    when task is len(ROUTES), timed where it runs.  A route task reads the
    shared g or gbar table in place and nothing another task computed."""
    started = time.perf_counter()
    if task < len(ROUTES):
        route = ROUTES[task]
        table = _G if route.func == "g" else _GBAR
        table.ensure(max_n)
        suites = [(route.name, *compare(route, table._values, max_n))]
    else:
        suites = _invariant_suites(max_n)  # a generator: each suite runs on next()
    timed = []
    for suite in suites:
        timed.append((*suite, time.perf_counter() - started))
        started = time.perf_counter()
    return timed


def _send(writer, task: int, max_n: int) -> None:
    """A forked child's body: send _check_task's suites, or what it raised."""
    try:
        writer.send(_check_task(task, max_n))
    except Exception as exc:  # the parent raises it
        writer.send(exc)


def check(max_n: int, keys: set[str]) -> tuple[float, list[tuple[str, bool, str, float]]]:
    """Fill the shared g and gbar tables to max_n, then run the suite of
    each route whose key is in keys and the invariant suites.  Returns
    (fill seconds, [(name, ok, detail, seconds), ...]) in registry order.
    From _PARALLEL_MIN up, each task runs in a fresh forked child, at most
    one per CPU at a time, that reads the filled tables in place; below it,
    or with one CPU or no fork, the tasks run here in turn."""
    started = time.perf_counter()
    g(max_n)
    gbar(max_n)
    filled = time.perf_counter() - started
    tasks = [i for i, route in enumerate(ROUTES) if route.key in keys]
    tasks.append(len(ROUTES))
    workers = min(len(tasks), _cpus())
    if max_n >= _PARALLEL_MIN and workers > 1:
        import multiprocessing.connection
        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")
            sys.stdout.flush()  # a child flushes what it inherits on exit
            queue, running, done = list(tasks), {}, {}  # running: reader: (task, child)
            try:
                while queue or running:
                    while queue and len(running) < workers:
                        reader, writer = fork.Pipe(duplex=False)
                        child = fork.Process(target=_send, args=(writer, queue[0], max_n))
                        child.start()
                        writer.close()  # so a child that dies leaves EOF here
                        running[reader] = queue.pop(0), child
                    for reader in multiprocessing.connection.wait(list(running)):
                        task, child = running[reader]
                        try:
                            done[task] = reader.recv()
                        except EOFError:  # the child exited before it sent
                            raise HofgError("a check worker died: it sent no suites")
                        if isinstance(done[task], Exception):
                            raise done[task]
                        del running[reader]
                        reader.close()
                        child.join()
            finally:  # stop and reap the children still running, and only those
                for reader, (_, child) in running.items():
                    child.terminate()
                    child.join()
                    reader.close()
            return filled, [suite for task in tasks for suite in done[task]]
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
    odd3 = [classify(n) is _THREE_ODD for n in range(1, cap + 1)]
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
