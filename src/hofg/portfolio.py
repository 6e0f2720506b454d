"""The route and law registries and the check engine behind `hofg check`.

ROUTES lists every independent route to g and gbar once, LAWS the six laws
of the paper; check() compares each selected route with its function's
defining-equation table and spot-checks each law, so an entry added here
is checked.  The two `word` routes sum the step bits g(n+1) - g(n),
which form the Fibonacci word, and its mirror for gbar: they build byte
strings and no table.
"""

from __future__ import annotations

import os
import sys
import time
from itertools import accumulate
from operator import add
from typing import Callable, Iterable, NamedTuple

from .errors import HofgError
from .fibonacci import _FIB, fib_inv
from .flip_gbar import _GBAR, flip, gbar, gbar_values, gbar_via_complement
from .g_func import _G, g, g_values, g_via_decomposition, g_via_phi
from .zeckendorf import _LOW_LIMIT, _THREE_ODD, _window, classify, decompose, low, sum_of

_SPOT_CAP = 200_000  # invariant spot checks stay at or below this
_PARALLEL_MIN = 100_000  # below this, starting workers costs more than it saves


class Route(NamedTuple):
    """One route: func is "g" or "gbar", key its `--algorithms` name, name
    the suite name `check` prints; values(lo, hi) yields the route's values
    at lo..hi."""

    func: str
    key: str
    name: str
    values: Callable[[int, int], Iterable[int]]


# Rank routes add over windows, the n = H + r sharing ranks >= 18 (_window),
# and flip is affine on each depth block: a rank form calls its scalar function
# per window and reads one of r < F(18); flip and correction read the g table.

def _windows(lo: int, hi: int, name: str):
    """Yield (H, a, b) per window, ascending: its n in [lo, hi] are H + [a, b)."""
    n = lo
    while n <= hi:
        H, top, _ = _window(n, name)
        yield H, n - H, min(top, hi + 1) - H
        n = top


def _blocks(lo: int, hi: int):
    """Yield (first, last, s, e) per depth block of n >= 2: [s, e] = [lo, hi] in it."""
    n = max(lo, 2)
    while n <= hi:
        k = fib_inv(n - 1)
        yield _FIB[k] + 1, _FIB[k + 1], n, min(hi, _FIB[k + 1])
        n = _FIB[k + 1] + 1


def _decomposition(lo: int, hi: int) -> Iterable[int]:
    # g(H + r) = g(H) + g(r)
    g_via_decomposition(hi)  # past its top edge, the scalar's error before any value
    g_low = list(map(g_via_decomposition, range(min(hi + 1, _LOW_LIMIT))))
    for H, a, b in _windows(lo, hi, "g_via_decomposition"):
        yield from map(g_via_decomposition(H).__add__, g_low[a:b])


def _complement(lo: int, hi: int) -> Iterable[int]:
    # on a block, m = last - n is what gets decomposed: for m = H + r,
    # gbar(n) = gbar(last - H) - sums[r], the shifted rank sum of r
    gbar_via_complement(hi)  # past its top edge, the scalar's error, not an IndexError
    yield from map(gbar_via_complement, range(lo, min(hi, 1) + 1))
    sums = [_FIB[19] - gbar_via_complement(_FIB[20] - r) for r in range(min(hi + 1, _LOW_LIMIT))]
    for _, last, s, e in _blocks(lo, hi):
        for H, a, b in reversed(list(_windows(last - e, last - s, "gbar_via_complement"))):
            yield from map(gbar_via_complement(last - H).__sub__, reversed(sums[a:b]))


def _flip(lo: int, hi: int) -> Iterable[int]:
    # flip(n) = c_in - n on n's block, and c_out - m on the block below,
    # where g(flip(n)) lies: so gbar(n) = c_out - G[c_in - n]
    yield from range(lo, min(hi, 1) + 1)  # gbar fixes 0 and 1
    for first, last, s, e in _blocks(lo, hi):
        c_in = first + flip(first)
        _G.ensure(last)
        G = _G._values
        c_out = flip(G[c_in - first]) + G[c_in - first]  # gbar(first) + G[c_in - first]
        yield from map(c_out.__sub__, map(G.__getitem__, range(c_in - s, c_in - e - 1, -1)))


def _correction(lo: int, hi: int) -> Iterable[int]:
    # gbar(H + r) = G[H + r] + [r is three-odd] from r = 3; below, the class
    # of H + r reads H's ranks, so those n classify n itself
    _G.ensure(hi)
    G = _G._values
    bump = [r > 2 and classify(r) is _THREE_ODD for r in range(min(hi + 1, _LOW_LIMIT))]
    for H, a, b in _windows(lo, hi, "gbar_via_g_correction"):
        yield from (G[n] + (n > 0 and classify(n) is _THREE_ODD)
                    for n in range(H + a, H + min(b, 3)))
        yield from map(add, G[H + max(a, 3):H + b], bump[max(a, 3):b])


def _word(mirror: bool) -> Callable[[int, int], Iterable[int]]:
    """Running sums of a Fibonacci word from s0 = 1, s1 = 10.  The g word
    grows by s(k+1) = s(k) + s(k-1).  The mirror grows by s(k-1) + s(k), and
    its odd-k words are prefixes of gbar's step bits, its even-k words not
    (an identity the check itself confirms)."""
    def values(lo: int, hi: int) -> Iterable[int]:
        prev, word, odd = b"\x01", b"\x01\x00", True
        while len(word) < hi or (mirror and not odd):
            prev, word, odd = word, (prev + word if mirror else word + prev), not odd
        return accumulate(word[lo:hi], initial=sum(word[:lo])) if lo <= hi else ()
    return values


ROUTES = (
    Route("g", "decomposition", "g: defining = decomposition", _decomposition),
    Route("g", "word", "g: defining = word", _word(mirror=False)),
    Route("g", "phi", "g: defining = phi floor",
          lambda lo, hi: map(g_via_phi, range(lo, hi + 1))),
    Route("gbar", "flip", "gbar: defining = flip conjugation", _flip),
    Route("gbar", "word", "gbar: defining = word", _word(mirror=True)),
    Route("gbar", "correction", "gbar: defining = g + three-odd correction",
          _correction),
    Route("gbar", "complement", "gbar: defining = complement ranks", _complement),
)

TABLE_FREE = {"g": (g_via_decomposition, _decomposition),  # (scalar, window form): eval
              "gbar": (gbar_via_complement, _complement)}  # reads one, seq and verify the other


class Law(NamedTuple):
    """One law of the paper: holds(gg, bb, cap) tests it on lo..cap, where gg
    and bb are g and gbar tables long enough for every read it makes."""

    name: str
    lo: int
    holds: Callable[[list[int], list[int], int], bool]


def _comparison(gg: list[int], bb: list[int], cap: int) -> bool:
    # gbar - g is 1 exactly on the three-odd numbers: 7, then steps of 5 or 8
    odd3 = [classify(n) is _THREE_ODD for n in range(1, cap + 1)]
    marks = [n for n, odd in enumerate(odd3, 1) if odd]
    return (all(bb[n] - gg[n] == odd for n, odd in enumerate(odd3, 1))
            and all(b - a in (5, 8) for a, b in zip(marks, marks[1:]))
            and marks[:1] == ([7] if cap >= 7 else []))


def _successor(gg: list[int], bb: list[int], cap: int) -> bool:
    # low(n) = 2 makes low(n+1) odd, 3 makes it even and above 2, and
    # anything higher makes it 2
    lows = [low(n) for n in range(1, cap + 2)]
    return all(nxt % 2 == 1 if lo == 2 else nxt % 2 == 0 and nxt != 2 if lo == 3
               else nxt == 2 for lo, nxt in zip(lows, lows[1:]))


LAWS = (
    Law("invariant: largest antecedent", 0, lambda gg, bb, cap: all(
        gg[n + gg[n]] == n and gg[n + gg[n] + 1] == n + 1 for n in range(cap + 1))),
    Law("invariant: g alternative equation", 0, lambda gg, bb, cap: all(
        gg[n] + gg[gg[n + 1] - 1] == n for n in range(cap + 1))),
    Law("invariant: gbar alternative equation", 4, lambda gg, bb, cap: all(
        bb[bb[n]] + bb[n - 1] == n for n in range(4, cap + 1))),
    Law("invariant: comparison and three-odd spacing", 1, _comparison),
    Law("invariant: successor rank transitions", 1, _successor),
    # Decomposition rejects a gap below 2, so a walk's relaxed form raises
    Law("invariant: Zeckendorf round trip", 0, lambda gg, bb, cap: all(
        sum_of(decompose(n)) == n for n in range(cap + 1))),
)


def compare(route: Route, expect: list[int], max_n: int) -> tuple[bool, str]:
    """Sweep route over 0..max_n against expect in one pass.

    Returns (ok, detail): detail is the checked range "n=0..N", the first
    disagreement "first mismatch at n=k: route value != expected", or the
    count of values when the route yields fewer or more than max_n + 1.
    """
    values = iter(route.values(0, max_n))
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


def _run_suite(suite: Route | Law, max_n: int) -> tuple[str, bool, str, float]:
    """(name, ok, detail, seconds) of one suite, timed where it runs.  A route
    is compared with the shared g or gbar table in place and reads nothing
    another suite computed; a law is tested on lo..min(max_n, _SPOT_CAP)."""
    started = time.perf_counter()
    if isinstance(suite, Route):
        table = _G if suite.func == "g" else _GBAR
        table.ensure(max_n)
        ok, detail = compare(suite, table._values, max_n)
    else:
        cap = min(max_n, _SPOT_CAP)
        ok = suite.holds(g_values(cap + g(cap) + 2), gbar_values(cap + 2), cap)
        detail = f"n={suite.lo}..{cap}" if suite.lo <= cap else f"no n in {suite.lo}..{cap}"
    return suite.name, ok, detail, time.perf_counter() - started


def _send(writer, suite: Route | Law, max_n: int) -> None:
    """A forked child's body: send _run_suite's verdict, or what it raised."""
    try:
        writer.send(_run_suite(suite, max_n))
    except Exception as exc:  # the parent raises it
        writer.send(exc)


def check(max_n: int, keys: set[str]) -> tuple[float, list[tuple[str, bool, str, float]]]:
    """Fill the shared g and gbar tables to max_n, then run the suite of
    each route whose key is in keys and of each law.  Returns
    (fill seconds, [(name, ok, detail, seconds), ...]) in registry order.
    From _PARALLEL_MIN up, each suite runs in a fresh forked child, at most
    one per CPU at a time, that reads the filled tables in place; below it,
    or with one CPU or no fork, the suites run here in turn."""
    started = time.perf_counter()
    g(max_n)
    gbar(max_n)
    filled = time.perf_counter() - started
    suites = [route for route in ROUTES if route.key in keys] + list(LAWS)
    workers = min(len(suites), _cpus())
    if max_n >= _PARALLEL_MIN and workers > 1:
        import multiprocessing.connection
        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")
            sys.stdout.flush()  # a child flushes what it inherits on exit
            # suites start last-first, so the round trip, the longest law,
            # starts first; running maps reader: (index, child)
            queue, running, done = list(range(len(suites))), {}, {}
            try:
                while queue or running:
                    while queue and len(running) < workers:
                        reader, writer = fork.Pipe(duplex=False)
                        i = queue.pop()
                        child = fork.Process(target=_send, args=(writer, suites[i], max_n))
                        child.start()
                        writer.close()  # so a child that dies leaves EOF here
                        running[reader] = i, child
                    for reader in multiprocessing.connection.wait(list(running)):
                        i, child = running[reader]
                        try:
                            done[i] = reader.recv()
                        except EOFError:  # the child exited before it sent
                            raise HofgError("a check worker died: it sent no suites")
                        if isinstance(done[i], Exception):
                            raise done[i]
                        del running[reader]
                        reader.close()
                        child.join()
            finally:  # stop and reap the children still running, and only those
                for reader, (_, child) in running.items():
                    child.terminate()
                    child.join()
                    reader.close()
            return filled, [done[i] for i in range(len(suites))]
    return filled, [_run_suite(suite, max_n) for suite in suites]
