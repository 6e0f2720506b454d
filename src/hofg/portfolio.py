"""The route registry: every independent route to g and gbar, listed once.

`hofg check` compares each route in ROUTES with the defining-equation table
of its function: a route added here is checked, a route dropped is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .flip_gbar import gbar_via_complement, gbar_via_flip, gbar_via_g_correction
from .g_func import MemoTable, g_via_decomposition, g_via_phi


@dataclass(frozen=True)
class Route:
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
