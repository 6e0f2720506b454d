"""Reference values and output checks that do not use the package under test.

Every benchmark answer is compared against the functions here.  They are
written from the definitions alone - an own Fibonacci table, a greedy
Zeckendorf split, the exact golden-ratio floor and the three-odd bump - so a
route that drifts cannot agree with a copy of itself.  The checks return
True for a correct answer.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from math import isqrt

FIB = [0, 1]
while len(FIB) < 96:
    FIB.append(FIB[-1] + FIB[-2])

# Largest value every timed table-free route accepts at the seed: flip and
# gbar_via_complement raise RankOverflow from F(90) + 1 on.
DRAW_MAX = FIB[90]


def ranks(n: int) -> list[int]:
    """Canonical Zeckendorf ranks of n >= 0, ascending, all >= 2."""
    out = []
    while n:
        k = bisect_right(FIB, n) - 1
        out.append(k)
        n -= FIB[k]
    out.reverse()
    return out


def g(n: int) -> int:
    """floor((n + 1) / phi) in exact integer arithmetic."""
    m = n + 1
    return (m + isqrt(5 * m * m)) // 2 - m


def three_odd(n: int) -> bool:
    r = ranks(n)
    return len(r) > 1 and r[0] == 3 and r[1] % 2 == 1


def gbar(n: int) -> int:
    """g plus the three-odd bump."""
    return g(n) + three_odd(n)


def classify(n: int) -> str:
    """Rank class of n >= 1, spelled as the package's RankClass values."""
    r = ranks(n)
    if r[0] == 2:
        return "Two"
    if r[0] == 3:
        if len(r) == 1:
            return "ThreeBare"
        return "ThreeOdd" if r[1] % 2 else "ThreeEven"
    return "HighOdd" if r[0] % 2 else "HighEven"


def depth(n: int) -> int:
    """k with F(k+1) < n <= F(k+2) for n >= 2; 0 for n <= 1."""
    return 0 if n <= 1 else bisect_left(FIB, n) - 2


def flip(n: int) -> int:
    return n if n <= 1 else 1 + FIB[depth(n) + 3] - n


# -- in-process answers -----------------------------------------------------

# The table-free rank routes, in the order rank_point_ok takes their answers.
RANK_ROUTES = ("g_via_decomposition", "low", "classify", "decompose", "depth",
               "flip", "gbar_via_complement")


def rank_point_ok(n: int, out: tuple, flip_twice: int) -> bool:
    """Check one rank-random point.

    out holds the answers of RANK_ROUTES at n, in order; flip_twice is flip
    applied to the flip answer.
    """
    g_n, low_n, cls, dec, dep, fl, gb = out
    r = ranks(n)
    dec_ranks = list(dec.ranks)
    return (g_n == g(n)
            and low_n == r[0]
            and cls.value == classify(n)
            and dec_ranks == r
            and sum(FIB[k] for k in dec_ranks) == n
            and dep == depth(n)
            and fl == flip(n)
            and flip_twice == n
            and gb == g(n) + three_odd(n))


# -- command-line answers ---------------------------------------------------

def _ints(line: str) -> list[int]:
    return [int(t) for t in line.strip()[1:-1].split(",") if t]


def _fib_text(r: list[int]) -> str:
    return "+".join(f"F_{k}" for k in r) if r else "0"


def _check_eval(func: str, n: int, lines: list[str]) -> bool:
    expect = {"g": g, "gbar": gbar, "low": lambda m: ranks(m)[0],
              "flip": flip, "depth": depth}[func](n)
    return lines == [str(expect)]


def _check_seq(argv: list[str], lines: list[str]) -> bool:
    func = argv[1]
    start, end = int(argv[argv.index("--from") + 1]), int(argv[argv.index("--to") + 1])
    fmt = argv[argv.index("--format") + 1]
    ref = gbar if func.endswith("gbar") else g
    if len(lines) != end - start + 1:
        return False
    for n, line in zip(range(start, end + 1), lines):
        v = ref(n + 1) - ref(n) if func.startswith("delta-") else ref(n)
        want = {"plain": f"{v}", "bfile": f"{n} {v}", "csv": f"{n},{v}"}[fmt]
        if line != want:
            return False
    return True


def _check_decomp(n: int, lines: list[str]) -> bool:
    r = ranks(n)
    if len(lines) != 5 or lines[0] != _fib_text(r) or _ints(lines[1]) != r:
        return False
    relaxed = _ints(lines[3].removeprefix("relaxed ranks: "))
    return (lines[2] == "relaxed: " + _fib_text(relaxed)
            and all(a < b for a, b in zip(relaxed, relaxed[1:]))
            and sum(FIB[k] for k in relaxed) == n
            and lines[4] == "normalized: " + _fib_text(r))


def _check_tree(func: str, max_depth: int, lines: list[str]) -> bool:
    ref = g if func == "g" else gbar
    top = FIB[max_depth + 2]
    if lines[0] != f"digraph {func} {{" or lines[-1] != "}":
        return False
    edges = lines[1:-1]
    if len(edges) != top - 1:
        return False
    seen = set()
    for line in edges:
        p, arrow, c = line.strip().rstrip(";").split()
        p, c = int(p), int(c)
        if arrow != "->" or ref(c) != p or c in seen or not 2 <= c <= top:
            return False
        seen.add(c)
    return True


def _check_verify(lines: list[str]) -> bool:
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        return False
    return (isinstance(summary, dict) and summary.get("ok") is True
            and summary.get("mismatches") == 0 and summary.get("compared", 0) > 0
            and "result: PASS" in lines)


def check_summary_ok(lines: list[str]) -> bool:
    """An all-pass `hofg check`: no FAIL line, SUMMARY a/b with a == b > 0."""
    if not lines or any(line.startswith("FAIL") for line in lines):
        return False
    last = lines[-1].split()
    if len(last) < 2 or last[0] != "SUMMARY:":
        return False
    passed, _, total = last[1].partition("/")
    return passed.isdigit() and passed == total and int(total) > 0


def command_ok(argv: list[str], returncode: int, stdout: str) -> bool:
    """Whether one `hofg` invocation exited 0 with the reference output."""
    if returncode != 0:
        return False
    lines = stdout.splitlines()
    try:
        cmd = argv[0]
        if cmd == "eval":
            return _check_eval(argv[1], int(argv[2]), lines)
        if cmd == "seq":
            return _check_seq(argv, lines)
        if cmd == "decomp":
            return _check_decomp(int(argv[1]), lines)
        if cmd == "tree":
            return _check_tree(argv[1], int(argv[argv.index("--depth") + 1]), lines)
        if cmd == "verify":
            return _check_verify(lines)
        if cmd == "check":
            return check_summary_ok(lines)
    except (IndexError, ValueError):
        return False
    raise ValueError(f"no reference for command {cmd!r}")
