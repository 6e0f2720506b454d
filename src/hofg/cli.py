"""Command line front end.

Subcommands: eval (one value), seq (a range), decomp (Fibonacci-sum form),
tree (DOT export), check (cross-validation of the whole algorithm
portfolio), verify (b-file conformance).  Exit codes: 0 success, 1
computation or conformance failure, 2 usage.  The environment variable
HOFG_MAX_N, when set, caps the ranges touched by seq and check.  check
--max 100000 and above runs its suites in one forked process per available
CPU.  Each check line gives the seconds its suite took where it ran.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .errors import HofgError
from .flip_gbar import depth, flip, gbar, gbar_values, gbar_via_complement
from .g_func import g, g_values, g_via_decomposition
from .oeis import parse_bfile, verify
from .portfolio import ROUTES, compare
from .tree import build_tree, export_dot
from .zeckendorf import RankClass, classify, decompose, fib_sum_text, low, normalize, relax

_CHECK_ALGOS = tuple(dict.fromkeys(route.key for route in ROUTES))
_SPOT_CAP = 200_000  # invariant spot checks stay at or below this
_PARALLEL_MIN = 100_000  # below this, starting workers costs more than it saves
_SEQ_CHUNK = 1 << 16  # seq writes this many lines at a time, not one joined string

_EVAL = {"g": g_via_decomposition, "gbar": gbar_via_complement, "flip": flip,
         "depth": depth, "low": low}
_SEQ = {"g": (g_values, False), "gbar": (gbar_values, False),  # (table, delta?)
        "delta-g": (g_values, True), "delta-gbar": (gbar_values, True)}
_SEQ_FORMATS = {"plain": lambda n, v: f"{v}", "bfile": lambda n, v: f"{n} {v}",
                "csv": lambda n, v: f"{n},{v}"}


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hofg",
        description="Hofstadter's G, its mirror, and Fibonacci-sum machinery.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="print one function value")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("func", choices=_EVAL)
    p.add_argument("n", type=_nonneg)

    p = sub.add_parser("seq", help="print a range of values")
    p.set_defaults(run=_cmd_seq)
    p.add_argument("func", choices=_SEQ)
    p.add_argument("--from", dest="start", type=_nonneg, default=0,
                   help="first index (default 0)")
    p.add_argument("--to", dest="end", type=_nonneg, required=True,
                   help="last index, inclusive")
    p.add_argument("--format", choices=_SEQ_FORMATS, default="plain")

    p = sub.add_parser("decomp", help="show the canonical Fibonacci-sum form")
    p.set_defaults(run=_cmd_decomp)
    p.add_argument("n", type=_nonneg)
    p.add_argument("--relaxed-demo", action="store_true",
                   help="also show a relaxed variant and its normalization")

    p = sub.add_parser("tree", help="export a tree slice as DOT")
    p.set_defaults(run=_cmd_tree)
    p.add_argument("func", choices=["g", "gbar"])
    p.add_argument("--depth", type=_nonneg, required=True)
    p.add_argument("--format", choices=["dot"], default="dot")

    p = sub.add_parser("check", help="cross-validate all algorithms")
    p.set_defaults(run=_cmd_check)
    p.add_argument("--max", type=_nonneg, default=1_000_000,
                   help="top of the checked range (default 1000000)")
    p.add_argument("--algorithms", default="all",
                   help="'all' or comma list from: " + ",".join(_CHECK_ALGOS))

    p = sub.add_parser("verify", help="compare a b-file against g or gbar")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--bfile", required=True)
    p.add_argument("--func", required=True, choices=["g", "gbar"])
    p.add_argument("--offset", type=int, default=0,
                   help="file index i maps to argument i + offset")

    return parser


def _capped(value: int, what: str) -> int:
    raw = os.environ.get("HOFG_MAX_N")
    if raw is None:
        return value
    try:
        cap = int(raw)
    except ValueError:
        raise HofgError(f"HOFG_MAX_N is not an integer: {raw!r}") from None
    if cap < 0:
        raise HofgError(f"HOFG_MAX_N must be >= 0: {cap}")
    if value > cap:
        print(f"note: {what} capped at {cap} by HOFG_MAX_N", file=sys.stderr)
        return cap
    return value


def _cmd_eval(args: argparse.Namespace) -> int:
    print(_EVAL[args.func](args.n))
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    end = _capped(args.end, "--to")
    if args.start > end:
        return 0
    table, delta = _SEQ[args.func]
    values = table(end + 1 + delta)
    line = _SEQ_FORMATS[args.format]
    for lo in range(args.start, end + 1, _SEQ_CHUNK):
        sys.stdout.write("\n".join(
            line(n, values[n + 1] - values[n] if delta else values[n])
            for n in range(lo, min(lo + _SEQ_CHUNK, end + 1))) + "\n")
    return 0


def _cmd_decomp(args: argparse.Namespace) -> int:
    d = decompose(args.n)
    print(fib_sum_text(d))
    print("[" + ",".join(map(str, d.ranks)) + "]")
    if args.relaxed_demo:
        r = relax(d)
        print(f"relaxed: {fib_sum_text(r)}")
        print("relaxed ranks: [" + ",".join(map(str, r.ranks)) + "]")
        print(f"normalized: {fib_sum_text(normalize(r))}")
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    sys.stdout.write(export_dot(build_tree(args.func, args.depth)))
    return 0


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


def _check_suites(max_n: int, algos: set[str]) -> list[tuple[str, bool, str, float]]:
    """(name, ok, detail, seconds) of every selected suite, in registry order.

    From _PARALLEL_MIN up, forked workers run the suites, one task each,
    and inherit ROUTES and the tables the caller filled; below it, or with
    one CPU or no fork, the same tasks run here in turn.
    """
    tasks = [i for i, route in enumerate(ROUTES) if route.key in algos]
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
            return [suite for future in futures for suite in future.result()]
    return [suite for task in tasks for suite in _check_task(task, max_n)]


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


def _cmd_check(args: argparse.Namespace) -> int:
    max_n = _capped(args.max, "--max")
    if args.algorithms.strip() == "all":
        algos = set(_CHECK_ALGOS)
    else:
        algos = {t.strip() for t in args.algorithms.split(",")} - {""}
        unknown = algos - set(_CHECK_ALGOS)
        if unknown:
            print(f"error: unknown algorithm(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
        if not algos:
            print("error: no algorithm selected; choose 'all' or from: "
                  + ",".join(_CHECK_ALGOS), file=sys.stderr)
            return 2
    started = time.perf_counter()
    g(max_n)  # fill the shared tables once, before any worker forks
    gbar(max_n)
    filled = time.perf_counter() - started
    results = _check_suites(max_n, algos)
    elapsed = time.perf_counter() - started
    for name, ok, detail, seconds in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name:<45} {seconds:6.2f} s  {detail}")
    passed = sum(1 for _, ok, _, _ in results if ok)
    print(f"SUMMARY: {passed}/{len(results)} suites passed in {elapsed:.1f} s"
          f" (g and gbar tables filled in {filled:.2f} s)")
    return 0 if passed == len(results) else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.bfile, encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.bfile}: {exc}", file=sys.stderr)
        return 1
    report = verify(parse_bfile(text), args.func, args.offset)
    sys.stdout.write(report.to_text())
    print(report.summary_json())
    return 0 if report.ok else 1


def run(argv: list[str]) -> int:
    """Parse argv and execute; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code) if exc.code else 0
    try:
        return args.run(args)
    except HofgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
