"""Command line front end.

Subcommands: eval (one value), seq (a range), decomp (Fibonacci-sum form),
tree (DOT export), check (cross-validation of the whole algorithm
portfolio), verify (b-file conformance).  Exit codes: 0 success, 1
computation or conformance failure, 2 usage.  The environment variable
HOFG_MAX_N, when set, caps the ranges touched by seq and check.  check
--max 100000 and above runs its suites in one forked process per available
CPU (about 10 s instead of 18 s at 10^6 on two CPUs), at the cost of the
table pages each worker copies (summed memory 162 -> about 260 MB at 10^6).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import partial

from .errors import HofgError
from .flip_gbar import depth, flip, gbar, gbar_values
from .g_func import g, g_values
from .oeis import parse_bfile, verify
from .portfolio import ROUTES, compare
from .tree import build_tree, export_dot
from .zeckendorf import RankClass, classify, decompose, fib_sum_text, low, normalize, relax

_CHECK_ALGOS = tuple(dict.fromkeys(route.key for route in ROUTES))
_SPOT_CAP = 200_000  # invariant spot checks stay at or below this
_PARALLEL_MIN = 100_000  # below this, starting workers costs more than it saves


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
    p.add_argument("func", choices=["g", "gbar", "flip", "depth", "low"])
    p.add_argument("n", type=_nonneg)

    p = sub.add_parser("seq", help="print a range of values")
    p.add_argument("func", choices=["g", "gbar", "delta-g", "delta-gbar"])
    p.add_argument("--from", dest="start", type=_nonneg, default=0,
                   help="first index (default 0)")
    p.add_argument("--to", dest="end", type=_nonneg, required=True,
                   help="last index, inclusive")
    p.add_argument("--format", choices=["plain", "bfile", "csv"],
                   default="plain")

    p = sub.add_parser("decomp", help="show the canonical Fibonacci-sum form")
    p.add_argument("n", type=_nonneg)
    p.add_argument("--relaxed-demo", action="store_true",
                   help="also show a relaxed variant and its normalization")

    p = sub.add_parser("tree", help="export a tree slice as DOT")
    p.add_argument("func", choices=["g", "gbar"])
    p.add_argument("--depth", type=_nonneg, required=True)
    p.add_argument("--format", choices=["dot"], default="dot")

    p = sub.add_parser("check", help="cross-validate all algorithms")
    p.add_argument("--max", type=_nonneg, default=1_000_000,
                   help="top of the checked range (default 1000000)")
    p.add_argument("--algorithms", default="all",
                   help="'all' or comma list from: " + ",".join(_CHECK_ALGOS))

    p = sub.add_parser("verify", help="compare a b-file against g or gbar")
    p.add_argument("--bfile", required=True)
    p.add_argument("--func", required=True, choices=["g", "gbar"])
    p.add_argument("--offset", type=int, default=0,
                   help="file index i maps to argument i + offset")

    return parser


def _env_cap() -> int | None:
    raw = os.environ.get("HOFG_MAX_N")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise HofgError(f"HOFG_MAX_N is not an integer: {raw!r}") from None
    if cap < 0:
        raise HofgError(f"HOFG_MAX_N must be >= 0: {cap}")
    return cap


def _capped(value: int, what: str) -> int:
    cap = _env_cap()
    if cap is not None and value > cap:
        print(f"note: {what} capped at {cap} by HOFG_MAX_N", file=sys.stderr)
        return cap
    return value


def _cmd_eval(args: argparse.Namespace) -> int:
    fn = {"g": g, "gbar": gbar, "flip": flip, "depth": depth, "low": low}[args.func]
    print(fn(args.n))
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    end = _capped(args.end, "--to")
    if args.start > end:
        return 0
    base = args.func.removeprefix("delta-")
    is_delta = args.func.startswith("delta-")
    values = (g_values if base == "g" else gbar_values)(end + 2 if is_delta else end + 1)
    lines = []
    for n in range(args.start, end + 1):
        v = values[n + 1] - values[n] if is_delta else values[n]
        if args.format == "plain":
            lines.append(f"{v}")
        elif args.format == "bfile":
            lines.append(f"{n} {v}")
        else:
            lines.append(f"{n},{v}")
    sys.stdout.write("\n".join(lines) + "\n")
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


def _check_task(task: int, max_n: int) -> list[tuple[str, bool, str]]:
    """(name, ok, detail) of ROUTES[task], or of the invariant suites when
    task is len(ROUTES).  A task reads the shared g and gbar tables and
    nothing another task computed."""
    if task < len(ROUTES):
        route = ROUTES[task]
        expect = (g_values if route.func == "g" else gbar_values)(max_n + 1)
        return [(route.name, *compare(route, expect, max_n))]
    return list(_invariant_suites(max_n))


def _check_suites(max_n: int, algos: set[str]) -> list[tuple[str, bool, str]]:
    """(name, ok, detail) of every selected suite, in registry order.

    From _PARALLEL_MIN up, forked workers run the suites, one task each,
    and inherit the filled tables and ROUTES; below it, or with one CPU or
    no fork, the same tasks run here in turn.
    """
    g(max_n)  # fill the shared tables once, before any fork
    gbar(max_n)
    tasks = [i for i, route in enumerate(ROUTES) if route.key in algos]
    tasks.append(len(ROUTES))
    run_task = partial(_check_task, max_n=max_n)
    workers = min(len(tasks), _cpus())
    if max_n >= _PARALLEL_MIN and workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool
            sys.stdout.flush()  # a worker flushes what it inherits on exit
            pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"))
            try:
                chunks = list(pool.map(run_task, tasks))
            except BrokenProcessPool as exc:
                raise HofgError(f"a check worker died: {exc}") from None
            finally:
                pool.shutdown(cancel_futures=True)
            return [suite for chunk in chunks for suite in chunk]
    return [suite for chunk in map(run_task, tasks) for suite in chunk]


def _invariant_suites(max_n: int):
    """Yield (name, ok, detail) for the five invariant spot checks."""
    cap = min(max_n, _SPOT_CAP)
    gg = g_values(cap + g(cap) + 2) if cap else g_values(3)
    ok = all(gg[n + gg[n]] == n and gg[n + gg[n] + 1] == n + 1
             for n in range(cap + 1))
    yield ("invariant: largest antecedent", ok, f"n=0..{cap}")

    ok = all(gg[n] + gg[gg[n + 1] - 1] == n for n in range(cap + 1))
    yield ("invariant: g alternative equation", ok, f"n=0..{cap}")

    bb = gbar_values(cap + 2)
    ok = all(bb[bb[n]] + bb[n - 1] == n for n in range(4, cap + 1))
    yield ("invariant: gbar alternative equation", ok, f"n=4..{cap}")

    ok = True
    prev_odd = None
    first_odd = None
    for n in range(1, cap + 1):
        diff = bb[n] - gg[n]
        is_odd3 = classify(n) is RankClass.THREE_ODD
        if diff not in (0, 1) or (diff == 1) != is_odd3:
            ok = False
            break
        if is_odd3:
            if first_odd is None:
                first_odd = n
            elif n - prev_odd not in (5, 8):
                ok = False
                break
            prev_odd = n
    ok = ok and (cap < 7 or first_odd == 7)
    yield ("invariant: comparison and three-odd spacing", ok, f"n=1..{cap}")

    ok = True
    lo_n = low(1)
    for n in range(1, cap + 1):
        lo_next = low(n + 1)
        if lo_n == 2:
            good = lo_next % 2 == 1
        elif lo_n == 3:
            good = lo_next % 2 == 0 and lo_next != 2
        else:
            good = lo_next == 2
        if not good:
            ok = False
            break
        lo_n = lo_next
    yield ("invariant: successor rank transitions", ok, f"n=1..{cap}")


def _cmd_check(args: argparse.Namespace) -> int:
    max_n = _capped(args.max, "--max")
    if args.algorithms.strip() == "all":
        algos = set(_CHECK_ALGOS)
    else:
        algos = {t.strip() for t in args.algorithms.split(",") if t.strip()}
        unknown = algos - set(_CHECK_ALGOS)
        if unknown:
            print(f"error: unknown algorithm(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
    started = time.perf_counter()
    results = _check_suites(max_n, algos)
    elapsed = time.perf_counter() - started
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name:<45} {detail}")
    passed = sum(1 for _, ok, _ in results if ok)
    print(f"SUMMARY: {passed}/{len(results)} suites passed in {elapsed:.1f} s")
    return 0 if passed == len(results) else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.bfile, encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.bfile}: {exc}", file=sys.stderr)
        return 1
    report = verify(parse_bfile(text), args.func, args.offset)
    sys.stdout.write(report.to_text())
    print(report.summary_json())
    return 0 if report.ok else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "seq": _cmd_seq,
    "decomp": _cmd_decomp,
    "tree": _cmd_tree,
    "check": _cmd_check,
    "verify": _cmd_verify,
}


def run(argv: list[str]) -> int:
    """Parse argv and execute; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except HofgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
