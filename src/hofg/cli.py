"""Command line front end.

Subcommands: eval (one value), seq (a range), decomp (Fibonacci-sum form),
tree (DOT export), check (cross-validation of the whole algorithm
portfolio), verify (b-file conformance).  Exit codes: 0 success, 1
computation or conformance failure, 2 usage; a HofgError prints as one
`error:` line in the library's own text.  The check engine lives in
portfolio.py; check here validates --algorithms and prints one line per
suite, with the seconds it took where it ran, and a summary.
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import pairwise

from .errors import HofgError
from .flip_gbar import depth, flip
from .oeis import parse_bfile, verify
from .portfolio import ROUTES, TABLE_FREE, check
from .tree import build_tree, export_dot
from .zeckendorf import decompose, fib_sum_text, low, normalize, relax

_CHECK_ALGOS = tuple(dict.fromkeys(route.key for route in ROUTES))
_SEQ_CHUNK = 1 << 16  # seq writes this many lines at a time, not one joined string

_EVAL = {"g": TABLE_FREE["g"][0], "gbar": TABLE_FREE["gbar"][0], "flip": flip,
         "depth": depth, "low": low}
_SEQ = {"g": ("g", 0), "gbar": ("gbar", 0), "delta-g": ("g", 1), "delta-gbar": ("gbar", 1)}
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


def _cmd_eval(args: argparse.Namespace) -> int:
    print(_EVAL[args.func](args.n))
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    func, delta = _SEQ[args.func]  # a delta value is the step to the next value
    values = TABLE_FREE[func][1](args.start, args.end + delta)  # edge checked before a value
    if delta:
        values = (b - a for a, b in pairwise(values))
    line = _SEQ_FORMATS[args.format]
    for lo in range(args.start, args.end + 1, _SEQ_CHUNK):
        chunk = range(lo, min(lo + _SEQ_CHUNK, args.end + 1))
        sys.stdout.write("\n".join(map(line, chunk, values)) + "\n")
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


def _cmd_check(args: argparse.Namespace) -> int:
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
    filled, results = check(args.max, algos)
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
    records = parse_bfile(text)
    if not records:  # an empty or comment-only file, say a truncated download
        print(f"error: {args.bfile}: no records", file=sys.stderr)
        return 1
    report = verify(records, args.func, args.offset)
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
