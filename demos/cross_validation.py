#!/usr/bin/env python3
"""Race every independent route and confirm they agree.

Each route computes the same function by genuinely different means, so
their pairwise agreement over a long range is strong evidence against a
bug hiding in any single one.  The routes come from the registry that
`hofg check` uses; each is compared against the defining-equation table.
This prints per-route timings; the point is not speed but independence.
"""

import argparse
import time

from hofg import MemoTable
from hofg.portfolio import ROUTES, compare

COUNT = {4: "four", 5: "five"}


def timed(label, fn):
    started = time.perf_counter()
    result = fn()
    print(f"  {label:<45} {time.perf_counter() - started:6.2f} s")
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", type=int, default=200_000,
                        help="top of the compared range (default 200000)")
    args = parser.parse_args()
    top = args.max

    for func in ("g", "gbar"):
        print(f"{func} routes over [0, {top}]:")
        expect = timed("defining equation",
                       lambda: MemoTable(func).prefix(top + 1))
        routes = [route for route in ROUTES if route.func == func]
        agree = True
        for route in routes:
            ok, detail = timed(route.name, lambda: compare(route, expect, top))
            if not ok:
                print(f"    {detail}")
            agree = agree and ok
        count = len(routes) + 1
        print(f"  all {COUNT.get(count, count)} agree: {agree}")


if __name__ == "__main__":
    main()
