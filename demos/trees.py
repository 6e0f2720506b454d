#!/usr/bin/env python3
"""Tree slices: level geometry and arity census.

Levels of both trees occupy the same label blocks; what differs is which
side of a binary node carries the binary child.  The arity census shows
the self-similar proportions (unary and binary counts per level are
consecutive Fibonacci numbers).  For DOT output, run
`hofg tree g --depth 4`.
"""

import argparse

from hofg import Arity, build_tree

FUNC = "g"  # "g" or "gbar"
DEPTH = 8


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()

    t = build_tree(FUNC, DEPTH)
    print(f"{FUNC} tree to depth {DEPTH}: {t.label_count()} nodes")
    print(f"{'level':>5}  {'labels':<16} {'size':>5} {'unary':>6} {'binary':>6}")
    for k in range(DEPTH + 1):
        lv = t.level(k)
        unary = sum(1 for n in lv if t.arity[n] is Arity.UNARY)
        span = f"{lv.start}..{lv.stop - 1}"
        print(f"{k:>5}  {span:<16} {len(lv):>5} {unary:>6} {len(lv) - unary:>6}")


if __name__ == "__main__":
    main()
