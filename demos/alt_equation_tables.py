#!/usr/bin/env python3
"""How much of gbar does its alternative equation pin down?

gbar satisfies f(f(n)) + f(n-1) = n for n > 3 (with f(0..3) = 0,1,1,2).
This script enumerates, by depth-first search, ALL tables f over [0, N]
that satisfy the same equation with the same seeds and 0 <= f(n) <= n.

The equation alone admits thousands of tables.  Requiring f to be
nondecreasing collapses them to gbar, up to one caveat this enumeration
makes visible: the final entry can stay ambiguous, because the equation
instance that would settle it (at n = N+1) lies outside the window.

For each n > 3 the equation fixes the target t = n - f(n-1), and any x
with f(x) = t is a legal choice for f(n); branching happens whenever t
has several preimages.  Self-reference (x = n) would need f(n-1) = 0,
which cannot happen past the seeds, so candidates stay below n.
"""

import argparse

from hofg import gbar_values

N = 28  # last index of the enumerated tables
SHOW = 2  # how many non-monotone tables to print


def solutions(limit):
    """Yield every table [f(0), ..., f(limit)] satisfying the equation."""
    stack = [[0, 1, 1, 2]]
    while stack:
        f = stack.pop()
        n = len(f)
        if n > limit:
            yield f
            continue
        t = n - f[n - 1]
        for x in range(n):
            if f[x] == t:
                stack.append(f + [x])


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()

    total = 0
    monotone = []
    shown = 0
    for f in solutions(N):
        total += 1
        if all(a <= b for a, b in zip(f, f[1:])):
            monotone.append(f)
        elif shown < SHOW:
            shown += 1
            drop = next(i for i in range(1, len(f)) if f[i] < f[i - 1])
            print(f"non-monotone table (first drop at n={drop}):")
            print(f"  {f}")

    expected = gbar_values(N + 1)
    interiors = {tuple(f[:-1]) for f in monotone}
    print()
    print(f"tables over [0, {N}] satisfying the equation: {total}")
    print(f"nondecreasing among them: {len(monotone)}")
    print(f"gbar is one of them: {expected in monotone}")
    print(f"all of them equal gbar below the window edge: "
          f"{interiors == {tuple(expected[:-1])}}")


if __name__ == "__main__":
    main()
