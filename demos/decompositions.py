#!/usr/bin/env python3
"""Canonical Fibonacci-sum forms and their rank classes.

Shows each n with its canonical form, its lowest rank and its class.
For a relax/normalize round trip, run `hofg decomp 24 --relaxed-demo`.
"""

import argparse

from hofg import classify, decompose, fib_sum_text, low

TOP = 25  # last value in the table


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()

    print(f"{'n':>4}  {'canonical':<22} {'low':>3}  class")
    for n in range(1, TOP + 1):
        form = fib_sum_text(decompose(n))
        print(f"{n:>4}  {form:<22} {low(n):>3}  {classify(n).value}")


if __name__ == "__main__":
    main()
