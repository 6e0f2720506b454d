#!/usr/bin/env python3
"""Walk the two staircases side by side.

Prints n, g(n), gbar(n), the step bits, and a marker on the positions
where the two functions disagree (exactly the three-odd numbers, spaced
5 or 8 apart).
"""

import argparse

from hofg import RankClass, classify, g_values, gbar_values, next_three_odd

TOP = 40  # last index to print


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()

    gv = g_values(TOP + 2)
    bv = gbar_values(TOP + 2)

    print(f"{'n':>4} {'g':>4} {'gbar':>4}  {'dg':>2} {'dgb':>3}  note")
    for n in range(TOP + 1):
        dg = gv[n + 1] - gv[n]
        db = bv[n + 1] - bv[n]
        note = ""
        if n >= 1 and classify(n) is RankClass.THREE_ODD:
            note = "three-odd: gbar runs one ahead"
        print(f"{n:>4} {gv[n]:>4} {bv[n]:>4}  {dg:>2} {db:>3}  {note}")

    print()
    marks = []
    m = 0
    while len(marks) < 8:
        m = next_three_odd(m)
        marks.append(m)
    gaps = [b - a for a, b in zip(marks, marks[1:])]
    print(f"first three-odd positions: {marks}")
    print(f"their gaps:                {gaps}")


if __name__ == "__main__":
    main()
