#!/usr/bin/env python3
"""Congruence-quotient rank approximation at p = 3 for the three shipped
element families (unipotent, diagonal, random short-support words).

Usage: python scripts/run_harris_p3.py [MAX_LEVEL] [SEED]
"""

import sys
from fractions import Fraction

from l2approx.exactalg import QQ, ScaledMatrix
from l2approx.cli import random_matrix
from l2approx.foxhomology import boundary_stack
from l2approx.groupcore import GroupPresentation
from l2approx.padicharris import (diagonal_element_images, harris_sequence,
                                  unipotent_element_images)

P = 3


def show(label, rows):
    print(f"\n## {label}")
    print("level  index      value      envelope   error")
    for r in rows:
        err = "" if r.error is None else str(r.error)
        print(f"{r.level:5d}  {r.index:<9d}  {str(r.value):<9s}  {str(r.envelope):<9s}  {err}")


def main() -> int:
    max_level = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    levels = list(range(1, max_level + 1))

    pres = GroupPresentation(("t",), ())
    t_minus_1 = boundary_stack(pres, QQ)
    show("unipotent t - 1",
         harris_sequence(t_minus_1, pres, unipotent_element_images(P), P, levels,
                         target=Fraction(1)))
    show("diagonal t - 1",
         harris_sequence(t_minus_1, pres, diagonal_element_images(P), P, levels,
                         target=Fraction(1)))

    pres2 = GroupPresentation(("u", "l"), ())
    images = [[ScaledMatrix.from_rows(QQ, [[1, P], [0, 1]])],
              [ScaledMatrix.from_rows(QQ, [[1, 0], [P, 1]])]]
    a = random_matrix(pres2.generator_names, QQ, 1, 1, 3, seed)
    nonzero = any(bool(e) for e in a.entries)
    # random short-support elements can hit the full quotient; keep levels shallow
    shallow = [l for l in levels if l <= 3]
    show(f"random short-support element (seed {seed})",
         harris_sequence(a, pres2, images, P, shallow,
                         target=Fraction(1) if nonzero else Fraction(0)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
