#!/usr/bin/env python3
"""Figure-eight experiment: twisted homology dimensions along even weights,
normalized degree-1 series, and the fitted convergence rate.

Usage: python scripts/run_figure_eight.py [MAX_LAMBDA]
"""

import sys
import time
from fractions import Fraction

from l2approx.census import builtin_entry
from l2approx.foxhomology import homology_dims
from l2approx.limitlab import betti_estimate, weight_schedule


def main() -> int:
    max_lam = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    entry = builtin_entry("figure-eight")
    t0 = time.monotonic()
    print(f"# {entry.name}: g={entry.presentation.num_generators} "
          f"r={entry.presentation.num_relators}, field degree {entry.field.degree}")
    print("lambda  d    (h0,h1,h2)  h1/d")
    lams = list(range(2, max_lam + 1, 2))
    for lam in lams:
        rpt = homology_dims(entry.presentation, entry.rep, (lam,))
        print(f"{lam:5d}  {rpt.d:3d}  {rpt.dims()}  {Fraction(rpt.h1, rpt.d)}")
    if len(lams) >= 4:
        weights = weight_schedule((1,), lams, rep=entry.rep)
        est = betti_estimate(entry.presentation, entry.rep, weights, 1, target=entry.targets[1])
        print()
        print(est.summary())
    else:
        print("\n(need MAX_LAMBDA >= 8 for the four-point rate fit)")
    print(f"\nelapsed: {time.monotonic() - t0:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
