#!/usr/bin/env python3
"""The order-two central example: invariants oscillate with weight parity,
matching the two twisted ranks of g - 1 computed over the finite group.

Usage: python scripts/run_parity_example.py [MAX_LAMBDA]
"""

import sys
from fractions import Fraction

from l2approx.census import builtin_entry
from l2approx.exactalg import QQ
from l2approx.foxhomology import invariants_dim
from l2approx.groupcore import GroupAlgebraMatrix
from l2approx.rankfun import PermutationOps, cyclic_generator, twisted_finite_rank


def main() -> int:
    max_lam = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    entry = builtin_entry("c2-central")
    print("lambda  dim W  invariants  invariants/dim")
    for lam in range(0, max_lam + 1):
        inv = invariants_dim(entry.rep, (lam,))
        print(f"{lam:5d}  {lam + 1:5d}  {inv:10d}  {Fraction(inv, lam + 1)}")

    ops = PermutationOps(2)
    g = cyclic_generator(2)
    elements = [ops.identity, g]
    a = GroupAlgebraMatrix.single(QQ, {g: 1, ops.identity: -1})
    rk_trivial = twisted_finite_rank(a, ops, elements, elements, {ops.identity: 1, g: 1})
    rk_sign = twisted_finite_rank(a, ops, elements, elements, {ops.identity: 1, g: -1})
    print(f"\ntwisted rank of g - 1: trivial character -> {rk_trivial}, "
          f"sign character -> {rk_sign}")
    print("even-weight ratios approach 1 - rk under the trivial character;")
    print("odd-weight ratios approach 1 - rk under the sign character.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
