"""Rank approximation along the congruence chain of the first congruence
subgroup U_1 of SL2(Z_p)^n.

The level-i quotient U_1/U_i consists of n-tuples of 2x2 matrices over
Z/p^i that are congruent to the identity mod p with determinant 1; its order
is p^(3n(i-1)).  Generator images are reduced into U_1/U_i (`CongruenceOps`)
and a pushed-forward matrix is ranked over the subgroup its support
generates, so the full quotient is never enumerated.  Ranks are exact over Q
(integer matrices, no p-adic precision arithmetic anywhere), normalized so
that the known limit for a nonzero element is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactalg import QQ, ScaledMatrix, StructuralError
from .groupcore import GroupAlgebraMatrix, GroupPresentation
from .modp import is_prime
from .rankfun import FiniteQuotientMap, luck_rank

Mat2 = tuple[int, int, int, int]  # row-major entries mod p^level
CongElement = tuple[Mat2, ...]  # one 2x2 matrix per factor


@dataclass(frozen=True)
class CongruenceOps:
    """Element domain for U_1/U_i: tuples of unimodular 2x2 matrices mod p^i."""

    p: int
    level: int
    n: int

    @property
    def modulus(self) -> int:
        return self.p ** self.level

    @property
    def identity(self) -> CongElement:
        return ((1 % self.modulus, 0, 0, 1 % self.modulus),) * self.n

    def mul(self, x: CongElement, y: CongElement) -> CongElement:
        m = self.modulus
        out = []
        for (a, b, c, d), (e, f, g, h) in zip(x, y):
            out.append(((a * e + b * g) % m, (a * f + b * h) % m,
                        (c * e + d * g) % m, (c * f + d * h) % m))
        return tuple(out)

    def inv(self, x: CongElement) -> CongElement:
        # determinant is 1 mod p^level, so the inverse is the adjugate
        m = self.modulus
        return tuple(((d, (-b) % m, (-c) % m, a)) for a, b, c, d in x)


def reduce_matrix_mod(g: ScaledMatrix, p: int, level: int) -> Mat2:
    """Reduce a 2x2 matrix with rational entries mod p^level.

    Denominators must be coprime to p; the result must be congruent to the
    identity mod p (an image inside the first congruence subgroup) and have
    determinant 1 mod p^level.
    """
    if g.rows != 2 or g.cols != 2:
        raise StructuralError("expected a 2x2 matrix")
    m = p ** level
    vals = []
    for v in g.entries:
        if any(v[1:]):
            raise StructuralError("field element is not rational")
        q = Fraction(v[0], g.den)
        if q.denominator % p == 0:
            raise ValueError(f"entry denominator {q.denominator} is divisible by p = {p}")
        vals.append(q.numerator * pow(q.denominator, -1, m) % m)
    a, b, c, d = vals
    if a % p != 1 or d % p != 1 or b % p != 0 or c % p != 0:
        raise ValueError("matrix image is not congruent to the identity mod p")
    if (a * d - b * c) % m != 1:
        raise ValueError("matrix image does not have determinant 1 mod p^level")
    return (a, b, c, d)


def congruence_quotient_map(presentation: GroupPresentation,
                            images: Sequence[Sequence[ScaledMatrix]],
                            p: int, level: int) -> FiniteQuotientMap:
    """Quotient map onto U_1/U_level from declared generator images in U_1."""
    if not images:
        raise StructuralError("at least one generator image required")
    n = len(images[0])
    ops = CongruenceOps(p, level, n)
    gen_images = []
    for tup in images:
        if len(tup) != n:
            raise StructuralError("inconsistent factor counts across generators")
        gen_images.append(tuple(reduce_matrix_mod(g, p, level) for g in tup))
    order = p ** (3 * n * (level - 1))
    return FiniteQuotientMap.build(presentation, ops, gen_images, order=order,
                                   name=f"U1/U{level} (p={p}, n={n})")


@dataclass(frozen=True)
class HarrisRow:
    level: int
    index: int  # |U_1 : U_level| = p^(3n(level-1))
    value: Fraction
    envelope: Fraction  # index^(-1/(3n)) = p^(1-level), the theoretical error scale
    error: Optional[Fraction]  # |value - target| when a target is declared


def harris_sequence(a: GroupAlgebraMatrix, presentation: GroupPresentation,
                    images: Sequence[Sequence[ScaledMatrix]], p: int,
                    levels: Sequence[int], target: Optional[Fraction] = None) -> list[HarrisRow]:
    """Normalized ranks of `a` over the congruence quotients at the given
    levels, with the theoretical error envelope recorded per level.

    Levels must be strictly increasing.  Generator images must lie in the
    first congruence subgroup (congruent to the identity mod p).  The rank at
    each level is exact; nothing here ever enumerates the full quotient.
    """
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if any(l2 <= l1 for l1, l2 in zip(levels, levels[1:])):
        raise StructuralError("levels must be strictly increasing")
    rows = []
    for level in levels:
        if level < 1:
            raise StructuralError("levels must be >= 1")
        q = congruence_quotient_map(presentation, images, p, level)
        value = luck_rank(a, q)
        envelope = Fraction(1, p ** (level - 1))
        error = abs(value - target) if target is not None else None
        rows.append(HarrisRow(level, q.order, value, envelope, error))
    return rows


def unipotent_element_images(p: int, n: int = 1) -> list[list[ScaledMatrix]]:
    """Generator images for the shipped unipotent test element: one generator
    mapping to I + p*E12 in every factor."""
    g = ScaledMatrix.from_rows(QQ, [[1, p], [0, 1]])
    return [[g for _ in range(n)]]


def diagonal_element_images(p: int, n: int = 1) -> list[list[ScaledMatrix]]:
    """Generator images for the shipped diagonal test element:
    diag(1+p, 1/(1+p)) in every factor."""
    g = ScaledMatrix.from_rows(QQ, [[1 + p, 0], [0, Fraction(1, 1 + p)]])
    return [[g for _ in range(n)]]
