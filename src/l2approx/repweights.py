"""Irreducible representations of products of SL2: symmetric powers of the
defining 2-dimensional representation, tensored across factors.

Basis convention for the lam-th symmetric power: monomials x^(lam-i) y^i in
increasing i.  A matrix g = [[a,b],[c,d]] acts by substitution
x -> a x + c y, y -> b x + d y, which makes the lam = 1 matrix equal g itself
and the construction multiplicative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .exactalg import (FieldMismatchError, NumberField, ScaledMatrix, StructuralError,
                       scaled_vectors)
from .groupcore import GroupAlgebraElement, GroupAlgebraMatrix, GroupPresentation, Word

WeightVector = tuple[int, ...]


class ParityError(ValueError):
    """The weight vector is inadmissible for the representation's central data."""

    def __init__(self, message: str, factor: int):
        super().__init__(message)
        self.factor = factor


def validate_weight(lam: Sequence[int]) -> WeightVector:
    lam = tuple(lam)
    if not lam:
        raise StructuralError("weight vector must have at least one factor")
    for v in lam:
        if not isinstance(v, int) or v < 0:
            raise StructuralError("weights must be non-negative integers")
    return lam


def weight_dim(lam: Sequence[int]) -> int:
    return math.prod(v + 1 for v in lam)


def _det_is_one(g: ScaledMatrix) -> bool:
    # t * (ad - bc) against t * den^2, t = the field's int_scale
    mul = g.field.int_mul
    a, b, c, d = g.entries
    det = [x - y for x, y in zip(mul(a, d), mul(b, c))]
    return det == [g.field.int_scale * g.den ** 2] + [0] * (g.field.degree - 1)


def _identity_sign(g: ScaledMatrix) -> Optional[int]:
    """1 or -1 when the 2x2 matrix g is +Identity or -Identity, else None."""
    if (g.rows, g.cols) != (2, 2):
        return None
    a, b, c, d = g.entries
    if any(b) or any(c) or a != d or any(a[1:]) or abs(a[0]) != g.den:
        return None
    return 1 if a[0] > 0 else -1


def sym_power(g: ScaledMatrix, lam: int) -> ScaledMatrix:
    """Matrix of the 2x2 matrix g on the lam-th symmetric power of its
    defining 2-dim space."""
    if lam < 0:
        raise StructuralError("symmetric power degree must be non-negative")
    if (g.rows, g.cols) != (2, 2):
        raise StructuralError("expected a 2x2 matrix")
    # Integer coordinates: g = (s*g)/s with s = g.den gives
    # Sym^lam(g) = Sym^lam(s*g) / s^lam.  P[n] = t^n x^n for each entry x
    # (t = the field's int_scale, 1 for an integral minpoly), so every
    # coefficient below carries the same factor t^(lam+3).
    field = g.field
    mul, t, deg = field.int_mul, field.int_scale, field.degree
    zero = (0,) * deg
    one = (1,) + zero[1:]

    def powers(x):
        out = [one]
        for _ in range(lam):
            out.append(mul(out[-1], x))
        return out

    def sparse(v):
        return [(i, x) for i, x in enumerate(v) if x]

    pa, pb, pc, pd = (powers(x) for x in g.entries)
    n = lam + 1
    cols = []
    for j in range(n):
        # (a x + c y)^(lam-j) (b x + d y)^j, coefficient of x^(lam-i) y^i;
        # products are summed as convolutions and reduced once per entry
        p1 = [(k, v, math.comb(lam - j, k)) for k in range(lam - j + 1)
              if (v := sparse(mul(pa[lam - j - k], pc[k])))]
        p2 = [(l, v, math.comb(j, l)) for l in range(j + 1)
              if (v := sparse(mul(pb[j - l], pd[l])))]
        conv = [[0] * (2 * deg - 1) for _ in range(n)]
        for k, v1, c1 in p1:
            for l, v2, c2 in p2:
                acc, c = conv[k + l], c1 * c2
                for q1, x in v1:
                    cx = c * x
                    for q2, y in v2:
                        acc[q1 + q2] += cx * y
        cols.append([field.int_reduce(v) for v in conv])
    return ScaledMatrix(field, n, n, g.den ** lam * t ** (lam + 3),
                        tuple(cols[j][i] for i in range(n) for j in range(n)))


def weight_rep(gs: Sequence[ScaledMatrix], lam: Sequence[int]) -> ScaledMatrix:
    """Kronecker product over factors of sym_power(g_j, lam_j)."""
    if len(gs) != len(lam):
        raise StructuralError(f"got {len(gs)} factor matrices for {len(lam)} weights")
    out = sym_power(gs[0], lam[0])
    for g, l in zip(gs[1:], lam[1:]):
        out = out.kron(sym_power(g, l))
    return out


def _central_sign(z: Union[int, ScaledMatrix]) -> int:
    if isinstance(z, int):
        if z in (1, -1):
            return z
        raise ValueError("central entries must be +1 or -1 (for +Id / -Id)")
    if isinstance(z, ScaledMatrix):
        sign = _identity_sign(z)
        if sign is None:
            raise ValueError("central entries must equal +Identity or -Identity")
        return sign
    raise StructuralError("central entry must be a sign or a 2x2 matrix")


def central_character_value(lam: Sequence[int], z: Sequence[Union[int, ScaledMatrix]]) -> int:
    """Scalar through which (z_1, ..., z_n), each +-Identity, acts on the weight module."""
    lam = validate_weight(lam)
    if len(z) != len(lam):
        raise StructuralError("central tuple length differs from weight length")
    value = 1
    for l, zj in zip(lam, z):
        if _central_sign(zj) == -1 and l % 2 == 1:
            value = -value
    return value


@dataclass(frozen=True)
class RepAssignment:
    """Generator images in a product of n copies of SL2, with validated
    relator behaviour.

    relator_signs[k][j] is +1 or -1 according to whether relator k maps to
    +Identity or -Identity in factor j.  central_signs, when the presentation
    designates a central involution generator, records that generator's
    per-factor signs.
    """

    presentation: GroupPresentation
    n: int
    field: NumberField
    images: tuple[tuple[ScaledMatrix, ...], ...]  # per generator, per factor
    relator_signs: tuple[tuple[int, ...], ...]
    central_signs: Optional[tuple[int, ...]]

    @staticmethod
    def build(presentation: GroupPresentation,
              images: Sequence[Sequence[ScaledMatrix]],
              n: Optional[int] = None,
              field: Optional[NumberField] = None) -> "RepAssignment":
        if len(images) != presentation.num_generators:
            raise StructuralError("need one image tuple per generator")
        if not images:
            # presentation of the trivial group: factor count and field must be declared
            if n is None or field is None:
                raise StructuralError("factor count and field required when there are no generators")
            return RepAssignment(presentation, n, field, (), (), None)
        n = len(images[0])
        if n < 1:
            raise StructuralError("at least one SL2 factor required")
        field = images[0][0].field
        for gi, tup in enumerate(images):
            if len(tup) != n:
                raise StructuralError(f"generator {gi} has {len(tup)} factor images, expected {n}")
            for fj, g in enumerate(tup):
                if g.field != field:
                    raise StructuralError("all images must share one number field")
                if g.rows != 2 or g.cols != 2:
                    raise StructuralError("images must be 2x2")
                if not _det_is_one(g):
                    raise ValueError(
                        f"generator {presentation.generator_names[gi]!r} factor {fj}: determinant is not 1")
        signs = []
        for rk, rel in enumerate(presentation.relators):
            row = []
            for fj in range(n):
                sign = _identity_sign(_word_image([tup[fj] for tup in images], rel, field))
                if sign is None:
                    raise ValueError(
                        f"relator {rk} does not map to +-Identity in factor {fj}")
                row.append(sign)
            signs.append(tuple(row))
        central_signs = None
        ci = presentation.central_involution
        if ci is not None:
            row = []
            for fj in range(n):
                sign = _identity_sign(images[ci][fj])
                if sign is None:
                    raise ValueError(
                        f"designated central involution {presentation.generator_names[ci]!r} "
                        f"must map to +-Identity in every factor (factor {fj} fails)")
                row.append(sign)
            central_signs = tuple(row)
        return RepAssignment(presentation, n, field,
                             tuple(tuple(t) for t in images), tuple(signs), central_signs)

    def check_admissible(self, lam: Sequence[int], central: bool = True) -> WeightVector:
        """Parity gate.  Every relator must act as +Identity on the weight
        module (otherwise there is no action of the presented group at all).
        With `central`, additionally require every designated central
        involution to act as +Identity: homology experiments hold the central
        character fixed along a schedule, so weights on which it acts by -1
        are rejected rather than silently mixed in.
        """
        lam = validate_weight(lam)
        if len(lam) != self.n:
            raise StructuralError(f"weight has {len(lam)} entries for {self.n} factors")
        for rk, row in enumerate(self.relator_signs):
            if central_character_value(lam, row) != 1:
                bad = next(j for j in range(self.n) if row[j] == -1 and lam[j] % 2 == 1)
                raise ParityError(
                    f"weight {lam} inadmissible: relator {rk} acts by -1 (factor {bad})", bad)
        if central and self.central_signs is not None:
            for j, s in enumerate(self.central_signs):
                if s == -1 and lam[j] % 2 == 1:
                    raise ParityError(
                        f"weight {lam} inadmissible: central involution acts by -1 in factor {j}", j)
        return lam

    def is_admissible(self, lam: Sequence[int], central: bool = True) -> bool:
        try:
            self.check_admissible(lam, central=central)
            return True
        except ParityError:
            return False


def _word_image(factor_images: Sequence[ScaledMatrix], w: Word,
                field: NumberField) -> ScaledMatrix:
    """2x2 image of a word in integer coordinates, over its least denominator.

    Inverse letters use the adjugate, which is the inverse in SL2.
    """
    mul, t = field.int_mul, field.int_scale
    zero = (0,) * field.degree
    one = (1,) + zero[1:]

    def add(u, v):
        return tuple(x + y for x, y in zip(u, v))

    a, b, c, d, den = one, zero, zero, one, 1
    for idx, exp in w.letters:
        if idx >= len(factor_images):
            raise StructuralError("word references a generator with no image")
        g = factor_images[idx]
        e, f, h, k = g.entries
        if exp == -1:
            e, f, h, k = k, tuple(-x for x in f), tuple(-x for x in h), e
        a, b, c, d = (add(mul(a, e), mul(b, h)), add(mul(a, f), mul(b, k)),
                      add(mul(c, e), mul(d, h)), add(mul(c, f), mul(d, k)))
        den *= g.den * t
    content = math.gcd(den, *a, *b, *c, *d)
    entries = tuple(tuple(x // content for x in v) for v in (a, b, c, d))
    return ScaledMatrix(field, 2, 2, den // content, entries)


def evaluate(a: Union[GroupAlgebraElement, GroupAlgebraMatrix], rep: RepAssignment,
             lam: Sequence[int]) -> ScaledMatrix:
    """Image of a group-algebra element or matrix on the weight module of `lam`.

    Sym^lam and the Kronecker product are homomorphisms, so each support word
    is multiplied out as a 2x2 matrix per factor and lifted to the weight
    module once, in integer coordinates over one denominator.  A matrix
    becomes the (rows*d) x (cols*d) block matrix with d = dim W; an element
    becomes a d x d matrix.  No parity gate here.
    """
    lam = validate_weight(lam)
    if isinstance(a, GroupAlgebraElement):
        a = GroupAlgebraMatrix.single(a)
    if not isinstance(a, GroupAlgebraMatrix):
        raise StructuralError(f"cannot evaluate object of type {type(a).__name__}")
    if a.field != rep.field:
        raise FieldMismatchError("matrix field differs from representation field")
    if len(lam) != rep.n:
        raise StructuralError(f"weight has {len(lam)} entries for {rep.n} factors")
    field = rep.field
    factors = [[tup[j] for tup in rep.images] for j in range(rep.n)]
    lifted = {w: weight_rep([_word_image(f, w, field) for f in factors], lam)
              for w in a.support()}
    # each term c * lifted[w] as integer vectors over its own denominator; a
    # rational c scales the image, any other c multiplies in (adding int_scale)
    mul = field.int_mul
    cells = []
    for e in a.entries:
        cell = []
        for w, c in e.terms:
            cden, (cvec,) = scaled_vectors([c])
            img = lifted[w]
            if any(cvec[1:]):
                cell.append(([mul(cvec, v) for v in img.entries],
                             cden * img.den * field.int_scale))
            else:
                cell.append(([tuple(cvec[0] * x for x in v) for v in img.entries],
                             cden * img.den))
        cells.append(cell)
    den = math.lcm(1, *(tden for cell in cells for _, tden in cell))
    d = weight_dim(lam)
    out_cols = a.cols * d
    flat = [[0] * field.degree for _ in range(a.rows * d * out_cols)]
    for idx, cell in enumerate(cells):
        i, j = divmod(idx, a.cols)
        for vectors, tden in cell:
            f = den // tden
            for bi in range(d):
                base = (i * d + bi) * out_cols + j * d
                for bj, v in enumerate(vectors[bi * d:(bi + 1) * d]):
                    if any(v):
                        acc = flat[base + bj]
                        for q, x in enumerate(v):
                            acc[q] += f * x
    return ScaledMatrix(field, a.rows * d, out_cols, den, tuple(tuple(v) for v in flat))

