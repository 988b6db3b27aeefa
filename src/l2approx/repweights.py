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

from .exactalg import (ExactMatrix, FieldElement, FieldMismatchError, NumberField,
                       StructuralError)
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


def min_weight(lam: Sequence[int]) -> int:
    return min(lam)


def _det2(g: ExactMatrix) -> FieldElement:
    return g.entry(0, 0) * g.entry(1, 1) - g.entry(0, 1) * g.entry(1, 0)


def _require_sl2(g: ExactMatrix):
    if g.rows != 2 or g.cols != 2:
        raise StructuralError("expected a 2x2 matrix")
    if _det2(g) != g.field.one:
        raise ValueError("matrix determinant must be exactly 1")


def _powers(x: FieldElement, n: int) -> list[FieldElement]:
    out = [x.field.one]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def sym_power(g: ExactMatrix, lam: int) -> ExactMatrix:
    """Matrix of g on the lam-th symmetric power of its defining 2-dim space."""
    if lam < 0:
        raise StructuralError("symmetric power degree must be non-negative")
    _require_sl2(g)
    field = g.field
    a, b = g.entry(0, 0), g.entry(0, 1)
    c, d = g.entry(1, 0), g.entry(1, 1)
    n = lam + 1
    pa, pb = _powers(a, lam), _powers(b, lam)
    pc, pd = _powers(c, lam), _powers(d, lam)
    cols: list[list[FieldElement]] = []
    for j in range(n):
        # (a x + c y)^(lam-j) (b x + d y)^j, coefficient of x^(lam-i) y^i
        p1 = [field.from_rational(math.comb(lam - j, k)) * pa[lam - j - k] * pc[k]
              for k in range(lam - j + 1)]
        p2 = [field.from_rational(math.comb(j, l)) * pb[j - l] * pd[l]
              for l in range(j + 1)]
        col = [field.zero] * n
        for k, v1 in enumerate(p1):
            if v1:
                for l, v2 in enumerate(p2):
                    if v2:
                        col[k + l] = col[k + l] + v1 * v2
        cols.append(col)
    return ExactMatrix(field, n, n, tuple(cols[j][i] for i in range(n) for j in range(n)))


def weight_rep(gs: Sequence[ExactMatrix], lam: Sequence[int]) -> ExactMatrix:
    """Kronecker product over factors of sym_power(g_j, lam_j)."""
    lam = validate_weight(lam)
    if len(gs) != len(lam):
        raise StructuralError(f"got {len(gs)} factor matrices for {len(lam)} weights")
    out = sym_power(gs[0], lam[0])
    for g, l in zip(gs[1:], lam[1:]):
        out = out.kron(sym_power(g, l))
    return out


def _central_sign(z: Union[int, ExactMatrix]) -> int:
    if isinstance(z, int):
        if z in (1, -1):
            return z
        raise ValueError("central entries must be +1 or -1 (for +Id / -Id)")
    if isinstance(z, ExactMatrix):
        ident = ExactMatrix.identity(z.field, 2)
        if z == ident:
            return 1
        if z == -ident:
            return -1
        raise ValueError("central entries must equal +Identity or -Identity")
    raise StructuralError("central entry must be a sign or a 2x2 matrix")


def central_character_value(lam: Sequence[int], z: Sequence[Union[int, ExactMatrix]]) -> int:
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
    images: tuple[tuple[ExactMatrix, ...], ...]  # per generator, per factor
    relator_signs: tuple[tuple[int, ...], ...]
    central_signs: Optional[tuple[int, ...]]

    @staticmethod
    def build(presentation: GroupPresentation,
              images: Sequence[Sequence[ExactMatrix]],
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
                if _det2(g) != field.one:
                    raise ValueError(
                        f"generator {presentation.generator_names[gi]!r} factor {fj}: determinant is not 1")
        ident = ExactMatrix.identity(field, 2)
        signs = []
        for rk, rel in enumerate(presentation.relators):
            row = []
            for fj in range(n):
                m = _word_image_2x2([tup[fj] for tup in images], rel, field)
                if m == ident:
                    row.append(1)
                elif m == -ident:
                    row.append(-1)
                else:
                    raise ValueError(
                        f"relator {rk} does not map to +-Identity in factor {fj}")
            signs.append(tuple(row))
        central_signs = None
        ci = presentation.central_involution
        if ci is not None:
            row = []
            for fj in range(n):
                g = images[ci][fj]
                if g == ident:
                    row.append(1)
                elif g == -ident:
                    row.append(-1)
                else:
                    raise ValueError(
                        f"designated central involution {presentation.generator_names[ci]!r} "
                        f"must map to +-Identity in every factor (factor {fj} fails)")
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

    def weight_images(self, lam: Sequence[int]) -> list[ExactMatrix]:
        """Per-generator matrices on the weight module (no parity gate here)."""
        lam = validate_weight(lam)
        return [weight_rep(tup, lam) for tup in self.images]


def sl2_inverse(g: ExactMatrix) -> ExactMatrix:
    """Inverse of a determinant-one 2x2 matrix: its adjugate."""
    return ExactMatrix.from_rows(g.field, [[g.entry(1, 1), -g.entry(0, 1)],
                                           [-g.entry(1, 0), g.entry(0, 0)]])


def _word_image_2x2(factor_images: Sequence[ExactMatrix], w: Word,
                    field: NumberField) -> ExactMatrix:
    out = ExactMatrix.identity(field, 2)
    for idx, exp in w.letters:
        if idx >= len(factor_images):
            raise StructuralError("word references a generator with no image")
        g = factor_images[idx]
        out = out * (g if exp == 1 else sl2_inverse(g))
    return out


def evaluate(a: Union[GroupAlgebraElement, GroupAlgebraMatrix], rep: RepAssignment,
             lam: Sequence[int]) -> ExactMatrix:
    """Image of a group-algebra element or matrix on the weight module of `lam`.

    Sym^lam and the Kronecker product are homomorphisms, so each support word
    is multiplied out as a 2x2 matrix per factor and lifted to the weight
    module once.  A matrix becomes the (rows*d) x (cols*d) block matrix with
    d = dim W; an element becomes a d x d matrix.  No parity gate here.
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
    factors = [[tup[j] for tup in rep.images] for j in range(rep.n)]
    lifted = {w: weight_rep([_word_image_2x2(f, w, rep.field) for f in factors], lam).entries
              for w in a.support()}
    d = weight_dim(lam)
    out_cols = a.cols * d
    flat = [rep.field.zero] * (a.rows * d * out_cols)
    for i in range(a.rows):
        for j in range(a.cols):
            for w, c in a.entry(i, j).terms:
                img = lifted[w]
                for bi in range(d):
                    base = (i * d + bi) * out_cols + j * d
                    for bj in range(d):
                        v = img[bi * d + bj]
                        if v:
                            flat[base + bj] = flat[base + bj] + c * v
    return ExactMatrix(rep.field, a.rows * d, out_cols, tuple(flat))
