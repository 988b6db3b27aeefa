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
from typing import Optional, Sequence

from .exactalg import (FieldMismatchError, NumberField, ScaledMatrix, StructuralError,
                       _slot_width, _unpack, scaled_vectors)
from .groupcore import GroupAlgebraMatrix, GroupPresentation, Word

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


def _packed_sym_columns(g: ScaledMatrix, lam: int, width: int) -> list[tuple[int, ...]]:
    """The columns of t^(lam+3) * Sym^lam(den * g), packed: column j as deg
    ints (one per power-basis coordinate), each holding rows 0..lam in slots
    of `width` bits, t = the field's int_scale and den = g.den.

    Column j is the polynomial (a + c Y)^(lam-j) (b + d Y)^j, whose Y^i
    coefficient is that of x^(lam-i) y^i; packing Y -> 2^width turns the
    products into big-int products.  Its l1 norm is at most
    M^lam * K^(lam+3), M = max(||(a,c)||_1, ||(b,d)||_1) over the integer
    entries and K = the field's int_mul_bound: u[k] and v[k] below have l1
    norm at most (K M)^k, and the last int_mul and the factor t^2 <= K^2
    add K^3.
    """
    field = g.field
    mul, t = field.int_mul, field.int_scale
    a, b, c, d = g.entries
    l1 = [x + (y << width) for x, y in zip(a, c)]
    l2 = [x + (y << width) for x, y in zip(b, d)]
    one = (1,) + (0,) * (field.degree - 1)
    u, v = [one], [one]  # u[k] = t^k l1^k, v[k] = t^k l2^k
    for _ in range(lam):
        u.append(mul(u[-1], l1))
        v.append(mul(v[-1], l2))
    cols = [mul(u[lam - j], v[j]) for j in range(lam + 1)]
    return cols if t == 1 else [tuple(t * t * x for x in col) for col in cols]


def _weight_parts(gs: Sequence[ScaledMatrix], lam: Sequence[int]) -> tuple[int, int]:
    """(den, bound) of weight_rep(gs, lam): its denominator, and a bound on
    the l1 norm of each of its integer columns.

    Per factor, den gains g.den^lam * t^(lam+3) and the bound
    M^lam * K^(lam+3) (see `_packed_sym_columns`); each further factor adds
    one int_mul, so one more t and K.
    """
    field = gs[0].field
    t, k = field.int_scale, field.int_mul_bound
    den = t ** (len(gs) - 1)
    bound = k ** (len(gs) - 1)
    for g, l in zip(gs, lam):
        a, b, c, d = g.entries
        m = max(sum(map(abs, a + c)), sum(map(abs, b + d)))
        den *= g.den ** l * t ** (l + 3)
        bound *= m ** l * k ** (l + 3)
    return den, bound


def _packed_weight_columns(gs: Sequence[ScaledMatrix], lam: Sequence[int],
                           width: int) -> list[tuple[int, ...]]:
    """The integer columns of weight_rep(gs, lam), packed in slots of `width`
    bits as in `_packed_sym_columns`.

    Row (i, k) of A (x) B is row i * n_B + k, so column (j, l) is
    A_j(Y^n_B) * B_l(Y): A's packed column with slots n_B times wider times
    B's packed column.  The same fold serves any number of factors.
    """
    mul = gs[0].field.int_mul
    stride = weight_dim(lam[1:])
    cols = _packed_sym_columns(gs[0], lam[0], width * stride)
    for g, l in zip(gs[1:], lam[1:]):
        stride //= l + 1
        cols = [mul(x, y) for x in cols for y in _packed_sym_columns(g, l, width * stride)]
    return cols


def weight_rep(gs: Sequence[ScaledMatrix], lam: Sequence[int]) -> ScaledMatrix:
    """Kronecker product over factors of Sym^lam_j(g_j), built from packed
    columns (see `_packed_weight_columns`) whose slots are wider than the
    column l1 bound of `_weight_parts`, so each unpacks exactly."""
    if len(gs) != len(lam):
        raise StructuralError(f"got {len(gs)} factor matrices for {len(lam)} weights")
    for g in gs:
        if g.field != gs[0].field:
            raise FieldMismatchError("factor matrices over different fields")
        if (g.rows, g.cols) != (2, 2):
            raise StructuralError("expected a 2x2 matrix")
    if any(l < 0 for l in lam):
        raise StructuralError("symmetric power degree must be non-negative")
    den, bound = _weight_parts(gs, lam)
    width = _slot_width(bound)
    n = weight_dim(lam)
    cols = [list(zip(*(_unpack(x, n, width) for x in col)))
            for col in _packed_weight_columns(gs, lam, width)]
    return ScaledMatrix(gs[0].field, n, n, den,
                        tuple(cols[j][i] for i in range(n) for j in range(n)))


def sym_power(g: ScaledMatrix, lam: int) -> ScaledMatrix:
    """Matrix of the 2x2 matrix g on the lam-th symmetric power of its
    defining 2-dim space, over the denominator g.den^lam * t^(lam+3).

    Built by Kronecker substitution (`_packed_sym_columns`): each packed
    column has l1 norm at most M^lam * K^(lam+3) (M the larger l1 norm of
    the integer columns of g, K the field's int_mul_bound), and its slots
    are wider than that, so every entry unpacks exactly.
    """
    return weight_rep((g,), (lam,))


def central_character_value(lam: Sequence[int], z: Sequence[int]) -> int:
    """Scalar through which (z_1, ..., z_n), each +Identity or -Identity
    given by its sign +1 or -1, acts on the weight module."""
    lam = validate_weight(lam)
    if len(z) != len(lam):
        raise StructuralError("central tuple length differs from weight length")
    if any(sign not in (1, -1) for sign in z):
        raise ValueError("central entries must be +1 or -1 (for +Id / -Id)")
    return (-1) ** len(_odd_minus_factors(lam, z))


def _odd_minus_factors(lam: WeightVector, signs: Sequence[int]) -> list[int]:
    """The factors j where signs[j] = -1 (a -Identity) meets an odd weight,
    so that the factor acts by -1 on Sym^lam[j]."""
    return [j for j, (l, sign) in enumerate(zip(lam, signs)) if sign == -1 and l % 2 == 1]


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
            # a relator acts by the product of its factors' signs
            bad = _odd_minus_factors(lam, row)
            if len(bad) % 2:
                raise ParityError(
                    f"weight {lam} inadmissible: relator {rk} acts by -1 (factor {bad[0]})", bad[0])
        if central and self.central_signs is not None:
            # the central involution must act by +1 in every factor
            bad = _odd_minus_factors(lam, self.central_signs)
            if bad:
                raise ParityError(f"weight {lam} inadmissible: central involution acts by -1 "
                                  f"in factor {bad[0]}", bad[0])
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


def evaluate(a: GroupAlgebraMatrix, rep: RepAssignment, lam: Sequence[int]) -> ScaledMatrix:
    """Image of a group-algebra matrix on the weight module of `lam`.

    Sym^lam and the Kronecker product are homomorphisms, so each support word
    is multiplied out as a 2x2 matrix per factor and lifted to the weight
    module once, as packed integer columns (`_packed_weight_columns`).  Every
    term c * rho(w) of a cell is added column by column on the packed ints,
    scaled to one common denominator, and each output column is unpacked
    once.  The slots are wider than the largest over the cells of
    sum over terms f * ||c||_1 * (K if c is irrational else 1) * B_w, where
    f scales the term to the common denominator, K is the field's
    int_mul_bound and B_w bounds the l1 norm of a column of the word's image
    (`_weight_parts`), so every entry unpacks exactly.

    The matrix becomes the (rows*d) x (cols*d) block matrix with d = dim W.
    No parity gate here.
    """
    lam = validate_weight(lam)
    if not isinstance(a, GroupAlgebraMatrix):
        raise StructuralError(f"cannot evaluate object of type {type(a).__name__}")
    if a.field != rep.field:
        raise FieldMismatchError("matrix field differs from representation field")
    if len(lam) != rep.n:
        raise StructuralError(f"weight has {len(lam)} entries for {rep.n} factors")
    field = rep.field
    mul, t, k = field.int_mul, field.int_scale, field.int_mul_bound
    factors = [[tup[j] for tup in rep.images] for j in range(rep.n)]
    words = {w: [_word_image(f, w, field) for f in factors] for w in a.support()}
    parts = {w: _weight_parts(gs, lam) for w, gs in words.items()}
    # each term as (word, integer coefficient vector, irrational, its
    # denominator); a rational c scales the image, any other c multiplies in
    # (adding t)
    cells = []
    for e in a.entries:
        cell = []
        for w, c in e.items():
            cden, (cvec,) = scaled_vectors([c])
            irr = any(cvec[1:])
            cell.append((w, cvec, irr, cden * parts[w][0] * (t if irr else 1)))
        cells.append(cell)
    den = math.lcm(1, *(tden for cell in cells for *_, tden in cell))
    bound = max((sum(den // tden * sum(map(abs, cvec)) * (k if irr else 1) * parts[w][1]
                     for w, cvec, irr, tden in cell) for cell in cells), default=0)
    width = _slot_width(bound)
    lifted = {w: _packed_weight_columns(gs, lam, width) for w, gs in words.items()}
    d = weight_dim(lam)
    out_cols = a.cols * d
    zero = (0,) * field.degree
    flat = [zero] * (a.rows * d * out_cols)
    for idx, cell in enumerate(cells):
        if not cell:
            continue
        i, j = divmod(idx, a.cols)
        for bj in range(d):
            acc = [0] * field.degree
            for w, cvec, irr, tden in cell:
                f, col = den // tden, lifted[w][bj]
                if irr:
                    term = mul([f * x for x in cvec], col)
                else:
                    s = f * cvec[0]
                    term = [s * x for x in col]
                acc = [x + y for x, y in zip(acc, term)]
            rows = zip(*(_unpack(x, d, width) for x in acc))
            for bi, v in enumerate(rows):
                flat[(i * d + bi) * out_cols + j * d + bj] = v
    return ScaledMatrix(field, a.rows * d, out_cols, den, tuple(flat))
