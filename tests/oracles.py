"""Independent oracles for the test suite.

Nothing here shares code with the library's rank or representation paths:
ranks come from plain Gaussian elimination over Fractions or from modular
elimination, companion embeddings from an independent polynomial reduction,
symmetric powers from sympy's symbolic expansion or from `FieldElement`
arithmetic on Fractions (the library's former implementation; its products
reduce by the minimal polynomial and read none of `int_mul`'s table), slopes
from numpy.  These are the second route of every dual-route check.  Matrices here
are `DenseMatrix`es of `FieldElement`s; `dense` views a library
`ScaledMatrix` that way and `scaled` converts back.  The group-ring sum,
product and matrix product on `GroupAlgebraMatrix` cells, the block and
adjoint constructions, the Fox identity check and the coinvariant dimension
(through the dual action) serve only the tests and live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np
import sympy as sp

from l2approx.exactalg import (FieldElement, FieldMismatchError, InvariantError, NumberField,
                               ScaledMatrix, StructuralError)
from l2approx.foxhomology import boundary_stack, fox_derivative
from l2approx.groupcore import (GroupAlgebraMatrix, GroupPresentation, IDENTITY_WORD, Word,
                                sum_terms)
from l2approx.repweights import RepAssignment, evaluate, validate_weight, weight_dim


@dataclass(frozen=True)
class DenseMatrix:
    """Dense row-major matrix of `FieldElement`s over one number field."""

    field: NumberField
    rows: int
    cols: int
    entries: tuple[FieldElement, ...]

    @staticmethod
    def from_rows(field: NumberField, rows) -> "DenseMatrix":
        flat = [v if isinstance(v, FieldElement) else field.from_rational(v)
                for row in rows for v in row]
        return DenseMatrix(field, len(rows), len(rows[0]) if rows else 0, tuple(flat))

    @staticmethod
    def identity(field: NumberField, n: int) -> "DenseMatrix":
        return DenseMatrix.from_rows(field, [[int(i == j) for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> FieldElement:
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list[FieldElement]]:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols]) for i in range(self.rows)]

    def __add__(self, other: "DenseMatrix") -> "DenseMatrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return DenseMatrix(self.field, self.rows, self.cols,
                           tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "DenseMatrix") -> "DenseMatrix":
        return self + other.scalar_mul(self.field.from_rational(-1))

    def __mul__(self, other: "DenseMatrix") -> "DenseMatrix":
        assert self.cols == other.rows
        flat = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = self.field.zero
                for k in range(self.cols):
                    acc = acc + self.entry(i, k) * other.entry(k, j)
                flat.append(acc)
        return DenseMatrix(self.field, self.rows, other.cols, tuple(flat))

    def scalar_mul(self, c: FieldElement) -> "DenseMatrix":
        return DenseMatrix(self.field, self.rows, self.cols, tuple(c * e for e in self.entries))

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(self.field, self.cols, self.rows,
                           tuple(self.entry(i, j) for j in range(self.cols)
                                 for i in range(self.rows)))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def kron(self, other: "DenseMatrix") -> "DenseMatrix":
        return DenseMatrix.from_rows(self.field, [
            [self.entry(i, j) * other.entry(k, l) for j in range(self.cols)
             for l in range(other.cols)]
            for i in range(self.rows) for k in range(other.rows)])


def vstack(mats: list[DenseMatrix]) -> DenseMatrix:
    return DenseMatrix.from_rows(mats[0].field, [row for m in mats for row in m.row_lists()])


def block_diag(mats: list[DenseMatrix]) -> DenseMatrix:
    field, cols = mats[0].field, sum(m.cols for m in mats)
    rows, offset = [], 0
    for m in mats:
        for row in m.row_lists():
            rows.append([field.zero] * offset + row + [field.zero] * (cols - offset - m.cols))
        offset += m.cols
    return DenseMatrix.from_rows(field, rows)


def dense(m: ScaledMatrix) -> DenseMatrix:
    """The library matrix with every entry as a `FieldElement` of Fractions."""
    return DenseMatrix(m.field, m.rows, m.cols, tuple(
        FieldElement(m.field, tuple(Fraction(x, m.den) for x in v)) for v in m.entries))


def scaled(m: DenseMatrix) -> ScaledMatrix:
    return ScaledMatrix.from_rows(m.field, m.row_lists())


def gauss_rank(rows: list[list[Fraction]]) -> int:
    """Textbook Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        for i in range(rank + 1, nrows):
            if m[i][col]:
                f = m[i][col] / pr[col]
                m[i] = [a - f * b for a, b in zip(m[i], pr)]
        rank += 1
        if rank == nrows:
            break
    return rank


def companion_rows(m: DenseMatrix) -> list[list[Fraction]]:
    """Companion embedding over Q built by polynomial multiplication and
    `minpoly_reduce`: column k of an entry's block holds entry * alpha^k."""
    e = m.field.degree
    minpoly = list(m.field.minpoly)
    rows = [[Fraction(0)] * (m.cols * e) for _ in range(m.rows * e)]
    for i in range(m.rows):
        for j in range(m.cols):
            coeffs = list(m.entry(i, j).coeffs)
            for k in range(e):
                col = minpoly_reduce([Fraction(0)] * k + coeffs, minpoly)
                for l in range(e):
                    rows[i * e + l][j * e + k] = col[l]
    return rows


def exact_matrix_rank_oracle(m: DenseMatrix) -> int:
    """Rank via companion embedding to Q followed by Gaussian elimination.

    For a degree-e field this returns the rank over Q of the embedded matrix
    divided by e, which equals the rank over Q(alpha).
    """
    e = m.field.degree
    r = gauss_rank(companion_rows(m))
    assert r % e == 0, "companion rank is not a multiple of the degree"
    return r // e


def rational_rows(m: DenseMatrix) -> list[list[Fraction]]:
    assert m.field.degree == 1
    return [[m.entry(i, j).coeffs[0] for j in range(m.cols)] for i in range(m.rows)]


def rank_mod_p(int_rows: list[list[int]], p: int) -> int:
    """Elimination over GF(p)."""
    m = [[x % p for x in row] for row in int_rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for i in range(rank + 1, nrows):
            if m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def clear_denominators(rows: list[list[Fraction]]) -> list[list[int]]:
    out = []
    for row in rows:
        lcm = 1
        for x in row:
            lcm = lcm * x.denominator // np.gcd(lcm, x.denominator)
        out.append([int(x * lcm) for x in row])
    return out


def sympy_sym_power(entries: list[list[Fraction]], lam: int) -> list[list[Fraction]]:
    """Symbolic binomial-expansion oracle: coefficients of the substitution
    action x -> a x + c y, y -> b x + d y on the monomials x^(lam-i) y^i."""
    a, b = sp.Rational(entries[0][0]), sp.Rational(entries[0][1])
    c, d = sp.Rational(entries[1][0]), sp.Rational(entries[1][1])
    X, Y = sp.symbols("X Y")
    n = lam + 1
    cols = []
    for j in range(n):
        img = sp.expand((a * X + c * Y) ** (lam - j) * (b * X + d * Y) ** j)
        poly = sp.Poly(img, X, Y)
        cols.append([Fraction(str(poly.coeff_monomial(X ** (lam - i) * Y ** i)))
                     for i in range(n)])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def loglog_slope_oracle(scales: list[int], errors: list[Fraction]) -> float:
    xs = np.log(np.array(scales, dtype=float))
    ys = np.log(np.array([float(e) for e in errors]))
    return float(np.polyfit(xs, ys, 1)[0])


def minpoly_reduce(coeffs: list[Fraction], minpoly: list[Fraction]) -> list[Fraction]:
    """Reduce a polynomial modulo a monic minimal polynomial (independent of
    the library's integer reduction table)."""
    coeffs = list(coeffs)
    d = len(minpoly) - 1
    for k in range(len(coeffs) - 1, d - 1, -1):
        c = coeffs[k]
        if c:
            for j in range(d + 1):
                coeffs[k - d + j] -= c * minpoly[j]
    out = coeffs[:d]
    return out + [Fraction(0)] * (d - len(out))


# ---------------------------------------------------------------------------
# the former Fraction-coordinate weight modules, kept as references for the
# library's integer-coordinate kernel
# ---------------------------------------------------------------------------

def _powers(x: FieldElement, n: int) -> list[FieldElement]:
    out = [x.field.one]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def fraction_sym_power(g: DenseMatrix, lam: int) -> DenseMatrix:
    """Sym^lam(g) by binomial expansion in `FieldElement` arithmetic: column j
    holds (a x + c y)^(lam-j) (b x + d y)^j in the monomials x^(lam-i) y^i."""
    field = g.field
    a, b = g.entry(0, 0), g.entry(0, 1)
    c, d = g.entry(1, 0), g.entry(1, 1)
    n = lam + 1
    pa, pb = _powers(a, lam), _powers(b, lam)
    pc, pd = _powers(c, lam), _powers(d, lam)
    cols = []
    for j in range(n):
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
    return DenseMatrix(field, n, n, tuple(cols[j][i] for i in range(n) for j in range(n)))


def fraction_weight_rep(gs, lam) -> DenseMatrix:
    out = fraction_sym_power(gs[0], lam[0])
    for g, l in zip(gs[1:], lam[1:]):
        out = out.kron(fraction_sym_power(g, l))
    return out


def adjugate(g: DenseMatrix) -> DenseMatrix:
    """The inverse of a 2x2 matrix of determinant 1."""
    return DenseMatrix.from_rows(g.field, [[g.entry(1, 1), -g.entry(0, 1)],
                                           [-g.entry(1, 0), g.entry(0, 0)]])


def fraction_evaluate(a, rep, lam) -> DenseMatrix:
    """Image of a group-algebra matrix: each word multiplied out in 2x2 per
    factor (inverse letters by the adjugate), lifted by fraction_weight_rep,
    and summed into blocks with `FieldElement` arithmetic."""
    field = rep.field

    def word_image(images, w):
        out = DenseMatrix.identity(field, 2)
        for idx, exp in w.letters:
            g = images[idx]
            if exp == -1:
                g = adjugate(g)
            out = out * g
        return out

    factors = [[dense(tup[j]) for tup in rep.images] for j in range(rep.n)]
    lifted = {w: fraction_weight_rep([word_image(f, w) for f in factors], lam)
              for w in a.support()}
    d = math.prod(v + 1 for v in lam)
    out_cols = a.cols * d
    flat = [field.zero] * (a.rows * d * out_cols)
    for i in range(a.rows):
        for j in range(a.cols):
            for w, c in a.entry(i, j).items():
                img = lifted[w]
                for bi in range(d):
                    for bj in range(d):
                        k = (i * d + bi) * out_cols + j * d + bj
                        flat[k] = flat[k] + c * img.entry(bi, bj)
    return DenseMatrix(field, a.rows * d, out_cols, tuple(flat))


# ---------------------------------------------------------------------------
# a small non-abelian finite group for the regular-representation tests
# ---------------------------------------------------------------------------

_QUAT_TABLE = {
    (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
    (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2),
}


@dataclass(frozen=True)
class QuaternionOps:
    """The unit quaternions {+-1, +-i, +-j, +-k}; elements (sign, axis),
    axis 0 = 1, 1 = i, 2 = j, 3 = k."""

    @property
    def identity(self) -> tuple[int, int]:
        return (1, 0)

    def mul(self, a, b):
        sa, ka = a
        sb, kb = b
        s = sa * sb
        if ka == 0:
            return (s, kb)
        if kb == 0:
            return (s, ka)
        if ka == kb:
            return (-s, 0)
        sgn, k = _QUAT_TABLE[(ka, kb)]
        return (s * sgn, k)

    def inv(self, a):
        s, k = a
        return (s, k) if k == 0 else (-s, k)

    def all_elements(self) -> list[tuple[int, int]]:
        return [(s, k) for k in range(4) for s in (1, -1)]

    def center(self) -> list[tuple[int, int]]:
        return [(1, 0), (-1, 0)]


def dense_regular_rank(a, ops, elements, center=None, chi=None) -> Fraction:
    """Normalized rank of a finite group-algebra matrix on the regular module,
    from a dense `FieldElement` matrix over the full element list ranked by
    `exact_matrix_rank_oracle`.

    With a central character chi on `center`, every cell is first multiplied
    by sum_z chi(z^-1) z, a multiple of the central idempotent onto the
    chi-summand, which has dimension |Q| / |Z|; no transversal is chosen.
    """
    field = a.field
    center = center or [ops.identity]
    chi = chi or {ops.identity: field.one}
    q = len(elements)
    index = {g: k for k, g in enumerate(elements)}
    out_cols = a.cols * q
    flat = [field.zero] * (a.rows * q * out_cols)
    for i in range(a.rows):
        for j in range(a.cols):
            for g, c in a.entry(i, j).items():
                for z in center:
                    h, coef = ops.mul(g, z), c * chi[ops.inv(z)]
                    for v_idx, v in enumerate(elements):
                        k = (i * q + index[ops.mul(h, v)]) * out_cols + j * q + v_idx
                        flat[k] = flat[k] + coef
    m = DenseMatrix(field, a.rows * q, out_cols, tuple(flat))
    return Fraction(exact_matrix_rank_oracle(m) * len(center), q)


# ---------------------------------------------------------------------------
# group-ring arithmetic on word cells (`sum_terms` dicts) and the
# constructions the axiom tests assemble matrices with
# ---------------------------------------------------------------------------

def ga_sum(field: NumberField, *cells: dict) -> dict:
    """Sum of group-ring cells: coefficients of equal words add."""
    return sum_terms(field, (term for cell in cells for term in cell.items()))


def ga_product(field: NumberField, x: dict, y: dict) -> dict:
    """Product of two word cells: words multiply in the free group."""
    return sum_terms(field, ((w1 * w2, c1 * c2) for w1, c1 in x.items() for w2, c2 in y.items()))


def ga_matmul(a: GroupAlgebraMatrix, b: GroupAlgebraMatrix) -> GroupAlgebraMatrix:
    """Matrix product over the group ring of the free group."""
    if a.field != b.field:
        raise FieldMismatchError("matrix product over different fields")
    if a.cols != b.rows:
        raise StructuralError("inner dimensions do not match")
    return GroupAlgebraMatrix(a.field, a.rows, b.cols, tuple(
        ga_sum(a.field, *(ga_product(a.field, a.entry(i, k), b.entry(k, j))
                          for k in range(a.cols)))
        for i in range(a.rows) for j in range(b.cols)))


def word_inverse(w: Word) -> Word:
    return Word(tuple((i, -e) for i, e in reversed(w.letters)))


def ga_star(x: dict) -> dict:
    """Formal adjoint of a word cell: invert every word, keep coefficients."""
    return {word_inverse(w): c for w, c in x.items()}


def ga_matrix_star(m: GroupAlgebraMatrix) -> GroupAlgebraMatrix:
    """Transpose with every word inverted (formal adjoint)."""
    flat = tuple(ga_star(m.entry(i, j)) for j in range(m.cols) for i in range(m.rows))
    return GroupAlgebraMatrix(m.field, m.cols, m.rows, flat)


def ga_block_diag(a: GroupAlgebraMatrix, b: GroupAlgebraMatrix) -> GroupAlgebraMatrix:
    if a.field != b.field:
        raise FieldMismatchError("block sum over different fields")
    rows = []
    for i in range(a.rows):
        rows.append([a.entry(i, j) for j in range(a.cols)] + [{}] * b.cols)
    for i in range(b.rows):
        rows.append([{}] * a.cols + [b.entry(i, j) for j in range(b.cols)])
    return GroupAlgebraMatrix.from_rows(a.field, rows)


def ga_block_triangular(a: GroupAlgebraMatrix, c: GroupAlgebraMatrix, b: GroupAlgebraMatrix) -> GroupAlgebraMatrix:
    """Assemble [[A, C], [0, B]]; C must be a.rows x b.cols."""
    if not (a.field == b.field == c.field):
        raise FieldMismatchError("block assembly over different fields")
    if c.rows != a.rows or c.cols != b.cols:
        raise StructuralError("corner block has incompatible shape")
    rows = []
    for i in range(a.rows):
        rows.append([a.entry(i, j) for j in range(a.cols)] + [c.entry(i, j) for j in range(c.cols)])
    for i in range(b.rows):
        rows.append([{}] * a.cols + [b.entry(i, j) for j in range(b.cols)])
    return GroupAlgebraMatrix.from_rows(a.field, rows)


# ---------------------------------------------------------------------------
# Fox-calculus identities and degree-0 homology by an independent route
# ---------------------------------------------------------------------------

def check_fox_identity(p: GroupPresentation, field) -> None:
    """Fundamental identity: sum_j d(r)/d(x_j) * (x_j - 1) = r - 1, per relator."""
    stack = boundary_stack(p, field)
    for rel in p.relators:
        acc = ga_sum(field, *(ga_product(field, fox_derivative(rel, j, field), stack.entry(j, 0))
                              for j in range(p.num_generators)))
        if acc != sum_terms(field, [(rel, 1), (IDENTITY_WORD, -1)]):
            raise InvariantError(f"fundamental Fox identity fails for relator {rel!r}")


def coinvariants_dim(rep: RepAssignment, lam: Sequence[int]) -> int:
    """Dimension of the joint coinvariants (degree-0 homology), computed from
    the transposed/dual action independently of homology_dims."""
    lam = validate_weight(lam)
    d = weight_dim(lam)
    if not rep.images:
        return d

    def inverse_transpose(g: ScaledMatrix) -> ScaledMatrix:
        a, b, c, e = g.entries
        neg_b, neg_c = tuple(-x for x in b), tuple(-x for x in c)
        return ScaledMatrix(g.field, 2, 2, g.den, (e, neg_c, neg_b, a))

    # Sym(g^-T) = B Sym(g^-1)^T B^-1 with one diagonal B for all blocks: the dual action's rank
    # g -> g^-T is again a representation, with the same relator signs
    dual = replace(rep, images=tuple(tuple(inverse_transpose(g) for g in tup)
                                     for tup in rep.images))
    return d - evaluate(boundary_stack(rep.presentation, rep.field), dual, lam).rank()
