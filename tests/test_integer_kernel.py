"""Cross-checks of the integer-coordinate weight-module kernel.

Every symmetric power, weight module, evaluated matrix and J*D test built in
integer coordinates is compared entry by entry with the Fraction-coordinate
references in `oracles.py`, over Q with non-integral entries, Q(w), the cubic
field c^3 = 2, fields whose minimal polynomial is not integral and cubic
fields whose minimal polynomial has a nonzero x^2 coefficient.
"""

import math
import random
from fractions import Fraction as F

import pytest

from l2approx import foxhomology
from l2approx.census import builtin_entry
from l2approx.exactalg import (InvariantError, NumberField, QQ, ScaledMatrix, product_is_zero,
                               scaled_vectors)
from l2approx.foxhomology import fox_jacobian, homology_dims, presentation_complex
from l2approx.groupcore import GroupAlgebraMatrix, GroupPresentation, free_reduce, sum_terms
from l2approx.padicharris import diagonal_element_images
from l2approx.repweights import RepAssignment, evaluate, sym_power, weight_rep

from oracles import (DenseMatrix, adjugate, coinvariants_dim, companion_rows, dense,
                     exact_matrix_rank_oracle,
                     fraction_evaluate, fraction_sym_power, fraction_weight_rep, scaled,
                     vstack)

QW = NumberField((F(1), F(-1), F(1)))                # w^2 = w - 1
QC = NumberField((F(-2), F(0), F(0), F(1)))           # c^3 = 2
QH = NumberField((F(-1, 2), F(0), F(1)))              # h^2 = 1/2
QR = NumberField((F(-1, 2), F(1, 3), F(0), F(1)))     # r^3 = -r/3 + 1/2
QS = NumberField((F(-1), F(-2), F(1), F(1)))          # s^3 = -s^2 + 2s + 1
QT = NumberField((F(1, 3), F(0), F(-1, 2), F(1)))     # t^3 = t^2/2 - 1/3
FIELDS = (QQ, QW, QC, QH, QR)


def random_element(field, rng, span=3):
    return field.element([F(rng.randint(-span, span), rng.randint(1, 4))
                          for _ in range(field.degree)])


def random_sl2(field, rng, moves=3):
    """Product of shears with non-integral entries: determinant exactly 1."""
    m = DenseMatrix.identity(field, 2)
    one, zero = field.one, field.zero
    for _ in range(moves):
        t = random_element(field, rng)
        rows = [[one, t], [zero, one]] if rng.random() < 0.5 else [[one, zero], [t, one]]
        m = m * DenseMatrix.from_rows(field, rows)
    return m


def random_matrix(field, rng, rows, cols):
    return DenseMatrix.from_rows(field, [[random_element(field, rng) for _ in range(cols)]
                                         for _ in range(rows)])


def free_rep(field, rng, n=1):
    """Free group on a, b with random SL2 images in n factors."""
    images = [[scaled(random_sl2(field, rng)) for _ in range(n)] for _ in range(2)]
    return RepAssignment.build(GroupPresentation(("a", "b"), ()), images)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.minpoly))
def test_sym_power_matches_fraction_reference(field):
    rng = random.Random(101)
    for _ in range(4):
        g = random_sl2(field, rng)
        for lam in range(7):
            assert dense(sym_power(scaled(g), lam)) == fraction_sym_power(g, lam)


@pytest.mark.parametrize("p", (3, 5))
def test_diagonal_element_with_non_integral_entry(p):
    g = diagonal_element_images(p)[0][0]  # diag(1+p, 1/(1+p))
    for lam in range(9):
        assert dense(sym_power(g, lam)) == fraction_sym_power(dense(g), lam)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.minpoly))
def test_weight_rep_matches_fraction_reference_on_two_factors(field):
    rng = random.Random(103)
    g1, g2 = random_sl2(field, rng), random_sl2(field, rng)
    for lam in ((0, 2), (2, 1), (3, 2)):
        assert dense(weight_rep([scaled(g1), scaled(g2)], lam)) == \
            fraction_weight_rep([g1, g2], lam)


@pytest.mark.parametrize("field", (QC, QH, QR), ids=lambda f: str(f.minpoly))
def test_weight_rep_is_multiplicative_on_two_factors(field):
    rng = random.Random(107)
    g1, g2, h1, h2 = (random_sl2(field, rng) for _ in range(4))
    def rep(gs, lam):
        return dense(weight_rep([scaled(g) for g in gs], lam))

    for lam in ((1, 2), (3, 1)):
        assert rep([g1 * h1, g2 * h2], lam) == rep([g1, g2], lam) * rep([h1, h2], lam)
    assert dense(sym_power(scaled(g1 * h1), 4)) == \
        dense(sym_power(scaled(g1), 4)) * dense(sym_power(scaled(h1), 4))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.minpoly))
def test_evaluate_matches_fraction_reference(field):
    rng = random.Random(109)
    rep = free_rep(field, rng, n=2)
    for _ in range(3):
        cells = []
        for _ in range(2):
            terms = {}
            for _ in range(3):
                w = free_reduce([(rng.randrange(2), rng.choice((1, -1)))
                                 for _ in range(rng.randint(0, 4))])
                terms[w] = random_element(field, rng)
            cells.append(sum_terms(field, terms.items()))
        a = GroupAlgebraMatrix.from_rows(field, [cells])
        for lam in ((1, 1), (2, 1)):
            assert dense(evaluate(a, rep, lam)) == fraction_evaluate(a, rep, lam)


def test_figure_eight_complex_matches_fraction_reference(fig8):
    p, rep = fig8.presentation, fig8.rep
    for lam in ((2,), (5,)):
        J, D, j_rows, d_rows = presentation_complex(p, rep, lam)
        assert dense(J) == fraction_evaluate(fox_jacobian(p, rep.field), rep, lam)
        ident = DenseMatrix.identity(rep.field, lam[0] + 1)
        assert dense(D) == vstack([fraction_weight_rep([dense(g) for g in tup], lam) - ident
                                   for tup in rep.images])
        assert (j_rows, d_rows) == (J.embed(), D.embed())


def test_coinvariants_match_the_dual_action_reference(fig8, whitehead, c2, z_entry):
    # d - rank of the stacked blocks rho(g^-1)^T - Id, in Fraction coordinates
    # one generator of order 4, a hyperbolic one and one of order 6 have
    # invariants that depend on the weight
    cyclic = [RepAssignment.build(GroupPresentation(("t",), ()),
                                  [[ScaledMatrix.from_rows(QQ, m)]])
              for m in ([[0, -1], [1, 0]], [[2, 1], [1, 1]], [[1, 1], [-1, 0]])]
    rng = random.Random(114)
    for rep in [fig8.rep, whitehead.rep, c2.rep, z_entry.rep, free_rep(QR, rng, n=2)] + cyclic:
        for lam in ((1,), (2,), (4,)) if rep.n == 1 else ((1, 1), (2, 2)):
            d = math.prod(v + 1 for v in lam)
            ident = DenseMatrix.identity(rep.field, d)
            dual = vstack([fraction_weight_rep([adjugate(dense(g)) for g in tup], lam).transpose()
                           - ident for tup in rep.images])
            assert coinvariants_dim(rep, lam) == d - exact_matrix_rank_oracle(dual)


@pytest.mark.parametrize("field", (QW, QH, QR, QS, QT), ids=lambda f: str(f.minpoly))
def test_int_mul_matches_field_product(field):
    rng = random.Random(113)
    for _ in range(20):
        e, f = random_element(field, rng), random_element(field, rng)
        den, (u, v) = scaled_vectors([e, f])
        got = field.int_mul(u, v)
        scale = den * den * field.int_scale
        assert tuple(F(x, scale) for x in got) == (e * f).coeffs


@pytest.mark.parametrize("field", (QW, QC, QH, QR, QS, QT), ids=lambda f: str(f.minpoly))
def test_embedding_matches_independent_companion_rows(field):
    rng = random.Random(127)
    m = random_matrix(field, rng, 2, 3)
    s = scaled(m)
    assert dense(s) == m
    scale = s.den * field.int_scale
    assert [[F(x, scale) for x in row] for row in s.embed()] == companion_rows(m)


@pytest.mark.parametrize("field", (QH, QR), ids=lambda f: str(f.minpoly))
def test_rank_over_non_integral_minpoly_matches_oracle(field):
    rng = random.Random(131)
    ranks = set()
    for _ in range(8):
        inner = rng.randint(1, 3)
        m = random_matrix(field, rng, rng.randint(1, 4), inner) * \
            random_matrix(field, rng, inner, rng.randint(1, 4))
        ranks.add(scaled(m).rank())
        assert scaled(m).rank() == exact_matrix_rank_oracle(m)
    assert len(ranks) > 1


@pytest.mark.parametrize("field", (QQ, QW, QH), ids=lambda f: str(f.minpoly))
def test_product_is_zero_matches_dense_product(field):
    rng = random.Random(137)
    for _ in range(10):
        a = random_matrix(field, rng, 2, 2)
        x, y = a.entry(0, 0), a.entry(0, 1)
        kernel = DenseMatrix.from_rows(field, [[y, -y], [-x, x]])  # row 0 of a kills it
        b = random_matrix(field, rng, 2, 3)
        for left, right in ((a, b), (DenseMatrix.from_rows(field, [[x, y]]), kernel)):
            rows = [scaled(m).embed() for m in (left, right)]
            assert product_is_zero(*rows) == (left * right).is_zero()
    assert product_is_zero([], [[1, 2]])


def test_nonzero_composite_raises_invariant_error(fig8, monkeypatch):
    # a fresh assignment whose image of b is replaced after the relator check
    rep = RepAssignment.build(fig8.presentation, fig8.rep.images)
    (a_img,), (b_img,) = rep.images
    object.__setattr__(rep, "images", ((a_img,), (scaled(dense(b_img).transpose()),)))
    with pytest.raises(InvariantError, match="J\\*D is nonzero"):
        presentation_complex(fig8.presentation, rep, (2,))

    def refuse(rows):
        raise AssertionError("a rank was taken before the J*D check")
    with monkeypatch.context() as m:
        m.setattr(foxhomology, "rank_rows", refuse)
        m.setattr(foxhomology, "pivot_columns", refuse)
        with pytest.raises(InvariantError, match="J\\*D is nonzero"):
            homology_dims(fig8.presentation, rep, (2,))
    assert homology_dims(fig8.presentation, builtin_entry("figure-eight").rep, (2,)).dims() \
        == (0, 1, 1)
