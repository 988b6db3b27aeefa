"""Exactness of the packed (Kronecker substitution) columns.

Weight modules, evaluated matrices and the J*D test hold a column of ints as
one int with balanced slots of W bits.  The one new way to be wrong is a slot
width below the true size of a result, which would alias silently; these
tests pin the round trip, compare every packed construction with the
Fraction references at entries past 2^64 and over a rational minimal
polynomial, pin one output byte for byte, and show that a too-narrow width
does alias where the proven one does not.
"""

import random
from fractions import Fraction as F

import pytest

from l2approx.exactalg import NumberField, QQ, _pack, _slot_width, _unpack, product_is_zero
from l2approx.foxhomology import presentation_complex
from l2approx.groupcore import (GroupAlgebraMatrix, GroupPresentation, free_reduce, sum_terms,
                                word_from_string)
from l2approx.repweights import RepAssignment, _word_image, evaluate, sym_power, weight_rep

from oracles import (DenseMatrix, dense, fraction_evaluate, fraction_sym_power,
                     fraction_weight_rep, scaled)

QH = NumberField((F(-1, 2), F(0), F(1)))  # h^2 = 1/2, int_scale 2
LAMS = (0, 1, 2, 7, 30)


def big_element(field, rng):
    """Coordinates of 64 to 66 bits over small denominators."""
    return field.element([F(rng.choice((1, -1)) * rng.randrange(2 ** 64, 2 ** 66),
                            rng.randint(1, 3)) for _ in range(field.degree)])


def big_sl2(field, rng):
    """A product of two shears with entries past 2^64: determinant exactly 1."""
    one, zero = field.one, field.zero
    upper = DenseMatrix.from_rows(field, [[one, big_element(field, rng)], [zero, one]])
    lower = DenseMatrix.from_rows(field, [[one, zero], [big_element(field, rng), one]])
    return upper * lower


@pytest.mark.parametrize("width", (8, 16, 64, 72))
def test_unpack_inverts_pack_at_the_slot_limits(width):
    top = 2 ** (width - 1) - 1
    values = [top, -top, 0, 1, -1, top, 0, -top]
    assert _unpack(_pack(values, width), len(values), width) == values
    assert _unpack(0, 3, width) == [0, 0, 0]
    assert _pack([-top], width) == -top


def test_slot_width_exceeds_one_plus_the_bound_bit_length():
    for bound in (0, 1, 2 ** 5, 2 ** 6 - 1, 2 ** 6, 2 ** 61, 2 ** 64, 3 ** 100):
        width = _slot_width(bound)
        assert width % 8 == 0 and width > 1 + bound.bit_length()


@pytest.mark.parametrize("field", (QQ, QH), ids=("QQ", "QH"))
def test_sym_power_matches_fraction_reference_at_large_entries(field):
    rng = random.Random(211)
    g = big_sl2(field, rng)
    assert max(abs(x) for v in scaled(g).entries for x in v) >= 2 ** 64
    for lam in LAMS:
        assert dense(sym_power(scaled(g), lam)) == fraction_sym_power(g, lam)


@pytest.mark.parametrize("field", (QQ, QH), ids=("QQ", "QH"))
def test_two_factor_weight_rep_matches_fraction_reference_at_large_entries(field):
    rng = random.Random(223)
    g1, g2 = big_sl2(field, rng), big_sl2(field, rng)
    for pair in [(lam, 1) for lam in LAMS] + [(2, 7)]:
        assert dense(weight_rep([scaled(g1), scaled(g2)], pair)) == \
            fraction_weight_rep([g1, g2], pair)


@pytest.mark.parametrize("field", (QQ, QH), ids=("QQ", "QH"))
def test_evaluate_matches_fraction_reference_at_large_entries(field):
    rng = random.Random(227)
    rep = RepAssignment.build(GroupPresentation(("a", "b"), ()),
                              [[scaled(big_sl2(field, rng))] for _ in range(2)])
    # a rational and an irrational coefficient on one word
    pairs = [(free_reduce([(rng.randrange(2), rng.choice((1, -1))) for _ in range(n)]),
              big_element(field, rng)) for n in (0, 1, 1)]
    cell = sum_terms(field, pairs + [(pairs[-1][0], 1)])
    a = GroupAlgebraMatrix.from_rows(field, [[cell, {}]])
    for lam in LAMS:
        assert dense(evaluate(a, rep, (lam,))) == fraction_evaluate(a, rep, (lam,))


def test_sym_power_output_is_pinned(fig8):
    # captured from the convolution implementation that packing replaced
    names = fig8.presentation.generator_names
    g = _word_image([tup[0] for tup in fig8.rep.images], word_from_string("abA", names),
                    fig8.rep.field)
    assert g.entries == ((1, -1), (0, 1), (0, -1), (1, 1)) and g.den == 1
    m = sym_power(g, 6)
    assert (m.rows, m.cols, m.den) == (7, 7, 1)
    assert m.entries == (
        (1, 0), (-1, 1), (0, -1), (1, 0), (-1, 1), (0, -1), (1, 0),
        (6, -6), (-1, 7), (-6, -2), (9, -6), (-4, 10), (-6, -5), (12, -6),
        (0, -15), (15, 5), (-25, 14), (18, -30), (9, 26), (-40, 5), (45, -45),
        (-20, 0), (30, -20), (-24, 40), (-7, -42), (56, 8), (-90, 60), (60, -120),
        (-15, 15), (10, -25), (9, 26), (-42, -6), (75, -42), (-75, 105), (0, -135),
        (0, 6), (-6, -5), (16, -2), (-27, 18), (30, -42), (-9, 63), (-54, -54),
        (1, 0), (-2, 1), (3, -3), (-3, 6), (0, -9), (9, 9), (-27, 0))


@pytest.mark.parametrize("name", ("figure-eight", "whitehead"))
def test_product_is_zero_rejects_a_single_unit_tamper(name, fig8, whitehead):
    entry = fig8 if name == "figure-eight" else whitehead
    _, _, j_rows, d_rows = presentation_complex(entry.presentation, entry.rep, (20,))
    assert product_is_zero(j_rows, d_rows)
    rng = random.Random(229)
    for _ in range(6):
        # a right entry in a row that the left side reads, and a left entry
        # in a column whose right row is nonzero: either tamper moves J*D
        k = rng.choice([k for k in range(len(d_rows)) if any(row[k] for row in j_rows)])
        col = rng.randrange(len(d_rows[0]))
        i = rng.randrange(len(j_rows))
        m = rng.choice([m for m in range(len(d_rows)) if any(d_rows[m])])
        for delta in (1, -1):
            right = [list(row) for row in d_rows]
            right[k][col] += delta
            assert not product_is_zero(j_rows, right)
            left = [list(row) for row in j_rows]
            left[i][m] += delta
            assert not product_is_zero(left, d_rows)


def test_too_narrow_slots_alias_where_the_proven_width_does_not():
    # left * right = [[2^64, -1]]: at 64-bit slots that packs to
    # 2^64 - 2^64 = 0.  64 bits is what the largest entry 2^61 alone would
    # give; the bound 2^61 * ||left row||_1 = 2^64 gives 72.
    left = [[1] * 8]
    right = [[2 ** 61, 0]] * 7 + [[2 ** 61, -1]]
    assert _slot_width(2 ** 61) == 64
    assert sum(_pack(row, 64) for row in right) == 0
    assert not product_is_zero(left, right)
    assert product_is_zero(left, [[2 ** 61, -1]] * 4 + [[-2 ** 61, 1]] * 4)
