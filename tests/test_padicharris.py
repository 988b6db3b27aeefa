import random
from fractions import Fraction as F

import pytest

from l2approx.exactalg import QQ, ScaledMatrix, StructuralError
from l2approx.groupcore import (GroupAlgebraMatrix, GroupPresentation, IDENTITY_WORD,
                                word_from_string)
from l2approx.padicharris import (CongruenceOps, congruence_quotient_map,
                                  diagonal_element_images, harris_sequence,
                                  reduce_matrix_mod, unipotent_element_images)
from l2approx.rankfun import MemoryCapError, luck_rank, subgroup_closure


def z_presentation():
    return GroupPresentation(("t",), ())


def t_minus_one():
    t = word_from_string("t", ("t",))
    return GroupAlgebraMatrix.single(QQ, {t: 1, IDENTITY_WORD: -1})


def congruence_generators(p, level, n):
    """I + pE12, I + pE21 and diag(1 + p, (1 + p)^-1) in each factor, the
    identity in the others: together they generate U_1/U_level."""
    m = p ** level
    ident = (1, 0, 0, 1)
    mats = [(1, p, 0, 1), (1, 0, p, 1), (1 + p, 0, 0, pow(1 + p, -1, m))]
    return [tuple(g if f == k else ident for f in range(n)) for k in range(n) for g in mats]


def congruence_group(p, level, n=1, cap=10 ** 4):
    ops = CongruenceOps(p, level, n)
    return ops, subgroup_closure(ops, congruence_generators(p, level, n), cap)


class TestCongruenceQuotient:
    def test_level_one_is_trivial(self):
        ops, els = congruence_group(3, 1)
        assert els == [ops.identity]

    def test_order_formula(self):
        assert len(congruence_group(3, 2)[1]) == 27
        assert len(congruence_group(5, 2)[1]) == 125
        assert len(congruence_group(3, 2, 2)[1]) == 729

    def test_enumeration_matches_formula(self):
        for p, i, n in ((3, 2, 1), (5, 2, 1), (3, 3, 1)):
            els = congruence_group(p, i, n)[1]
            assert len(set(els)) == len(els) == p ** (3 * n * (i - 1))

    def test_all_elements_congruent_to_identity_with_unit_det(self):
        for (a, b, c, d), in congruence_group(3, 2)[1]:
            assert a % 3 == 1 and d % 3 == 1 and b % 3 == 0 and c % 3 == 0
            assert (a * d - b * c) % 9 == 1

    def test_closed_under_multiplication_and_inverse(self):
        ops, els = congruence_group(3, 2)
        members = set(els)
        rng = random.Random(1)
        for _ in range(60):
            x, y = rng.choice(els), rng.choice(els)
            assert ops.mul(x, y) in members
            assert ops.mul(x, ops.inv(x)) == ops.identity

    def test_even_prime_rejected(self):
        with pytest.raises(ValueError, match="odd prime"):
            harris_sequence(t_minus_one(), z_presentation(), unipotent_element_images(2), 2, [1])

    def test_composite_rejected(self):
        with pytest.raises(ValueError, match="odd prime"):
            harris_sequence(t_minus_one(), z_presentation(), unipotent_element_images(9), 9, [1])

    def test_order_cap(self):
        with pytest.raises(MemoryCapError):
            congruence_group(3, 4, cap=3 ** 6)  # order 3^9


class TestReduction:
    def test_rational_entries_reduced_with_inverse_denominator(self):
        g = ScaledMatrix.from_rows(QQ, [[1 + 3, 0], [0, F(1, 4)]])
        a, b, c, d = reduce_matrix_mod(g, 3, 2)
        assert (a, b, c) == (4, 0, 0)
        assert d == pow(4, -1, 9)

    def test_denominator_divisible_by_p_rejected(self):
        g = ScaledMatrix.from_rows(QQ, [[1, F(1, 3)], [0, 1]])
        with pytest.raises(ValueError):
            reduce_matrix_mod(g, 3, 2)

    def test_image_not_congruent_rejected(self):
        g = ScaledMatrix.from_rows(QQ, [[1, 1], [0, 1]])
        with pytest.raises(ValueError):
            reduce_matrix_mod(g, 3, 2)


class TestHarris:
    def test_unipotent_exact_values_and_envelopes(self):
        rows = harris_sequence(t_minus_one(), z_presentation(),
                               unipotent_element_images(3), 3, [1, 2, 3, 4], target=F(1))
        assert [r.value for r in rows] == [0, F(2, 3), F(8, 9), F(26, 27)]
        assert [r.index for r in rows] == [1, 27, 729, 19683]
        for r in rows:
            assert r.envelope == F(1, 3 ** (r.level - 1))
            assert r.error == r.envelope  # observed error equals index^(-1/3) exactly

    def test_scalar_full_rank_at_every_level(self):
        a = GroupAlgebraMatrix.single(QQ, {IDENTITY_WORD: 3})
        rows = harris_sequence(a, z_presentation(), unipotent_element_images(3), 3, [1, 2, 3])
        assert [r.value for r in rows] == [1, 1, 1]

    def test_zero_matrix(self):
        a = GroupAlgebraMatrix.single(QQ, {})
        rows = harris_sequence(a, z_presentation(), unipotent_element_images(3), 3, [1, 2, 3])
        assert [r.value for r in rows] == [0, 0, 0]

    def test_diagonal_element_same_orders(self):
        rows = harris_sequence(t_minus_one(), z_presentation(),
                               diagonal_element_images(3), 3, [1, 2, 3], target=F(1))
        assert [r.value for r in rows] == [0, F(2, 3), F(8, 9)]

    def test_p_five(self):
        rows = harris_sequence(t_minus_one(), z_presentation(),
                               unipotent_element_images(5), 5, [1, 2], target=F(1))
        assert [r.value for r in rows] == [0, F(4, 5)]

    def test_agrees_with_luck_sequence_through_quotient_maps(self):
        # two code paths, one answer
        a = t_minus_one()
        pres = z_presentation()
        images = unipotent_element_images(3)
        maps = [congruence_quotient_map(pres, images, 3, lvl) for lvl in (1, 2, 3)]
        via_luck = [luck_rank(a, q) for q in maps]
        via_harris = [r.value for r in harris_sequence(a, pres, images, 3, [1, 2, 3])]
        assert via_luck == via_harris

    def test_image_outside_first_congruence_subgroup_rejected(self):
        bad = [[ScaledMatrix.from_rows(QQ, [[1, 1], [0, 1]])]]
        with pytest.raises(ValueError):
            harris_sequence(t_minus_one(), z_presentation(), bad, 3, [2])

    def test_two_factor_quotient(self):
        # t -> (I + 3E12, I + 3E12): the support subgroup is still cyclic of order 3^(i-1)
        images = unipotent_element_images(3, n=2)
        rows = harris_sequence(t_minus_one(), z_presentation(), images, 3, [1, 2], target=F(1))
        assert [r.value for r in rows] == [0, F(2, 3)]
        assert rows[1].index == 3 ** 6
        assert rows[1].envelope == F(1, 3)

    @pytest.mark.parametrize("levels", [[2, 1], [1, 2, 2]])
    def test_levels_must_be_strictly_increasing(self, levels):
        with pytest.raises(StructuralError, match="strictly increasing"):
            harris_sequence(t_minus_one(), z_presentation(),
                            unipotent_element_images(3), 3, levels)

    def test_levels_must_be_positive(self):
        with pytest.raises(StructuralError):
            harris_sequence(t_minus_one(), z_presentation(),
                            unipotent_element_images(3), 3, [0, 1])
