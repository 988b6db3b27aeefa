import random
from fractions import Fraction as F

import pytest

from l2approx import padicharris
from l2approx.exactalg import InvariantError, QQ, ScaledMatrix, StructuralError
from l2approx.groupcore import (GroupAlgebraElement, GroupAlgebraMatrix,
                                GroupPresentation, IDENTITY_WORD, word_from_string)
from l2approx.padicharris import (congruence_quotient, congruence_quotient_map,
                                  diagonal_element_images, harris_sequence,
                                  reduce_matrix_mod, unipotent_element_images)
from l2approx.rankfun import MemoryCapError, luck_sequence


def z_presentation():
    return GroupPresentation(("t",), ())


def t_minus_one():
    t = word_from_string("t", ("t",))
    return GroupAlgebraMatrix.single(
        GroupAlgebraElement.from_dict(QQ, {t: 1, IDENTITY_WORD: -1}))


class TestCongruenceQuotient:
    def test_level_one_is_trivial(self):
        q = congruence_quotient(3, 1, 1)
        assert q.order == 1 and len(q.elements) == 1

    def test_order_formula(self):
        assert congruence_quotient(3, 2, 1).order == 27
        assert congruence_quotient(5, 2, 1).order == 125
        assert congruence_quotient(3, 2, 2, max_order=1000).order == 729

    def test_enumeration_matches_formula(self):
        for p, i, n in ((3, 2, 1), (5, 2, 1)):
            q = congruence_quotient(p, i, n)
            assert len(set(q.elements)) == q.order == p ** (3 * n * (i - 1))

    def test_all_elements_congruent_to_identity_with_unit_det(self):
        q = congruence_quotient(3, 2, 1)
        m = 9
        for (a, b, c, d), in q.elements:
            assert a % 3 == 1 and d % 3 == 1 and b % 3 == 0 and c % 3 == 0
            assert (a * d - b * c) % m == 1

    def test_closed_under_multiplication_and_inverse(self):
        q = congruence_quotient(3, 2, 1)
        els = set(q.elements)
        rng = random.Random(1)
        for _ in range(60):
            x, y = rng.choice(q.elements), rng.choice(q.elements)
            assert q.ops.mul(x, y) in els
            assert q.ops.mul(x, q.ops.inv(x)) == q.ops.identity

    def test_even_prime_rejected(self):
        with pytest.raises(ValueError):
            congruence_quotient(2, 2, 1)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            congruence_quotient(9, 2, 1)

    def test_order_cap(self):
        with pytest.raises(MemoryCapError):
            congruence_quotient(3, 4, 1)  # order 3^9 exceeds the default cap


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
        a = GroupAlgebraMatrix.single(GroupAlgebraElement.from_dict(QQ, {IDENTITY_WORD: 3}))
        rows = harris_sequence(a, z_presentation(), unipotent_element_images(3), 3, [1, 2, 3])
        assert [r.value for r in rows] == [1, 1, 1]

    def test_zero_matrix(self):
        a = GroupAlgebraMatrix.single(GroupAlgebraElement.zero(QQ))
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
        via_luck = luck_sequence(a, maps)
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

    def test_levels_must_be_positive(self):
        with pytest.raises(StructuralError):
            harris_sequence(t_minus_one(), z_presentation(),
                            unipotent_element_images(3), 3, [0, 1])


class TestEnumerationChecks:
    def test_size_disagreement_is_an_invariant_error(self, monkeypatch):
        real = padicharris.product
        monkeypatch.setattr(padicharris, "product", lambda *a, **k: list(real(*a, **k))[:-1])
        with pytest.raises(InvariantError,
                           match="enumeration size 25 disagrees with the order formula 27"):
            congruence_quotient(3, 2)

    def test_non_congruence_element_is_an_invariant_error(self, monkeypatch):
        monkeypatch.setattr(padicharris, "pow", lambda *a: 0, raising=False)
        with pytest.raises(InvariantError, match="non-congruence element"):
            congruence_quotient(3, 2)
