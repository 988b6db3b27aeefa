import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2approx.exactalg import (FieldMismatchError, NumberField, QQ, ScaledMatrix,
                               StructuralError)
from l2approx.groupcore import (GroupAlgebraMatrix, GroupPresentation, IDENTITY_WORD, Word,
                                free_reduce, sum_terms, word_from_string)
from l2approx.repweights import RepAssignment, evaluate

from oracles import (DenseMatrix, block_diag, dense, ga_block_diag, ga_matmul, ga_product,
                     ga_star, ga_sum, rational_rows, word_inverse)

letters = st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                             st.sampled_from((1, -1))), max_size=12)


class TestFreeReduce:
    def test_cancellation(self):
        assert free_reduce([(0, 1), (0, -1), (1, 1)]) == Word(((1, 1),))

    def test_empty(self):
        assert free_reduce([]) == IDENTITY_WORD

    def test_nested_cancellation(self):
        assert free_reduce([(0, 1), (1, 1), (1, -1), (0, -1)]) == IDENTITY_WORD

    @given(letters)
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, raw):
        w = free_reduce(raw)
        assert free_reduce(w.letters) == w

    @given(letters)
    @settings(max_examples=100, deadline=None)
    def test_result_is_reduced(self, raw):
        w = free_reduce(raw)
        for (i, e), (j, f) in zip(w.letters, w.letters[1:]):
            assert not (i == j and e == -f)

    def test_word_constructor_rejects_unreduced(self):
        with pytest.raises(StructuralError):
            Word(((0, 1), (0, -1)))

    def test_bad_exponent_rejected(self):
        with pytest.raises(StructuralError):
            free_reduce([(0, 2)])

    def test_inverse_roundtrip(self):
        w = word_from_string("aBab", ("a", "b"))
        assert w * word_inverse(w) == IDENTITY_WORD

    def test_string_roundtrip(self):
        names = ("a", "b")
        w = word_from_string("aBab", names)
        assert "".join(names[i] if e == 1 else names[i].upper() for i, e in w.letters) == "aBab"

    def test_unknown_letter(self):
        with pytest.raises(StructuralError):
            word_from_string("ax", ("a",))


class TestPresentation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(StructuralError):
            GroupPresentation(("a", "a"), ())

    def test_relator_generator_range_checked(self):
        with pytest.raises(StructuralError):
            GroupPresentation(("a",), (Word(((1, 1),)),))


class TestAlgebra:
    def test_zero_coefficients_dropped(self):
        x = GroupAlgebraMatrix.single(QQ, {IDENTITY_WORD: 1, Word(((0, 1),)): 0})
        assert len(x.entry(0, 0)) == 1

    def test_from_terms_sums_repeated_words_and_drops_cancelled(self):
        # a matrix cell is the sum_terms dict: repeated words add, in first-seen order
        a, b = word_from_string("a", ("a", "b")), word_from_string("b", ("a", "b"))
        x = sum_terms(QQ, [(b, 1), (a, F(1, 2)), (IDENTITY_WORD, 2),
                           (a, F(3, 2)), (IDENTITY_WORD, -2), (b, 1)])
        assert [(w, c.coeffs[0]) for w, c in x.items()] == [(b, F(2)), (a, F(2))]
        assert not sum_terms(QQ, [(a, 1), (a, -1)])

    def test_product_collects_words(self):
        a = word_from_string("a", ("a",))
        x = {a: QQ.one, IDENTITY_WORD: QQ.one}
        y = {a: QQ.one, IDENTITY_WORD: -QQ.one}
        prod = ga_product(QQ, x, y)  # (a+1)(a-1) = a^2 - 1
        assert dict((w, c.coeffs[0]) for w, c in prod.items()) == {
            word_from_string("aa", ("a",)): F(1), IDENTITY_WORD: F(-1)}

    def test_matrix_product_matches_cell_arithmetic(self):
        a, b = word_from_string("a", ("a", "b")), word_from_string("b", ("a", "b"))
        x = GroupAlgebraMatrix.from_rows(QQ, [[{a: 1}, {b: 2, IDENTITY_WORD: 1}]])
        y = GroupAlgebraMatrix.from_rows(QQ, [[{b: 1}], [{a: -1}]])
        prod = ga_matmul(x, y)  # a*b + (2b + 1)*(-a) = ab - 2ba - a
        assert (prod.rows, prod.cols) == (1, 1)
        assert prod.entry(0, 0) == sum_terms(QQ, [(a * b, 1), (b * a, -2), (a, -1)])
        with pytest.raises(StructuralError):
            ga_matmul(x, x)

    def test_star_is_an_involution(self):
        rng = random.Random(5)
        names = ("a", "b")
        for _ in range(10):
            terms = {}
            for _ in range(3):
                raw = [(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randint(0, 4))]
                terms[free_reduce(raw)] = rng.randint(-3, 3)
            x = sum_terms(QQ, terms.items())
            assert ga_star(ga_star(x)) == x


def sanov_rep():
    pres = GroupPresentation(("a", "b"), ())
    return RepAssignment.build(pres, [[ScaledMatrix.from_rows(QQ, [[1, 2], [0, 1]])],
                                      [ScaledMatrix.from_rows(QQ, [[1, 0], [2, 1]])]])


class TestEvaluate:
    def test_unipotent_substitution(self):
        rep = RepAssignment.build(GroupPresentation(("t",), ()),
                                  [[ScaledMatrix.from_rows(QQ, [[1, 1], [0, 1]])]])
        x = GroupAlgebraMatrix.single(QQ, {Word(((0, 1),)): 1, IDENTITY_WORD: -1})
        out = evaluate(x, rep, (1,))
        assert rational_rows(dense(out)) == [[F(0), F(1)], [F(0), F(0)]]

    def test_empty_word_maps_to_identity(self):
        x = GroupAlgebraMatrix.single(QQ, {IDENTITY_WORD: 1})
        out = evaluate(x, sanov_rep(), (1,))
        assert dense(out) == DenseMatrix.identity(QQ, 2)

    def test_multiplicative_on_products(self):
        rng = random.Random(9)
        rep = sanov_rep()
        for _ in range(15):
            tx = {}
            ty = {}
            for _ in range(2):
                tx[free_reduce([(rng.randrange(2), rng.choice((1, -1)))
                                for _ in range(rng.randint(0, 4))])] = rng.randint(-2, 2)
                ty[free_reduce([(rng.randrange(2), rng.choice((1, -1)))
                                for _ in range(rng.randint(0, 4))])] = rng.randint(-2, 2)
            x, y = sum_terms(QQ, tx.items()), sum_terms(QQ, ty.items())
            lam = (rng.randint(1, 3),)

            def image(cell):
                return dense(evaluate(GroupAlgebraMatrix.single(QQ, cell), rep, lam))

            assert image(ga_product(QQ, x, y)) == image(x) * image(y)

    def test_matrix_block_shape(self):
        names = ("a", "b")
        x = {word_from_string("ab", names): 1}
        m = GroupAlgebraMatrix.from_rows(QQ, [[x, x], [x, x], [x, x]])
        out = evaluate(m, sanov_rep(), (1,))
        assert (out.rows, out.cols) == (6, 4)

    def test_block_diag_commutes_with_evaluate(self):
        names = ("a", "b")
        x = {word_from_string("aB", names): 2}
        y = {word_from_string("ba", names): 1, IDENTITY_WORD: 1}
        ma = GroupAlgebraMatrix.from_rows(QQ, [[x]])
        mb = GroupAlgebraMatrix.from_rows(QQ, [[y]])
        rep = sanov_rep()
        lhs = dense(evaluate(ga_block_diag(ma, mb), rep, (2,)))
        rhs = block_diag([dense(evaluate(ma, rep, (2,))), dense(evaluate(mb, rep, (2,)))])
        assert lhs == rhs

    def test_field_mismatch_rejected(self):
        qw = NumberField((F(1), F(-1), F(1)))
        x = GroupAlgebraMatrix.single(qw, {IDENTITY_WORD: 1})
        with pytest.raises(FieldMismatchError):
            evaluate(x, sanov_rep(), (1,))

    def test_unknown_generator_rejected(self):
        x = GroupAlgebraMatrix.single(QQ, {Word(((3, 1),)): 1})
        with pytest.raises(StructuralError):
            evaluate(x, sanov_rep(), (1,))

    @given(letters, letters, st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_additive_and_homogeneous(self, raw1, raw2, c1, c2):
        rep = RepAssignment.build(GroupPresentation(("a", "b", "c"), ()), [
            [ScaledMatrix.from_rows(QQ, [[1, 2], [0, 1]])],
            [ScaledMatrix.from_rows(QQ, [[1, 0], [2, 1]])],
            [ScaledMatrix.from_rows(QQ, [[2, 0], [0, F(1, 2)]])]])
        x = sum_terms(QQ, [(free_reduce(raw1), c1)])
        y = sum_terms(QQ, [(free_reduce(raw2), c2)])

        def image(cell):
            return dense(evaluate(GroupAlgebraMatrix.single(QQ, cell), rep, (2,)))

        assert image(ga_sum(QQ, x, y)) == image(x) + image(y)
