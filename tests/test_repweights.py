import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2approx.exactalg import NumberField, QQ, ScaledMatrix, StructuralError
from l2approx.groupcore import (GroupAlgebraMatrix, GroupPresentation, IDENTITY_WORD, Word,
                                free_reduce, word_from_string)
from l2approx.repweights import (ParityError, RepAssignment, central_character_value,
                                 evaluate, sym_power, validate_weight, weight_dim,
                                 weight_rep)

from oracles import DenseMatrix, dense, rational_rows, scaled, sympy_sym_power


def sym(g, lam):
    """sym_power of a dense 2x2 matrix, viewed densely."""
    return dense(sym_power(scaled(g), lam))


def wrep(gs, lam):
    return dense(weight_rep([scaled(g) for g in gs], lam))


def elementary_product(moves):
    """SL2(Q) matrix from a list of (is_upper, amount) shear moves."""
    m = DenseMatrix.identity(QQ, 2)
    for upper, t in moves:
        rows = [[1, t], [0, 1]] if upper else [[1, 0], [t, 1]]
        m = m * DenseMatrix.from_rows(QQ, rows)
    return m


sl2q = st.builds(elementary_product,
                 st.lists(st.tuples(st.booleans(), st.integers(-3, 3)),
                          min_size=0, max_size=4))

QW = NumberField((F(1), F(-1), F(1)))


def rand_sl2_q(rng):
    # random SL2(Q) matrix from a short product of elementary matrices
    m = DenseMatrix.identity(QQ, 2)
    for _ in range(rng.randint(1, 4)):
        t = rng.randint(-3, 3)
        if rng.random() < 0.5:
            e = DenseMatrix.from_rows(QQ, [[1, t], [0, 1]])
        else:
            e = DenseMatrix.from_rows(QQ, [[1, 0], [t, 1]])
        m = m * e
    return m


class TestSymPower:
    def test_lambda_zero_is_trivial(self):
        g = DenseMatrix.from_rows(QQ, [[1, 5], [0, 1]])
        assert sym(g, 0) == DenseMatrix.identity(QQ, 1)

    def test_lambda_one_is_the_matrix_itself(self):
        rng = random.Random(2)
        for _ in range(10):
            g = rand_sl2_q(rng)
            assert sym(g, 1) == g

    def test_unipotent_square(self):
        g = DenseMatrix.from_rows(QQ, [[1, 1], [0, 1]])
        assert rational_rows(sym(g, 2)) == [
            [F(1), F(1), F(1)], [F(0), F(1), F(2)], [F(0), F(0), F(1)]]

    def test_matches_symbolic_expansion_oracle(self):
        rng = random.Random(4)
        for _ in range(8):
            g = rand_sl2_q(rng)
            lam = rng.randint(0, 4)
            got = rational_rows(sym(g, lam))
            expected = sympy_sym_power(rational_rows(g), lam)
            assert got == expected

    def test_multiplicative(self):
        rng = random.Random(6)
        for _ in range(8):
            g, h = rand_sl2_q(rng), rand_sl2_q(rng)
            lam = rng.randint(0, 4)
            assert sym(g * h, lam) == sym(g, lam) * sym(h, lam)

    @given(sl2q, sl2q, st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_multiplicative_property(self, g, h, lam):
        assert sym(g * h, lam) == sym(g, lam) * sym(h, lam)

    def test_multiplicative_over_number_field(self):
        w = QW.gen()
        a = DenseMatrix.from_rows(QW, [[QW.one, w], [QW.zero, QW.one]])
        b = DenseMatrix.from_rows(QW, [[QW.one, QW.zero], [-w, QW.one]])
        for lam in (2, 3, 5):
            assert sym(a * b, lam) == sym(a, lam) * sym(b, lam)

    def test_inverse_property(self):
        rng = random.Random(8)
        for _ in range(6):
            g = rand_sl2_q(rng)
            lam = rng.randint(1, 4)
            ginv = DenseMatrix.from_rows(QQ, [
                [g.entry(1, 1), -g.entry(0, 1)], [-g.entry(1, 0), g.entry(0, 0)]])
            assert sym(g, lam) * sym(ginv, lam) == \
                DenseMatrix.identity(QQ, lam + 1)

    def test_det_not_one_rejected(self):
        # the det = 1 gate runs once, on the integer entries of the 2x2 images
        pres = GroupPresentation(("a",), ())
        w = QW.gen()
        for field, rows in ((QQ, [[2, 0], [0, 2]]), (QQ, [[F(1, 2), 0], [0, F(3, 2)]]),
                            (QW, [[w, 0], [0, w]])):
            with pytest.raises(ValueError, match="determinant is not 1"):
                RepAssignment.build(pres, [[ScaledMatrix.from_rows(field, rows)]])
        good = ScaledMatrix.from_rows(QW, [[w, 0], [0, QW.one - w]])
        assert RepAssignment.build(pres, [[good]]).images == ((good,),)


class TestWeightRep:
    def test_dimension_product(self):
        rng = random.Random(10)
        g1, g2 = rand_sl2_q(rng), rand_sl2_q(rng)
        m = wrep([g1, g2], (2, 3))
        assert (m.rows, m.cols) == (12, 12)
        assert weight_dim((2, 3)) == 12

    def test_identity_images(self):
        ident = DenseMatrix.identity(QQ, 2)
        assert wrep([ident, ident], (1, 2)) == DenseMatrix.identity(QQ, 6)

    def test_single_factor_reduces_to_sym_power(self):
        rng = random.Random(12)
        g = rand_sl2_q(rng)
        assert wrep([g], (3,)) == sym(g, 3)

    def test_multiplicative_across_factors(self):
        rng = random.Random(14)
        g1, g2, h1, h2 = (rand_sl2_q(rng) for _ in range(4))
        lam = (1, 2)
        assert wrep([g1 * h1, g2 * h2], lam) == \
            wrep([g1, g2], lam) * wrep([h1, h2], lam)

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            wrep([DenseMatrix.identity(QQ, 2)], (1, 2))


class TestCentralCharacter:
    def test_minus_identity_odd(self):
        assert central_character_value((3,), (-1,)) == -1

    def test_minus_identity_even(self):
        assert central_character_value((4,), (-1,)) == 1

    def test_all_identity(self):
        assert central_character_value((3, 5), (1, 1)) == 1

    def test_non_sign_rejected(self):
        for bad in (0, 2, -2):
            with pytest.raises(ValueError, match=r"must be \+1 or -1"):
                central_character_value((2, 3), (1, bad))

    def test_scalar_action_of_central_elements(self):
        rng = random.Random(16)
        g1, g2 = rand_sl2_q(rng), rand_sl2_q(rng)
        lam = (2, 3)
        neg = DenseMatrix.from_rows(QQ, [[-1, 0], [0, -1]])
        negated = wrep([neg * g1, neg * g2], lam)
        plain = wrep([g1, g2], lam)
        sign = central_character_value(lam, (-1, -1))
        assert negated == plain.scalar_mul(QQ.from_rational(sign))


class TestRepAssignment:
    def test_projective_relator_sign_and_gate(self):
        # g of order 4 presented as an involution: the relator g*g maps to -Id,
        # a projective action that only exists on even weights
        pres = GroupPresentation(("g",), (word_from_string("gg", ("g",)),))
        j = DenseMatrix.from_rows(QQ, [[0, 1], [-1, 0]])
        rep = RepAssignment.build(pres, [(scaled(j),)])
        assert rep.relator_signs == ((-1,),)
        assert rep.is_admissible((2,))
        with pytest.raises(ParityError) as exc:
            rep.check_admissible((3,))
        assert exc.value.factor == 0
        # weight_rep of the relator is (-1)^lambda * Identity
        for lam in (2, 3):
            img = wrep([j * j], (lam,))
            sign = central_character_value((lam,), (-1,))
            assert img == DenseMatrix.identity(QQ, lam + 1).scalar_mul(
                QQ.from_rational(sign))

    def test_two_factor_sign_cancellation(self):
        # relator maps to -Id in both factors: odd-odd weights are admissible
        # because the signs cancel on the tensor product
        pres = GroupPresentation(("g",), (word_from_string("gg", ("g",)),))
        j = DenseMatrix.from_rows(QQ, [[0, 1], [-1, 0]])
        rep = RepAssignment.build(pres, [(scaled(j), scaled(j))])
        assert rep.relator_signs == ((-1, -1),)
        assert rep.is_admissible((1, 1))
        assert rep.is_admissible((2, 2))
        assert not rep.is_admissible((1, 2))
        with pytest.raises(ParityError) as exc:
            rep.check_admissible((1, 2))
        assert exc.value.factor == 0
        img = wrep([j * j, j * j], (1, 1))
        assert img == DenseMatrix.identity(QQ, 4)

    def test_relator_must_map_to_plus_minus_identity(self):
        pres = GroupPresentation(("a",), (word_from_string("aa", ("a",)),))
        g = ScaledMatrix.from_rows(QQ, [[1, 1], [0, 1]])
        with pytest.raises(ValueError):
            RepAssignment.build(pres, [(g,)])

    def test_det_checked_per_factor(self):
        pres = GroupPresentation(("a",), ())
        bad = ScaledMatrix.from_rows(QQ, [[1, 0], [0, 2]])
        with pytest.raises(ValueError):
            RepAssignment.build(pres, [(bad,)])

    def test_central_involution_gate_is_separable(self, c2):
        # relator g^2 maps to +Id, so the relator gate admits odd weights,
        # while the central gate rejects them
        assert c2.rep.is_admissible((3,), central=False)
        assert not c2.rep.is_admissible((3,))
        assert c2.rep.is_admissible((2,))

    def test_weight_validation(self):
        with pytest.raises(StructuralError):
            validate_weight(())
        with pytest.raises(StructuralError):
            validate_weight((-1,))
        with pytest.raises(StructuralError):
            validate_weight((1.5,))


def two_factor_rep():
    """Free group on a, b in SL2(Q(w)) x SL2(Q(w)), w^2 = w - 1."""
    w, one, zero = QW.gen(), QW.one, QW.zero
    a_images = [ScaledMatrix.from_rows(QW, [[one, w], [zero, one]]),
                ScaledMatrix.from_rows(QW, [[one, one], [zero, one]])]
    b_images = [ScaledMatrix.from_rows(QW, [[one, zero], [w, one]]),
                ScaledMatrix.from_rows(QW, [[w, zero], [zero, one - w]])]
    return RepAssignment.build(GroupPresentation(("a", "b"), ()), [a_images, b_images])


class TestEvaluate:
    def test_inverse_letters_invert_the_weight_images(self):
        rep = two_factor_rep()
        for lam in ((0, 1), (2, 1), (3, 2)):
            images = [dense(weight_rep(tup, lam)) for tup in rep.images]
            ident = DenseMatrix.identity(QW, weight_dim(lam))
            for j, img in enumerate(images):
                inv = dense(evaluate(GroupAlgebraMatrix.single(QW, {Word(((j, -1),)): 1}),
                                     rep, lam))
                assert inv * img == ident
                assert img * inv == ident

    def test_words_match_dense_products_of_weight_images(self):
        rng = random.Random(21)
        rep = two_factor_rep()
        lam = (2, 1)
        images = [dense(weight_rep(tup, lam)) for tup in rep.images]
        inverses = [dense(evaluate(GroupAlgebraMatrix.single(QW, {Word(((j, -1),)): 1}),
                                    rep, lam))
                    for j in range(len(images))]
        for _ in range(15):
            w = free_reduce([(rng.randrange(2), rng.choice((1, -1)))
                             for _ in range(rng.randint(0, 6))])
            product = DenseMatrix.identity(QW, weight_dim(lam))
            for idx, exp in w.letters:
                product = product * (images[idx] if exp == 1 else inverses[idx])
            assert dense(evaluate(GroupAlgebraMatrix.single(QW, {w: 1}), rep, lam)) == product

    def test_matrix_blocks_are_entry_images(self):
        rep = two_factor_rep()
        lam = (1, 1)
        names = ("a", "b")
        x = {word_from_string("aB", names): 2, IDENTITY_WORD: -1}
        y = {word_from_string("ba", names): QW.gen()}
        out = dense(evaluate(GroupAlgebraMatrix.from_rows(QW, [[x, y]]), rep, lam))
        d = weight_dim(lam)
        assert (out.rows, out.cols) == (d, 2 * d)
        for k, cell in enumerate((x, y)):
            block = dense(evaluate(GroupAlgebraMatrix.single(QW, cell), rep, lam))
            assert all(out.entry(i, k * d + j) == block.entry(i, j)
                       for i in range(d) for j in range(d))
