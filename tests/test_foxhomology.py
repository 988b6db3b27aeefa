import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2approx.exactalg import QQ, ScaledMatrix
from l2approx.foxhomology import (boundary_stack, fox_derivative, homology_dims,
                                  invariants_dim, presentation_complex)
from l2approx.groupcore import (GroupAlgebraElement, GroupPresentation, IDENTITY_WORD,
                                Word, free_reduce, word_from_string)
from l2approx.repweights import ParityError, RepAssignment

from oracles import check_fox_identity, coinvariants_dim, dense

letters = st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                             st.sampled_from((1, -1))), max_size=10)


def ga(terms):
    return GroupAlgebraElement.from_terms(QQ, terms.items())


class TestFoxDerivative:
    def test_axiom_own_generator(self):
        w = word_from_string("ab", ("a", "b"))
        assert fox_derivative(w, 0, QQ) == ga({IDENTITY_WORD: 1})

    def test_axiom_prefix(self):
        w = word_from_string("ab", ("a", "b"))
        assert fox_derivative(w, 1, QQ) == ga({word_from_string("a", ("a", "b")): 1})

    def test_axiom_inverse(self):
        w = word_from_string("A", ("a",))
        assert fox_derivative(w, 0, QQ) == ga({w: -1})

    def test_other_generator_vanishes(self):
        w = word_from_string("a", ("a", "b"))
        assert not fox_derivative(w, 1, QQ)

    @given(letters)
    @settings(max_examples=120, deadline=None)
    def test_fundamental_identity_on_random_words(self, raw):
        w = free_reduce(raw)
        acc = GroupAlgebraElement.zero(QQ)
        for j in range(3):
            xj = ga({Word(((j, 1),)): 1, IDENTITY_WORD: -1})
            acc = acc + fox_derivative(w, j, QQ) * xj
        assert acc == ga({w: 1}) - ga({IDENTITY_WORD: 1})

    def test_fundamental_identity_on_census_relators(self, fig8, whitehead, c2, z2):
        for entry in (fig8, whitehead, c2, z2):
            check_fox_identity(entry.presentation, entry.field)


class TestPresentationComplex:
    def test_free_group_has_empty_jacobian(self, sanov):
        J, D, _, _ = presentation_complex(sanov.presentation, sanov.rep, (2,))
        assert (J.rows, J.cols) == (0, 6)
        assert (D.rows, D.cols) == (6, 3)

    def test_trivial_images_give_zero_boundary(self):
        pres = GroupPresentation(("a", "b"), (word_from_string("aa", ("a", "b")),))
        ident = ScaledMatrix.from_rows(QQ, [[1, 0], [0, 1]])
        rep = RepAssignment.build(pres, [(ident,), (ident,)])
        J, D, _, _ = presentation_complex(pres, rep, (2,))
        assert dense(D).is_zero()

    def test_figure_eight_shapes_and_composite(self, fig8):
        J, D, _, _ = presentation_complex(fig8.presentation, fig8.rep, (2,))
        assert (J.rows, J.cols) == (3, 6)
        assert (D.rows, D.cols) == (6, 3)
        assert (dense(J) * dense(D)).is_zero()

    def test_composite_vanishes_on_all_entries(self, fig8, whitehead, c2, z2):
        for entry in (fig8, whitehead, c2, z2):
            for lam in ((2,), (4,)):
                J, D, _, _ = presentation_complex(entry.presentation, entry.rep, lam)
                assert (dense(J) * dense(D)).is_zero()

    def test_boundary_stack_shape(self, sanov):
        b = boundary_stack(sanov.presentation, sanov.field)
        assert (b.rows, b.cols) == (2, 1)


class TestHomologyDims:
    def test_figure_eight_paper_values(self, fig8):
        rpt = homology_dims(fig8.presentation, fig8.rep, (2,))
        assert rpt.dims() == (0, 1, 1)

    def test_trivial_group(self):
        pres = GroupPresentation((), ())
        rep = RepAssignment.build(pres, [], n=1, field=QQ)
        rpt = homology_dims(pres, rep, (2,))
        assert rpt.dims() == (3, 0, 0)

    def test_sanov_lambda_two(self, sanov):
        # invariants vanish, so h1 = 2d - d = d = 3
        rpt = homology_dims(sanov.presentation, sanov.rep, (2,))
        assert rpt.dims() == (0, 3, 0)

    def test_euler_identity_across_entries(self, fig8, whitehead, sanov, z_entry, z2):
        for entry in (fig8, whitehead, sanov, z_entry, z2):
            g = entry.presentation.num_generators
            r = entry.presentation.num_relators
            for lam in ((2,), (4,), (6,)):
                rpt = homology_dims(entry.presentation, entry.rep, lam)
                assert rpt.h0 - rpt.h1 + rpt.h2 == rpt.d * (1 - g + r)

    def test_report_carries_both_ranks(self, fig8):
        rpt = homology_dims(fig8.presentation, fig8.rep, (4,))
        assert rpt.rank_d == 5 and rpt.rank_j == 4
        assert rpt.d == 5

    def test_parity_rejection_with_factor_index(self, c2):
        with pytest.raises(ParityError) as exc:
            homology_dims(c2.presentation, c2.rep, (5,))
        assert exc.value.factor == 0

    def test_whitehead_paper_values(self, whitehead):
        rpt = homology_dims(whitehead.presentation, whitehead.rep, (2,))
        assert rpt.dims() == (0, 2, 2)


class TestInvariants:
    def test_c2_even_weight_full_invariants(self, c2):
        assert invariants_dim(c2.rep, (2,)) == 3

    def test_c2_odd_weight_no_invariants(self, c2):
        assert invariants_dim(c2.rep, (3,)) == 0

    def test_sanov_standard_rep_no_invariants(self, sanov):
        assert invariants_dim(sanov.rep, (1,)) == 0

    def test_h0_equals_dual_invariants(self, fig8, whitehead, sanov, z_entry, z2, c2):
        # homology-cohomology dimension agreement through the dual action
        for entry in (fig8, whitehead, sanov, z_entry, z2, c2):
            for lam in ((2,), (4,)):
                rpt = homology_dims(entry.presentation, entry.rep, lam)
                assert rpt.h0 == invariants_dim(entry.rep, lam)
                assert rpt.h0 == coinvariants_dim(entry.rep, lam)

    def test_z_unipotent_line_of_invariants(self, z_entry):
        for lam in (1, 2, 3, 4):
            assert invariants_dim(z_entry.rep, (lam,)) == 1
