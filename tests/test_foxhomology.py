import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2approx import foxhomology
from l2approx.census import builtin_catalog, load_entry_text
from l2approx.exactalg import QQ, ScaledMatrix, rank_rows
from l2approx.foxhomology import (boundary_stack, fox_derivative, homology_dims,
                                  invariants_dim, presentation_complex)
from l2approx.groupcore import (GroupPresentation, IDENTITY_WORD, Word, free_reduce, sum_terms,
                                word_from_string)
from l2approx.repweights import ParityError, RepAssignment, weight_dim

from oracles import check_fox_identity, coinvariants_dim, dense, ga_product, ga_sum

letters = st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                             st.sampled_from((1, -1))), max_size=10)


def ga(terms):
    return sum_terms(QQ, terms.items())


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
        acc = {}
        for j in range(3):
            xj = ga({Word(((j, 1),)): 1, IDENTITY_WORD: -1})
            acc = ga_sum(QQ, acc, ga_product(QQ, fox_derivative(w, j, QQ), xj))
        assert acc == ga_sum(QQ, ga({w: 1}), ga({IDENTITY_WORD: -1}))

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


def unreduced_report(entry, lam):
    """(dims, rank J, rank D) from `rank_rows` on the full embedded J and D."""
    _, _, j_rows, d_rows = presentation_complex(entry.presentation, entry.rep, lam)
    degree = entry.rep.field.degree
    rank_j, rank_d = rank_rows(j_rows) // degree, rank_rows(d_rows) // degree
    d, g, r = weight_dim(lam), entry.presentation.num_generators, entry.presentation.num_relators
    return (d - rank_d, g * d - rank_d - rank_j, r * d - rank_j), rank_j, rank_d


def assert_matches_unreduced(entry, lam):
    rpt = homology_dims(entry.presentation, entry.rep, lam)
    assert (rpt.dims(), rpt.rank_j, rpt.rank_d) == unreduced_report(entry, lam)
    return rpt


# figure-eight plus the generator c = ab and the relator cBA
FIG8_PRODUCT_REP = ("field: 1 -1 1\nimage: a 1 : 1 ; 1 ; 0 ; 1\nimage: b 1 : 1 ; 0 ; 0,-1 ; 1\n"
                    "image: c 1 : 1,-1 ; 1 ; 0,-1 ; 1\n")


class TestReducedJacobian:
    """`homology_dims` ranks J without the columns of the last generator's
    block that the checked identity J*D = 0 makes redundant; every case here
    must agree with the ranks of the full J and D."""

    @pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
    def test_census_entries_at_every_admissible_weight(self, entry):
        weights = [(lam,) for lam in range(25) if entry.rep.is_admissible((lam,))]
        assert len(weights) >= 12
        for lam in weights:
            assert_matches_unreduced(entry, lam)

    @pytest.mark.parametrize("lam", [(1, 1), (2, 2), (3, 3), (4, 4), (10, 2)],
                             ids=lambda lam: "x".join(map(str, lam)))
    def test_two_factor_figure_eight(self, fig8_conjugate, lam):
        assert_matches_unreduced(fig8_conjugate, lam)

    @pytest.mark.parametrize("generators", ["a b c", "c a b"], ids=["c-last", "c-first"])
    def test_redundant_generator_last_and_first(self, generators):
        pres = f"name: fig8-ab\ngenerators: {generators}\nrelator: aBAbabABab\nrelator: cBA\n"
        entry = load_entry_text(pres, FIG8_PRODUCT_REP)
        for lam in (2, 3, 4, 8):
            rpt = assert_matches_unreduced(entry, (lam,))
            # c = ab adds one generator and one relator: the same homology
            assert rpt.dims() == ((0, 1, 1) if lam % 2 == 0 else (0, 0, 0))

    def test_c2_central_drops_nothing(self, c2):
        for lam in (0, 2, 4):
            _, _, _, d_rows = presentation_complex(c2.presentation, c2.rep, (lam,))
            # rho(g) - I = 0 at even weight, so the profile is empty
            assert not any(map(any, d_rows))
            assert assert_matches_unreduced(c2, (lam,)).dims() == (lam + 1, 0, 0)

    @pytest.mark.parametrize("entry, lam", [("fig8", (6,)), ("whitehead", (4,)),
                                            ("fig8_conjugate", (2, 2))],
                             ids=["fig8-6", "whitehead-4", "fig8_conjugate-2x2"])
    def test_full_jacobian_is_never_eliminated(self, request, monkeypatch, entry, lam):
        e = request.getfixturevalue(entry)
        n = weight_dim(lam) * e.rep.field.degree
        g, r = e.presentation.num_generators, e.presentation.num_relators
        _, _, _, d_rows = presentation_complex(e.presentation, e.rep, lam)
        dropped = rank_rows(d_rows[(g - 1) * n:])  # rank of the last block of D
        assert dropped > 0
        calls = []
        for name in ("rank_rows", "pivot_columns", "product_is_zero"):
            def record(*matrices, name=name, original=getattr(foxhomology, name)):
                calls.append((name, len(matrices[0]), len(matrices[0][0])))
                return original(*matrices)
            monkeypatch.setattr(foxhomology, name, record)
        homology_dims(e.presentation, e.rep, lam)
        # the J*D check, then D's transpose, then J without `dropped` columns
        assert calls == [("product_is_zero", r * n, g * n), ("pivot_columns", n, g * n),
                         ("rank_rows", r * n, g * n - dropped)]
