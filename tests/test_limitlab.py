from fractions import Fraction as F

import pytest

from l2approx.exactalg import StructuralError
from l2approx.limitlab import (betti_estimate, convergence_fit, weight_schedule)

from oracles import loglog_slope_oracle


class TestWeightSchedule:
    def test_single_factor_even_steps(self):
        assert weight_schedule((1,), range(2, 11, 2)) == ((2,), (4,), (6,), (8,), (10,))

    def test_two_factor_direction(self):
        assert weight_schedule((1, 2), range(1, 4)) == ((1, 2), (2, 4), (3, 6))

    def test_empty_after_filtering_is_an_error(self, c2):
        with pytest.raises(ValueError):
            weight_schedule((1,), (1, 3, 5), rep=c2.rep)

    def test_rep_gate_filter(self, c2):
        assert weight_schedule((1,), range(1, 7), rep=c2.rep) == ((2,), (4,), (6,))

    def test_direction_validation(self):
        with pytest.raises(StructuralError):
            weight_schedule((0,), range(1, 5))
        with pytest.raises(StructuralError):
            weight_schedule((1,), (3, 2, 5))


class TestConvergenceFit:
    def test_reciprocal_errors_have_slope_minus_one(self):
        pts = [(2, F(1, 3)), (4, F(1, 5)), (8, F(1, 9)), (16, F(1, 17))]
        rpt = convergence_fit(pts, target=F(0))
        assert abs(rpt.fitted_exponent - (-1.0)) <= 0.1
        oracle = loglog_slope_oracle([3, 5, 9, 17], [F(1, 3), F(1, 5), F(1, 9), F(1, 17)])
        assert abs(rpt.fitted_exponent - oracle) < 1e-9

    def test_constant_with_matching_target_is_exact(self):
        pts = [(k, F(1)) for k in (2, 4, 6, 8)]
        rpt = convergence_fit(pts, target=F(1))
        assert rpt.exact
        assert rpt.fitted_exponent is None
        assert all(pt.error == 0 for pt in rpt.points)

    def test_requires_four_points(self):
        with pytest.raises(ValueError):
            convergence_fit([(2, F(1)), (4, F(1)), (6, F(1))], target=F(1))

    def test_constant_without_target_is_an_error(self):
        with pytest.raises(ValueError):
            convergence_fit([(k, F(2, 7)) for k in (2, 4, 6, 8)])

    def test_no_target_limit_recovers_exact_reciprocal_model(self):
        # values exactly c + a/(min+1) are reproduced exactly
        c, a = F(3, 7), F(5, 2)
        pts = [(m, c + a / (m + 1)) for m in (1, 2, 4, 8, 16)]
        rpt = convergence_fit(pts)
        assert rpt.fitted_limit == c
        assert abs(rpt.fitted_exponent - (-1.0)) < 1e-9

    def test_zero_errors_excluded_from_fit(self):
        pts = [(2, F(1, 3)), (4, F(0)), (8, F(1, 9)), (16, F(1, 17))]
        rpt = convergence_fit(pts, target=F(0))
        assert rpt.points[1].error == 0
        oracle = loglog_slope_oracle([3, 9, 17], [F(1, 3), F(1, 9), F(1, 17)])
        assert abs(rpt.fitted_exponent - oracle) < 1e-9

    def test_summary_contains_exact_fractions(self):
        pts = [(2, F(1, 3)), (4, F(1, 5)), (8, F(1, 9)), (16, F(1, 17))]
        text = convergence_fit(pts, target=F(0)).summary()
        assert "1/3" in text and "1/17" in text


class TestBettiEstimate:
    def test_figure_eight_degree_one(self, fig8):
        sched = weight_schedule((1,), range(2, 13, 2), rep=fig8.rep)
        rpt = betti_estimate(fig8.presentation, fig8.rep, sched, 1, target=F(0))
        assert [pt.error for pt in rpt.points] == [F(1, l + 1) for l in range(2, 13, 2)]
        assert abs(rpt.fitted_exponent - (-1.0)) <= 0.1

    def test_figure_eight_no_target_limit_is_exactly_zero(self, fig8):
        sched = weight_schedule((1,), range(2, 13, 2), rep=fig8.rep)
        rpt = betti_estimate(fig8.presentation, fig8.rep, sched, 1)
        assert rpt.fitted_limit == 0

    def test_sanov_degree_one_exact(self, sanov):
        sched = weight_schedule((1,), range(1, 9))
        rpt = betti_estimate(sanov.presentation, sanov.rep, sched, 1, target=F(1))
        assert rpt.exact

    def test_z_entry_degree_one(self, z_entry):
        sched = weight_schedule((1,), range(1, 9))
        rpt = betti_estimate(z_entry.presentation, z_entry.rep, sched, 1, target=F(0))
        assert [pt.error for pt in rpt.points] == [F(1, l + 1) for l in range(1, 9)]

    def test_degree_zero_vanishes_without_fixed_vectors(self, fig8, sanov):
        for entry in (fig8, sanov):
            sched = weight_schedule((1,), range(2, 9, 2), rep=entry.rep)
            rpt = betti_estimate(entry.presentation, entry.rep, sched, 0, target=F(0))
            assert rpt.exact

    def test_normalized_values_bounded_by_generator_count(self, fig8, sanov, z2):
        from l2approx.foxhomology import homology_dims
        for entry in (fig8, sanov, z2):
            sched = weight_schedule((1,), range(2, 9, 2), rep=entry.rep)
            g = entry.presentation.num_generators
            for lam in sched:
                r = homology_dims(entry.presentation, entry.rep, lam)
                for h in r.dims():
                    assert 0 <= F(h, r.d) <= g

    def test_bad_degree(self, fig8):
        sched = weight_schedule((1,), range(2, 9, 2), rep=fig8.rep)
        with pytest.raises(StructuralError):
            betti_estimate(fig8.presentation, fig8.rep, sched, 3)


class TestHarrisSeriesRate:
    def test_unipotent_series_fits_slope_minus_one(self):
        # feed the congruence-level series through the same fit machinery:
        # the characteristic scale of level i is p^(i-1), passed as scale - 1
        from l2approx.foxhomology import boundary_stack
        from l2approx.groupcore import GroupPresentation
        from l2approx.padicharris import harris_sequence, unipotent_element_images
        from l2approx.exactalg import QQ
        pres = GroupPresentation(("t",), ())
        a = boundary_stack(pres, QQ)
        rows = harris_sequence(a, pres, unipotent_element_images(3), 3,
                               [2, 3, 4, 5], target=F(1))
        pts = [(3 ** (r.level - 1) - 1, r.value) for r in rows]
        rpt = convergence_fit(pts, target=F(1))
        assert abs(rpt.fitted_exponent - (-1.0)) <= 0.1
