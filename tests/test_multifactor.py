"""Two-factor (SL2 x SL2) pipeline checks through the census file format.

Independent oracle: for a single generator mapping to regular unipotents in
both factors, the weight module restricted to it is a tensor of two full
Jordan blocks, whose fixed space has dimension min(lambda) + 1 (the number of
Jordan blocks of J_a tensor J_b is min(a, b)).  Along the diagonal direction
this makes the normalized degree-1 series exactly 1/(min lambda + 1).
"""

from fractions import Fraction as F

import pytest

from l2approx.census import load_entry_text
from l2approx.foxhomology import homology_dims, invariants_dim
from l2approx.limitlab import betti_estimate, weight_schedule

PRES = "name: z-two-factor\ngenerators: t\naspherical: true\ntargets: 0 0 0\n"
REP = ("field: 0 1\nfactors: 2\n"
       "image: t 1 : 1 ; 1 ; 0 ; 1\n"
       "image: t 2 : 1 ; 2 ; 0 ; 1\n")


@pytest.fixture(scope="module")
def two_factor():
    return load_entry_text(PRES, REP)


def test_factor_count_parsed(two_factor):
    assert two_factor.rep.n == 2


@pytest.mark.parametrize("lam", [(1, 1), (2, 2), (2, 4), (5, 2), (3, 6)])
def test_jordan_block_count_oracle(two_factor, lam):
    rpt = homology_dims(two_factor.presentation, two_factor.rep, lam)
    expected_fixed = min(lam) + 1
    assert rpt.h0 == expected_fixed
    assert rpt.h1 == expected_fixed  # one generator: h1 = d - rank = h0
    assert rpt.h2 == 0
    assert invariants_dim(two_factor.rep, lam) == expected_fixed


def test_diagonal_schedule_error_is_reciprocal_min_dimension(two_factor):
    sched = weight_schedule((1, 1), range(1, 9))
    est = betti_estimate(two_factor.presentation, two_factor.rep, sched, 1, target=F(0))
    assert [pt.error for pt in est.points] == [F(1, k + 1) for k in range(1, 9)]
    assert abs(est.fitted_exponent - (-1.0)) <= 0.1


def test_unbalanced_direction_error_still_reciprocal_in_min(two_factor):
    sched = weight_schedule((1, 2), range(1, 7))
    est = betti_estimate(two_factor.presentation, two_factor.rep, sched, 1, target=F(0))
    # min lambda = k, dims (k+1)(2k+1): error = (k+1)/((k+1)(2k+1)) = 1/(2k+1)
    assert [pt.error for pt in est.points] == [F(1, 2 * k + 1) for k in range(1, 7)]
