"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines,
or plain `pytest -v` to read the outcome off the test names.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from l2approx.census import builtin_entry
from l2approx.exactalg import NumberField, QQ, ScaledMatrix
from l2approx.foxhomology import homology_dims, invariants_dim
from l2approx.groupcore import (GroupAlgebraMatrix, GroupPresentation, IDENTITY_WORD,
                                free_reduce, sum_terms, word_from_string)
from l2approx.limitlab import betti_estimate, weight_schedule
from l2approx.padicharris import harris_sequence, unipotent_element_images
from l2approx.rankfun import (FiniteQuotientMap, PermutationOps, characters_of_cyclic,
                              cyclic_generator, cyclotomic_field, finite_vn_rank, luck_rank,
                              subgroup_closure, sylvester_rank, twisted_finite_rank)

from oracles import (QuaternionOps, companion_rows, dense, ga_block_diag, ga_block_triangular,
                     ga_matmul, gauss_rank)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL - {desc}")
        raise
    print(f"[criterion {num:02d}] PASS - {desc}")


def random_element(rng, field, n_gens, word_len=4, span=2, terms=3):
    def term():
        raw = [(rng.randrange(n_gens), rng.choice((1, -1)))
               for _ in range(rng.randint(0, word_len))]
        return free_reduce(raw), rng.randint(-span, span)

    return sum_terms(field, [term() for _ in range(rng.randint(1, terms))])


def random_ga_matrix(rng, field, n_gens, rows, cols):
    return GroupAlgebraMatrix.from_rows(field, [
        [random_element(rng, field, n_gens) for _ in range(cols)] for _ in range(rows)])


def test_criterion_01_figure_eight_pipeline():
    with criterion(1, "figure-eight dims (0,1,1), error 1/(lambda+1), exponent -1 +- 0.1, <= 60 s"):
        t0 = time.monotonic()
        fig8 = builtin_entry("figure-eight")
        lams = list(range(2, 21, 2))
        for lam in lams:
            rpt = homology_dims(fig8.presentation, fig8.rep, (lam,))
            assert rpt.dims() == (0, 1, 1), f"lambda={lam}: {rpt.dims()}"
            assert F(rpt.h1, rpt.d) - 0 == F(1, lam + 1)
        sched = weight_schedule((1,), lams, rep=fig8.rep)
        est = betti_estimate(fig8.presentation, fig8.rep, sched, 1, target=F(0))
        assert [pt.error for pt in est.points] == [F(1, l + 1) for l in lams]
        assert abs(est.fitted_exponent - (-1.0)) <= 0.1
        elapsed = time.monotonic() - t0
        assert elapsed <= 60, f"figure-eight pipeline took {elapsed:.1f} s"


def test_criterion_02_remark_parity_reproduction():
    with criterion(2, "C2 invariants ratios 1/0 by parity; twisted ranks 0 and 1"):
        c2 = builtin_entry("c2-central")
        for lam in (2, 4, 6):
            assert F(invariants_dim(c2.rep, (lam,)), lam + 1) == 1
        for lam in (3, 5, 7):
            assert F(invariants_dim(c2.rep, (lam,)), lam + 1) == 0
        ops = PermutationOps(2)
        g = cyclic_generator(2)
        elements = [ops.identity, g]
        a = GroupAlgebraMatrix.single(QQ, {g: 1, ops.identity: -1})
        assert twisted_finite_rank(a, ops, elements, elements, {ops.identity: 1, g: 1}) == 0
        assert twisted_finite_rank(a, ops, elements, elements, {ops.identity: 1, g: -1}) == 1


def test_criterion_03_free_group_target():
    with criterion(3, "Sanov F2 degree-1 ratio exactly 1 = b1 for lambda 1..12"):
        sanov = builtin_entry("sanov-f2")
        sched = weight_schedule((1,), range(1, 13))
        est = betti_estimate(sanov.presentation, sanov.rep, sched, 1, target=F(1))
        assert len(est.points) == 12
        assert all(pt.value == 1 and pt.error == 0 for pt in est.points)
        assert est.exact


def test_criterion_04_amenable_vanishing():
    with criterion(4, "Z entry degree-1 error exactly 1/(lambda+1) toward 0 for lambda 1..20"):
        z = builtin_entry("z-unipotent")
        sched = weight_schedule((1,), range(1, 21))
        est = betti_estimate(z.presentation, z.rep, sched, 1, target=F(0))
        assert [pt.error for pt in est.points] == [F(1, l + 1) for l in range(1, 21)]


def test_criterion_05_sylvester_axiom_suite():
    with criterion(5, "SMat1-4 exact on >= 200 sylvester and >= 100 finite/luck cases"):
        sanov = builtin_entry("sanov-f2")
        rng = random.Random(20260809)
        matrices_seen = 0
        case = 0
        while matrices_seen < 200:
            case += 1
            lam = (rng.randint(0, 4),)
            r, s, t = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
            a = random_ga_matrix(rng, QQ, 2, r, s)
            b = random_ga_matrix(rng, QQ, 2, s, t)
            c = random_ga_matrix(rng, QQ, 2, r, t)
            rka = sylvester_rank(a, sanov.rep, lam)
            rkb = sylvester_rank(b, sanov.rep, lam)
            assert sylvester_rank(ga_matmul(a, b), sanov.rep, lam) <= min(rka, rkb)
            assert sylvester_rank(ga_block_diag(a, b), sanov.rep, lam) == rka + rkb
            assert sylvester_rank(ga_block_triangular(a, c, b), sanov.rep, lam) >= rka + rkb
            matrices_seen += 3
        one = GroupAlgebraMatrix.single(QQ, {IDENTITY_WORD: 1})
        zero = GroupAlgebraMatrix.single(QQ, {})
        assert sylvester_rank(one, sanov.rep, (2,)) == 1
        assert sylvester_rank(zero, sanov.rep, (2,)) == 0

        # finite von Neumann rank over Z/6 via its regular permutation action
        ops = PermutationOps(6)
        gen = cyclic_generator(6)
        elements = subgroup_closure(ops, [gen], 10)

        def push(m):
            q = FiniteQuotientMap.build(GroupPresentation(("a", "b"), ()), ops,
                                        [gen, ops.mul(gen, gen)], order=6, name="Z/6")
            return q

        q6 = push(None)
        fin_cases = 0
        while fin_cases < 100:
            r, s, t = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
            a = random_ga_matrix(rng, QQ, 2, r, s)
            b = random_ga_matrix(rng, QQ, 2, s, t)
            c = random_ga_matrix(rng, QQ, 2, r, t)
            fa, fb = q6.push(a), q6.push(b)
            rka = finite_vn_rank(fa, ops)
            rkb = finite_vn_rank(fb, ops)
            assert finite_vn_rank(q6.push(ga_matmul(a, b)), ops) <= min(rka, rkb)
            assert finite_vn_rank(q6.push(ga_block_diag(a, b)), ops) == rka + rkb
            assert finite_vn_rank(q6.push(ga_block_triangular(a, c, b)), ops) >= rka + rkb
            fin_cases += 3

        luck_cases = 0
        while luck_cases < 100:
            r, s, t = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
            a = random_ga_matrix(rng, QQ, 2, r, s)
            b = random_ga_matrix(rng, QQ, 2, s, t)
            c = random_ga_matrix(rng, QQ, 2, r, t)
            rka, rkb = luck_rank(a, q6), luck_rank(b, q6)
            assert luck_rank(ga_matmul(a, b), q6) <= min(rka, rkb)
            assert luck_rank(ga_block_diag(a, b), q6) == rka + rkb
            assert luck_rank(ga_block_triangular(a, c, b), q6) >= rka + rkb
            luck_cases += 3


def test_criterion_06_averaging_identity():
    with criterion(6, "averaging over central characters on C2, C4, Q8, >= 20 elements each"):
        rng = random.Random(1123)
        cases = []
        for n in (2, 4):
            ops = PermutationOps(n)
            elements = subgroup_closure(ops, [cyclic_generator(n)], 10)
            cases.append((ops, elements, elements, n))
        qops = QuaternionOps()
        cases.append((qops, qops.all_elements(), qops.center(), 2))
        for ops, elements, center, zorder in cases:
            field, zeta = cyclotomic_field(zorder)
            chars = characters_of_cyclic(ops, center, zeta)
            for _ in range(20):
                cell = {}
                for _ in range(rng.randint(1, 5)):
                    g = rng.choice(elements)
                    cell[g] = cell.get(g, 0) + rng.randint(-3, 3)
                a = GroupAlgebraMatrix.single(field, cell)
                full = finite_vn_rank(a, ops, elements=elements)
                avg = sum(twisted_finite_rank(a, ops, elements, center, chi)
                          for chi in chars) / len(center)
                assert avg == full


def test_criterion_07_luck_chain():
    with criterion(7, "Z with quotients Z/2^j, j=1..6: rank of t-1 is 1 - 2^-j exactly"):
        pres = GroupPresentation(("t",), ())
        t = word_from_string("t", ("t",))
        a = GroupAlgebraMatrix.single(QQ, {t: 1, IDENTITY_WORD: -1})
        chain = [FiniteQuotientMap.build(pres, PermutationOps(2 ** j),
                                         [cyclic_generator(2 ** j)], order=2 ** j,
                                         name=f"Z/{2 ** j}")
                 for j in range(1, 7)]
        values = [luck_rank(a, q) for q in chain]
        assert values == [1 - F(1, 2 ** j) for j in range(1, 7)]
        # consistent with the approximation limit rk(t - 1) = 1
        assert all(abs(v - 1) == F(1, 2 ** j) for j, v in enumerate(values, start=1))


def test_criterion_08_harris_exponent():
    with criterion(8, "harris p=3 levels 1..4: ranks 0, 2/3, 8/9, 26/27; error = index^(-1/3); <= 5 min"):
        t0 = time.monotonic()
        pres = GroupPresentation(("t",), ())
        t = word_from_string("t", ("t",))
        a = GroupAlgebraMatrix.single(QQ, {t: 1, IDENTITY_WORD: -1})
        rows = harris_sequence(a, pres, unipotent_element_images(3), 3,
                               [1, 2, 3, 4], target=F(1))
        assert [r.value for r in rows] == [0, F(2, 3), F(8, 9), F(26, 27)]
        for r in rows:
            assert r.index == 3 ** (3 * (r.level - 1))
            # observed error instantiates the index^(1 - 1/d) bound with d = 3:
            # error = envelope = index^(-1/3) exactly at every level
            assert r.error == r.envelope
            assert r.envelope ** 3 * r.index == 1
        elapsed = time.monotonic() - t0
        assert elapsed <= 300, f"harris level-4 run took {elapsed:.1f} s"


def test_criterion_09_structural_identities():
    with criterion(9, "J*D = 0 and Euler identity everywhere; field independence on >= 20 matrices"):
        from l2approx.foxhomology import presentation_complex
        entries = [builtin_entry(n) for n in
                   ("figure-eight", "whitehead", "c2-central", "z2-lattice")]
        for entry in entries:
            g = entry.presentation.num_generators
            r = entry.presentation.num_relators
            for lam in ((2,), (4,), (6,)):
                J, D, _, _ = presentation_complex(entry.presentation, entry.rep, lam)
                assert (dense(J) * dense(D)).is_zero()
                rpt = homology_dims(entry.presentation, entry.rep, lam)
                assert rpt.h0 - rpt.h1 + rpt.h2 == rpt.d * (1 - g + r)
        # field independence through the companion embedding
        rng = random.Random(31415)
        fields = [NumberField((F(1), F(-1), F(1))), NumberField((F(1), F(0), F(1)))]
        checked = 0
        while checked < 20:
            field = fields[checked % 2]
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            m = ScaledMatrix.from_rows(field, [
                [field.element([F(rng.randint(-3, 3)) for _ in range(2)])
                 for _ in range(nc)]
                for _ in range(nr)])
            assert gauss_rank(companion_rows(dense(m))) == field.degree * m.rank()
            checked += 1


def test_criterion_10_whitehead_link():
    with criterion(10, "whitehead dims (0,2,2) for even lambda <= 10 (validator-passing data)"):
        wh = builtin_entry("whitehead")  # load_entry validation is the gate
        for lam in (2, 4, 6, 8, 10):
            rpt = homology_dims(wh.presentation, wh.rep, (lam,))
            assert rpt.dims() == (0, 2, 2), f"lambda={lam}: {rpt.dims()}"
            assert rpt.dims() == wh.expected_dims((lam,))
