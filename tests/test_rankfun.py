import itertools
import random
from fractions import Fraction as F

import pytest

from l2approx import rankfun
from l2approx.cli import main
from l2approx.exactalg import FieldMismatchError, QQ, ScaledMatrix, StructuralError
from l2approx.groupcore import (GroupAlgebraMatrix, GroupPresentation, IDENTITY_WORD,
                                free_reduce, sum_terms, word_from_string)
from l2approx.rankfun import (AbelianTupleOps, FiniteQuotientMap,
                              MemoryCapError, PermutationOps,
                              characters_of_cyclic, cyclic_generator,
                              cyclic_power_quotient, cyclotomic_field, finite_vn_rank,
                              luck_rank, memory_cap, subgroup_closure,
                              sylvester_rank, twisted_finite_rank)
from l2approx.repweights import ParityError, evaluate

from oracles import (QuaternionOps, companion_rows, dense, dense_regular_rank, ga_block_diag,
                     ga_block_triangular, ga_matmul, ga_matrix_star, gauss_rank)


def random_element(rng, field, names, word_len=4, coeff_span=2, terms=3):
    g = len(names)

    def term():
        raw = [(rng.randrange(g), rng.choice((1, -1))) for _ in range(rng.randint(0, word_len))]
        return free_reduce(raw), rng.randint(-coeff_span, coeff_span)

    return sum_terms(field, [term() for _ in range(rng.randint(1, terms))])


def random_ga_matrix(rng, field, names, rows, cols, **kw):
    return GroupAlgebraMatrix.from_rows(field, [
        [random_element(rng, field, names, **kw) for _ in range(cols)] for _ in range(rows)])


C4 = subgroup_closure(PermutationOps(4), [cyclic_generator(4)], 10)


def random_finite_matrix(rng, field, elements, rows, cols):
    """Random cells of one to three terms over `elements` with unit
    coefficients (+-1, and +-i over Q(i)), which keeps many cells singular;
    with three rows the last is the sum of the first two."""
    units = [field.one, -field.one] + ([field.gen(), -field.gen()] if field.degree > 1 else [])
    cells = [[{rng.choice(elements): rng.choice(units) for _ in range(rng.randint(1, 3))}
              for _ in range(cols)] for _ in range(rows)]
    if rows == 3:
        cells[2] = [{g: x.get(g, field.zero) + y.get(g, field.zero) for g in {**x, **y}}
                    for x, y in zip(cells[0], cells[1])]
    return GroupAlgebraMatrix.from_rows(field, cells)


@pytest.mark.parametrize("build, cell", [
    (ScaledMatrix.from_rows, 1),
    (GroupAlgebraMatrix.from_rows, {}),
    (GroupAlgebraMatrix.from_rows, {(0,): 1})],
    ids=["scaled", "group-algebra", "finite-algebra"])
def test_ragged_rows_are_a_structural_error(build, cell):
    with pytest.raises(StructuralError, match="ragged rows"):
        build(QQ, [[cell, cell], [cell]])


class TestSylvesterRank:
    def test_identity_element_has_rank_one(self, sanov):
        a = GroupAlgebraMatrix.single(QQ, {IDENTITY_WORD: 1})
        assert sylvester_rank(a, sanov.rep, (3,)) == 1

    def test_c2_parity_values(self, c2):
        g = word_from_string("g", ("g",))
        a = GroupAlgebraMatrix.single(QQ, {g: 1, IDENTITY_WORD: -1})
        assert sylvester_rank(a, c2.rep, (2,)) == 0
        assert sylvester_rank(a, c2.rep, (3,)) == 1

    def test_figure_eight_jacobian_rank(self, fig8):
        from l2approx.foxhomology import fox_jacobian
        jac = fox_jacobian(fig8.presentation, fig8.field)
        for lam in (2, 4, 6):
            assert sylvester_rank(jac, fig8.rep, (lam,)) == F(lam, lam + 1)

    def test_relator_sign_gate(self):
        pres = GroupPresentation(("g",), (word_from_string("gg", ("g",)),))
        j = ScaledMatrix.from_rows(QQ, [[0, 1], [-1, 0]])
        from l2approx.repweights import RepAssignment
        rep = RepAssignment.build(pres, [(j,)])
        a = GroupAlgebraMatrix.single(QQ, {IDENTITY_WORD: 1})
        with pytest.raises(ParityError):
            sylvester_rank(a, rep, (3,))

    def test_smat_axioms_randomized(self, sanov):
        rng = random.Random(42)
        names = sanov.presentation.generator_names
        rep = sanov.rep
        for case in range(40):
            lam = (rng.randint(0, 4),)
            r, s, t = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
            a = random_ga_matrix(rng, QQ, names, r, s)
            b = random_ga_matrix(rng, QQ, names, s, t)
            c = random_ga_matrix(rng, QQ, names, r, t)
            rka = sylvester_rank(a, rep, lam)
            rkb = sylvester_rank(b, rep, lam)
            # SMat2
            assert sylvester_rank(ga_matmul(a, b), rep, lam) <= min(rka, rkb)
            # SMat3
            assert sylvester_rank(ga_block_diag(a, b), rep, lam) == rka + rkb
            # SMat4
            assert sylvester_rank(ga_block_triangular(a, c, b), rep, lam) >= rka + rkb
        # SMat1
        zero = GroupAlgebraMatrix.single(QQ, {})
        one = GroupAlgebraMatrix.single(QQ, {IDENTITY_WORD: 1})
        assert sylvester_rank(zero, rep, (2,)) == 0
        assert sylvester_rank(one, rep, (2,)) == 1

    def test_duality_star(self, sanov, fig8):
        rng = random.Random(43)
        for entry in (sanov, fig8):
            names = entry.presentation.generator_names
            for _ in range(10):
                a = random_ga_matrix(rng, entry.field, names, rng.randint(1, 2), rng.randint(1, 2))
                lam = (rng.randint(0, 3),)
                assert sylvester_rank(a, entry.rep, lam) == \
                    sylvester_rank(ga_matrix_star(a), entry.rep, lam)

    def test_field_independence_through_companion(self, fig8):
        # evaluating over Q(w) then embedding to Q rescales the rank by the degree
        rng = random.Random(44)
        names = fig8.presentation.generator_names
        for _ in range(8):
            a = random_ga_matrix(rng, fig8.field, names, 1, 2)
            lam = (rng.randint(0, 3),)
            d = lam[0] + 1
            ranked = sylvester_rank(a, fig8.rep, lam)
            emb = companion_rows(dense(evaluate(a, fig8.rep, lam)))
            assert F(gauss_rank(emb), d * fig8.field.degree) == ranked

    def test_field_mismatch_rejected(self, fig8):
        a = GroupAlgebraMatrix.single(QQ, {IDENTITY_WORD: 1})
        with pytest.raises(StructuralError):
            sylvester_rank(a, fig8.rep, (2,))


class TestFiniteVnRank:
    def test_identity(self):
        ops = PermutationOps(5)
        a = GroupAlgebraMatrix.single(QQ, {ops.identity: 1})
        assert finite_vn_rank(a, ops) == 1

    def test_z2_half(self):
        ops = PermutationOps(2)
        g = cyclic_generator(2)
        a = GroupAlgebraMatrix.single(QQ, {g: 1, ops.identity: -1})
        assert finite_vn_rank(a, ops) == F(1, 2)

    def test_z3_circulant(self):
        ops = PermutationOps(3)
        t = cyclic_generator(3)
        a = GroupAlgebraMatrix.single(QQ, {t: 1, ops.identity: -1})
        assert finite_vn_rank(a, ops) == F(2, 3)

    def test_support_closure_equals_full_materialization(self):
        # two code paths, one answer
        rng = random.Random(45)
        ops = PermutationOps(6)
        t = cyclic_generator(6)
        elements = subgroup_closure(ops, [t], 10)
        for _ in range(12):
            cell = {}
            power = ops.identity
            for _ in range(rng.randint(1, 4)):
                k = rng.randrange(6)
                power = ops.identity
                for _ in range(k):
                    power = ops.mul(t, power)
                cell[power] = cell.get(power, 0) + rng.randint(-2, 2)
            a = GroupAlgebraMatrix.single(QQ, cell)
            assert finite_vn_rank(a, ops) == finite_vn_rank(a, ops, elements=elements)

    def test_smat_axioms_randomized(self):
        rng = random.Random(46)
        ops = PermutationOps(6)
        t = cyclic_generator(6)
        powers = [ops.identity]
        for _ in range(5):
            powers.append(ops.mul(t, powers[-1]))

        def rand_cell():
            cell = {}
            for _ in range(rng.randint(1, 3)):
                g = rng.choice(powers)
                cell[g] = cell.get(g, 0) + rng.randint(-2, 2)
            return cell

        def rand_mat(r, c):
            return GroupAlgebraMatrix.from_rows(QQ, [[rand_cell() for _ in range(c)]
                                                     for _ in range(r)])

        def mat_mul(x, y):
            rows = []
            for i in range(x.rows):
                row = []
                for j in range(y.cols):
                    cell = {}
                    for k in range(x.cols):
                        for g1, c1 in x.entry(i, k).items():
                            for g2, c2 in y.entry(k, j).items():
                                g = ops.mul(g1, g2)
                                cell[g] = cell.get(g, QQ.zero) + c1 * c2
                    row.append({g: c for g, c in cell.items() if c})
                rows.append(row)
            return GroupAlgebraMatrix.from_rows(QQ, rows)

        for _ in range(30):
            r, s, t_ = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
            a, b = rand_mat(r, s), rand_mat(s, t_)
            rka, rkb = finite_vn_rank(a, ops), finite_vn_rank(b, ops)
            assert finite_vn_rank(mat_mul(a, b), ops) <= min(rka, rkb)
            diag = GroupAlgebraMatrix.from_rows(QQ, [
                [a.entry(i, j) for j in range(a.cols)] + [{}] * b.cols for i in range(a.rows)] + [
                [{}] * a.cols + [b.entry(i, j) for j in range(b.cols)] for i in range(b.rows)])
            assert finite_vn_rank(diag, ops) == rka + rkb
            c = rand_mat(r, t_)
            tri = GroupAlgebraMatrix.from_rows(QQ, [
                [a.entry(i, j) for j in range(a.cols)] + [c.entry(i, j) for j in range(c.cols)]
                for i in range(a.rows)] + [
                [{}] * a.cols + [b.entry(i, j) for j in range(b.cols)] for i in range(b.rows)])
            assert finite_vn_rank(tri, ops) >= rka + rkb

    @pytest.mark.parametrize("ops, elements", [
        (PermutationOps(3), list(itertools.permutations(range(3)))),
        (AbelianTupleOps((4, 4)), list(itertools.product(range(4), repeat=2)))],
        ids=["S3", "Z4xZ4"])
    def test_matches_dense_regular_representation(self, ops, elements):
        rng = random.Random(50)
        for rows, cols in ((1, 1), (2, 3), (3, 2), (3, 1)):
            a = random_finite_matrix(rng, QQ, elements, rows, cols)
            expected = dense_regular_rank(a, ops, elements)
            assert finite_vn_rank(a, ops) == expected
            assert finite_vn_rank(a, ops, elements=elements) == expected

    def test_memory_cap(self, monkeypatch):
        ops = PermutationOps(64)
        g = cyclic_generator(64)
        a = GroupAlgebraMatrix.single(QQ, {g: 1})
        monkeypatch.setenv("L2APPROX_MEMORY_CAP", "32")
        with pytest.raises(MemoryCapError):
            finite_vn_rank(a, ops)

    def test_memory_cap_guards_the_twisted_path_too(self, monkeypatch):
        # t - 1 over C8: |Q| * max(r, s) = 8 on both entry points
        ops = PermutationOps(8)
        t = cyclic_generator(8)
        elements = subgroup_closure(ops, [t], 10)
        a = GroupAlgebraMatrix.single(QQ, {t: 1, ops.identity: -1})
        chi = {ops.identity: 1}
        assert twisted_finite_rank(a, ops, elements, [ops.identity], chi) == F(7, 8)
        monkeypatch.setenv("L2APPROX_MEMORY_CAP", "1")
        for rank in (lambda: finite_vn_rank(a, ops, elements=elements),
                     lambda: twisted_finite_rank(a, ops, elements, [ops.identity], chi)):
            with pytest.raises(MemoryCapError,
                               match=r"\|Q\| \* max\(r, s\) = 8 exceeds the cap \(1\)"):
                rank()

    def test_memory_cap_from_environment(self, monkeypatch):
        monkeypatch.setenv("L2APPROX_MEMORY_CAP", "96")
        assert memory_cap() == 96
        monkeypatch.setenv("L2APPROX_MEMORY_CAP", "abc")
        with pytest.raises(ValueError, match="L2APPROX_MEMORY_CAP must be an integer, got 'abc'"):
            memory_cap()
        for value in ("0", "-5"):
            monkeypatch.setenv("L2APPROX_MEMORY_CAP", value)
            with pytest.raises(ValueError,
                               match=f"L2APPROX_MEMORY_CAP must be positive, got '{value}'"):
                memory_cap()


class TestWedderburnRank:
    """`finite_vn_rank` over `AbelianTupleOps` sums one block per cyclic
    subgroup of the dual group; `elements=` materializes the full regular
    representation, the reference."""

    MODULI = [(2,), (6,), (12,), (4, 4), (2, 6), (3, 3, 2), (5, 10), (8, 4)]
    SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (2, 3), (3, 2)]

    @pytest.mark.parametrize("field", [QQ, cyclotomic_field(6)[0]], ids=["Q", "Q(w)"])
    def test_matches_full_materialization(self, field):
        # K = Q(w) meets Q(zeta_k) in Q(w) itself for k = 3, 6, 12; the
        # coefficients include non-units and fractions, and cells may be empty
        rng = random.Random(52)
        gen = field.gen() if field.degree > 1 else field.from_rational(F(1, 2))
        coeffs = [field.one, -field.one, field.from_rational(2), gen, gen + field.one]
        for moduli in self.MODULI:
            ops = AbelianTupleOps(moduli)
            elements = list(itertools.product(*map(range, moduli)))
            for rows, cols in self.SHAPES:
                zero = GroupAlgebraMatrix.from_rows(field, [[{}] * cols] * rows)
                assert finite_vn_rank(zero, ops) == 0
                for _ in range(2):
                    a = GroupAlgebraMatrix.from_rows(field, [
                        [{rng.choice(elements): rng.choice(coeffs)
                          for _ in range(rng.randint(0, 3))} for _ in range(cols)]
                        for _ in range(rows)])
                    assert finite_vn_rank(a, ops) == finite_vn_rank(a, ops, elements=elements)

    def test_builds_no_regular_representation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the abelian path must not materialize the regular module")

        monkeypatch.setattr(rankfun, "_regular_rank", refuse)
        monkeypatch.setattr(rankfun, "subgroup_closure", refuse)
        ops = AbelianTupleOps((4, 4))
        a = GroupAlgebraMatrix.from_rows(QQ, [[{(1, 0): 1, (0, 0): -1}],
                                               [{(0, 1): 1, (0, 0): -1}]])
        assert finite_vn_rank(a, ops) == F(15, 16)

    def test_block_over_the_cap_is_refused_before_any_block(self, monkeypatch):
        monkeypatch.setenv("L2APPROX_MEMORY_CAP", "8")
        a = GroupAlgebraMatrix.single(QQ, {(1,): 1, (0,): -1})
        # phi(16) * 1 = 8 fits, phi(32) = 16 does not; nor does phi(16) * 2
        assert finite_vn_rank(a, AbelianTupleOps((16,))) == F(15, 16)
        monkeypatch.setattr(rankfun, "_root_powers", None)
        with pytest.raises(MemoryCapError,
                           match=r"phi\(32\) \* max\(r, s\) = 16 exceeds the cap \(8\)"):
            finite_vn_rank(a, AbelianTupleOps((32,)))
        tall = GroupAlgebraMatrix.from_rows(QQ, [[{(1,): 1}], [{(0,): 1}]])
        with pytest.raises(MemoryCapError,
                           match=r"phi\(16\) \* max\(r, s\) = 16 exceeds the cap \(8\)"):
            finite_vn_rank(tall, AbelianTupleOps((16,)))

    def test_group_over_the_cap_squared_is_refused(self, monkeypatch):
        monkeypatch.setenv("L2APPROX_MEMORY_CAP", "4")
        a = GroupAlgebraMatrix.single(QQ, {(1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 0): -1})
        assert finite_vn_rank(a, AbelianTupleOps((2, 2, 2, 2))) == F(1, 2)
        monkeypatch.setattr(rankfun, "_root_powers", None)
        with pytest.raises(MemoryCapError, match=r"\|Q\| = 32 exceeds the cap squared \(16\)"):
            finite_vn_rank(a, AbelianTupleOps((2, 2, 2, 2, 2)))

    def test_cli_z2_lattice_at_64_fits_the_default_cap(self, tmp_path, monkeypatch):
        monkeypatch.delenv("L2APPROX_MEMORY_CAP", raising=False)
        out = tmp_path / "luck.csv"
        assert main(["--mode", "luck", "--entry", "z2-lattice", "--quotients", "32,64",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(r[2], F(int(r[5]), int(r[6]))) for r in rows] == \
            [("32", 1 - F(1, 32 ** 2)), ("64", 1 - F(1, 64 ** 2))]


class TestTwistedRank:
    def test_remark_parity_values(self):
        ops = PermutationOps(2)
        g = cyclic_generator(2)
        elements = [ops.identity, g]
        a = GroupAlgebraMatrix.single(QQ, {g: 1, ops.identity: -1})
        trivial = {ops.identity: 1, g: 1}
        signchar = {ops.identity: 1, g: -1}
        assert twisted_finite_rank(a, ops, elements, elements, trivial) == 0
        assert twisted_finite_rank(a, ops, elements, elements, signchar) == 1

    def test_trivial_center_degenerates_to_vn_rank(self):
        rng = random.Random(47)
        ops = PermutationOps(4)
        t = cyclic_generator(4)
        elements = subgroup_closure(ops, [t], 10)
        for _ in range(10):
            cell = {}
            for _ in range(3):
                k = rng.randrange(4)
                e = ops.identity
                for _ in range(k):
                    e = ops.mul(t, e)
                cell[e] = cell.get(e, 0) + rng.randint(-2, 2)
            a = GroupAlgebraMatrix.single(QQ, cell)
            chi = {ops.identity: 1}
            assert twisted_finite_rank(a, ops, elements, [ops.identity], chi) == \
                finite_vn_rank(a, ops, elements=elements)

    def test_averaging_identity_c2_c4_q8(self):
        rng = random.Random(48)
        # C2 and C4 as permutation groups, Q8 with quaternion ops
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
            assert len(chars) == zorder
            for _ in range(8):
                cell = {}
                for _ in range(rng.randint(1, 4)):
                    g = rng.choice(elements)
                    cell[g] = cell.get(g, 0) + rng.randint(-2, 2)
                a = GroupAlgebraMatrix.single(field, cell)
                full = finite_vn_rank(a, ops, elements=elements)
                avg = sum(twisted_finite_rank(a, ops, elements, center, chi)
                          for chi in chars) / zorder
                assert avg == full

    @pytest.mark.parametrize("ops, elements, center", [
        (PermutationOps(4), C4, C4),
        (AbelianTupleOps((4, 2)), list(itertools.product(range(4), range(2))),
         [(k, 0) for k in range(4)]),
        (QuaternionOps(), QuaternionOps().all_elements(), QuaternionOps().center())],
        ids=["C4", "C4xC2", "Q8"])
    def test_q_i_characters_match_dense_idempotent_projection(self, ops, elements, center):
        field, zeta = cyclotomic_field(4)
        # a primitive |Z|-th root of unity in Q(i): i for |Z| = 4, -1 for Q8's center
        chars = characters_of_cyclic(ops, center, zeta if len(center) == 4 else -field.one)
        rng = random.Random(51)
        for rows, cols in ((1, 1), (1, 1), (1, 2), (2, 2), (3, 2)):
            a = random_finite_matrix(rng, field, elements, rows, cols)
            for chi in chars:
                assert twisted_finite_rank(a, ops, elements, center, chi) == \
                    dense_regular_rank(a, ops, elements, center, chi)

    @pytest.mark.parametrize("elements", [
        [(0, 1, 2), (1, 0, 2)],  # the support element (1, 2, 0) is not listed
        [(0, 1, 2), (1, 2, 0)],  # it is, but its square is not
    ], ids=["support", "closure"])
    def test_support_escaping_the_elements_is_a_structural_error(self, elements):
        ops = PermutationOps(3)
        a = GroupAlgebraMatrix.single(QQ, {(1, 2, 0): 1})
        with pytest.raises(StructuralError, match="escapes the listed elements"):
            twisted_finite_rank(a, ops, elements, [ops.identity], {ops.identity: 1})
        with pytest.raises(StructuralError, match="escapes the listed elements"):
            finite_vn_rank(a, ops, elements=elements)

    def test_center_not_tiling_the_list_is_refused_for_a_zero_matrix(self):
        # {1, t, t^2} is not a union of cosets of Z = {1, t^2}; the zero matrix
        # has no support, so only the tiling check can see it
        ops = PermutationOps(4)
        zero = GroupAlgebraMatrix.single(QQ, {})
        center = [C4[0], C4[2]]
        with pytest.raises(StructuralError, match="does not evenly tile the element list"):
            twisted_finite_rank(zero, ops, C4[:3], center, {z: 1 for z in center})
        with pytest.raises(StructuralError):
            finite_vn_rank(zero, ops, elements=C4 + C4[:1])

    def test_non_central_subgroup_rejected(self):
        qops = QuaternionOps()
        els = qops.all_elements()
        a = GroupAlgebraMatrix.single(QQ, {qops.identity: 1})
        not_central = [qops.identity, (-1, 0), (1, 1), (-1, 1)]  # <i> is not central
        with pytest.raises(ValueError):
            twisted_finite_rank(a, qops, els, not_central, {z: 1 for z in not_central})

    def test_character_over_another_field_rejected(self):
        ops = PermutationOps(2)
        elements = subgroup_closure(ops, [cyclic_generator(2)], 10)
        field, zeta = cyclotomic_field(4)
        a = GroupAlgebraMatrix.single(QQ, {ops.identity: 1})
        chi = {elements[0]: field.one, elements[1]: -field.one}
        with pytest.raises(FieldMismatchError):
            twisted_finite_rank(a, ops, elements, elements, chi)

    def test_non_cyclic_center_rejected(self):
        ops = AbelianTupleOps((2, 2))
        els = [(0, 0), (0, 1), (1, 0), (1, 1)]
        with pytest.raises(StructuralError):
            characters_of_cyclic(ops, els, QQ.from_rational(-1))


class TestLuckRank:
    def make_z(self):
        pres = GroupPresentation(("t",), ())
        t = word_from_string("t", ("t",))
        a = GroupAlgebraMatrix.single(QQ, {t: 1, IDENTITY_WORD: -1})
        return pres, a

    def test_cyclic_quotients(self):
        pres, a = self.make_z()
        for n in (2, 3, 5, 8):
            q = FiniteQuotientMap.build(pres, PermutationOps(n), [cyclic_generator(n)], order=n,
                                        name=f"Z/{n}")
            assert luck_rank(a, q) == F(n - 1, n)

    def test_push_adds_words_with_one_image(self):
        # t and t^3 both map to the generator of Z/2, so t - t^3 pushes to 0
        pres = GroupPresentation(("t",), ())
        names = pres.generator_names
        a = GroupAlgebraMatrix.single(QQ, {word_from_string("t", names): 1, word_from_string("ttt", names): -1})
        q = cyclic_power_quotient(pres, 2)
        assert q.push(a).entries == ({},)
        assert luck_rank(a, q) == 0

    def test_push_lists_the_support_shortest_word_first(self):
        # the cell is built longest word first; its words have distinct
        # images in (Z/5)^2, which push lists by (length, letters)
        pres = GroupPresentation(("a", "b"), ())
        names = pres.generator_names
        a = GroupAlgebraMatrix.single(QQ, {word_from_string(w, names): 1
                                           for w in ("ab", "b", "a", "", "A")})
        q = cyclic_power_quotient(pres, 5)
        assert q.push(a).support() == ((0, 0), (4, 0), (1, 0), (0, 1), (1, 1))

    def test_trivial_quotient_is_augmentation(self):
        pres, a = self.make_z()
        q = cyclic_power_quotient(pres, 1)
        assert luck_rank(a, q) == 0

    def test_z2_to_klein_four(self, z2):
        s = word_from_string("s", ("s", "t"))
        a = GroupAlgebraMatrix.single(QQ, {s: 1, IDENTITY_WORD: -1})
        q = cyclic_power_quotient(z2.presentation, 2)
        assert q.order == 4
        assert luck_rank(a, q) == F(1, 2)

    def test_relator_violation_rejected(self, fig8):
        # the figure-eight relator does not die in Z/5 x Z/5 under independent cycles
        with pytest.raises(ValueError):
            FiniteQuotientMap.build(fig8.presentation, AbelianTupleOps((5, 5)),
                                    [(1, 0), (2, 0)], order=25, name="(Z/5)^2")

    def test_luck_sequence_powers_of_two(self):
        pres, a = self.make_z()
        chain = [FiniteQuotientMap.build(pres, PermutationOps(2 ** j),
                                         [cyclic_generator(2 ** j)], order=2 ** j,
                                         name=f"Z/{2 ** j}")
                 for j in (1, 2, 3)]
        assert [luck_rank(a, q) for q in chain] == [F(1, 2), F(3, 4), F(7, 8)]

    def test_luck_sequence_zero_and_identity(self):
        pres, _ = self.make_z()
        chain = [FiniteQuotientMap.build(pres, PermutationOps(n), [cyclic_generator(n)],
                                         order=n, name=f"Z/{n}") for n in (2, 4)]
        zero = GroupAlgebraMatrix.single(QQ, {})
        one = GroupAlgebraMatrix.single(QQ, {IDENTITY_WORD: 1})
        assert [luck_rank(zero, q) for q in chain] == [0, 0]
        assert [luck_rank(one, q) for q in chain] == [1, 1]

    def test_smat_axioms_randomized(self):
        rng = random.Random(49)
        pres = GroupPresentation(("a", "b"), ())
        names = pres.generator_names
        q = FiniteQuotientMap.build(pres, AbelianTupleOps((2, 2)), [(1, 0), (0, 1)], order=4,
                                    name="(Z/2)^2")
        for _ in range(30):
            r, s, t_ = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
            a = random_ga_matrix(rng, QQ, names, r, s)
            b = random_ga_matrix(rng, QQ, names, s, t_)
            c = random_ga_matrix(rng, QQ, names, r, t_)
            rka, rkb = luck_rank(a, q), luck_rank(b, q)
            assert luck_rank(ga_matmul(a, b), q) <= min(rka, rkb)
            assert luck_rank(ga_block_diag(a, b), q) == rka + rkb
            assert luck_rank(ga_block_triangular(a, c, b), q) >= rka + rkb
