import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2approx.exactalg import (FieldMismatchError, NumberField, QQ, ScaledMatrix,
                               StructuralError, pivot_columns, rank_rows)
from l2approx.foxhomology import presentation_complex
from l2approx.repweights import weight_rep

from oracles import (block_diag, clear_denominators, companion_rows, dense,
                     exact_matrix_rank_oracle, fraction_weight_rep, gauss_rank, minpoly_reduce,
                     rank_mod_p, rational_rows, scaled)

QW = NumberField((F(1), F(-1), F(1)))  # w^2 = w - 1
QI = NumberField((F(1), F(0), F(1)))   # i^2 = -1
QC = NumberField((F(-2), F(0), F(0), F(1)))  # c^3 = 2
QH = NumberField((F(-1, 2), F(0), F(1)))              # h^2 = 1/2
QR = NumberField((F(-1, 2), F(1, 3), F(0), F(1)))     # r^3 = -r/3 + 1/2
QS = NumberField((F(-1), F(-2), F(1), F(1)))          # s^3 = -s^2 + 2s + 1
QT = NumberField((F(1, 3), F(0), F(-1, 2), F(1)))     # t^3 = t^2/2 - 1/3
MERSENNE_61 = 2 ** 61 - 1


def qmat(rows):
    return ScaledMatrix.from_rows(QQ, rows)


def random_field_matrix(field, rng, rows, cols, span=3):
    return ScaledMatrix.from_rows(field, [
        [field.element([F(rng.randint(-span, span)) for _ in range(field.degree)])
         for _ in range(cols)] for _ in range(rows)])


class TestFieldElement:
    def test_power_table_reduction(self):
        w = QW.gen()
        assert (w * w).coeffs == (F(-1), F(1))  # w^2 = w - 1

    def test_reduction_matches_independent_polynomial_oracle(self):
        rng = random.Random(7)
        for _ in range(25):
            a = [F(rng.randint(-5, 5)) for _ in range(2)]
            b = [F(rng.randint(-5, 5)) for _ in range(2)]
            prod = [F(0)] * 3
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
            expected = minpoly_reduce(prod, list(QW.minpoly))
            got = QW.element(a) * QW.element(b)
            assert list(got.coeffs) == expected

    @pytest.mark.parametrize("field", (QC, QH, QR, QS, QT), ids=lambda f: str(f.minpoly))
    def test_rational_products_match_independent_polynomial_oracle(self, field):
        # QS and QT have a nonzero x^2 coefficient, so reducing x^4 needs
        # the x^3 it leaves behind reduced again
        rng = random.Random(17)
        d = field.degree
        for _ in range(25):
            a, b = ([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)]
                    for _ in range(2))
            prod = [F(0)] * (2 * d - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
            got = field.element(a) * field.element(b)
            assert list(got.coeffs) == minpoly_reduce(prod, list(field.minpoly))

    def test_mixed_field_rejected(self):
        with pytest.raises(FieldMismatchError):
            QW.gen() * QI.gen()

    def test_coerce(self):
        assert QW.coerce(3) == QW.from_rational(3)
        assert QW.coerce(F(-1, 2)) == QW.element([F(-1, 2)])
        w = QW.gen()
        assert QW.coerce(w) is w
        with pytest.raises(FieldMismatchError):
            QW.coerce(QI.gen())
        with pytest.raises(StructuralError):
            QW.coerce(1.5)

    def test_minpoly_must_be_monic(self):
        with pytest.raises(StructuralError):
            NumberField((F(1), F(2)))


class TestRankExact:
    def test_identity(self):
        assert qmat([[1, 0], [0, 1]]).rank() == 2

    def test_proportional_rows(self):
        assert qmat([[1, 2], [2, 4]]).rank() == 1

    def test_quadratic_field_rank_via_det_oracle(self):
        # det = w^2 + 1 which reduces to w, nonzero, so full rank
        w = QW.gen()
        m = ScaledMatrix.from_rows(QW, [[w, QW.one], [-QW.one, w]])
        det = w * w + QW.one
        assert list(det.coeffs) == minpoly_reduce([F(1), F(0), F(1)], list(QW.minpoly))
        assert bool(det)
        assert m.rank() == 2

    def test_empty_shapes(self):
        assert ScaledMatrix(QQ, 0, 3, 1, ()).rank() == 0
        assert ScaledMatrix(QQ, 3, 0, 1, ()).rank() == 0

    def test_agrees_with_gaussian_oracle_over_q(self):
        rng = random.Random(11)
        for _ in range(40):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = qmat([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                      for _ in range(rows)])
            assert m.rank() == gauss_rank(rational_rows(dense(m)))

    def test_agrees_with_companion_oracle_over_number_fields(self):
        rng = random.Random(13)
        for field in (QW, QI):
            for _ in range(15):
                m = random_field_matrix(field, rng, rng.randint(1, 4), rng.randint(1, 4))
                assert m.rank() == exact_matrix_rank_oracle(dense(m))

    def test_transpose_invariance(self):
        rng = random.Random(17)
        for _ in range(20):
            m = random_field_matrix(QW, rng, rng.randint(1, 4), rng.randint(1, 4))
            assert m.rank() == scaled(dense(m).transpose()).rank()
            assert m.rank() <= min(m.rows, m.cols)

    def test_block_diag_additivity(self):
        rng = random.Random(19)
        for _ in range(15):
            a = random_field_matrix(QQ, rng, rng.randint(1, 3), rng.randint(1, 3))
            b = random_field_matrix(QQ, rng, rng.randint(1, 3), rng.randint(1, 3))
            assert scaled(block_diag([dense(a), dense(b)])).rank() == a.rank() + b.rank()

    def test_modular_oracle(self):
        # rank mod p never exceeds the exact rank; generically some prime attains it
        rng = random.Random(23)
        hits = 0
        for _ in range(12):
            m = random_field_matrix(QW, rng, 3, 3)
            exact = m.rank()
            int_rows = clear_denominators(companion_rows(dense(m)))
            attained = False
            for p in (101, 103, 107):
                rp = rank_mod_p(int_rows, p)
                assert rp <= 2 * exact
                if rp == 2 * exact:
                    attained = True
            hits += attained
        assert hits == 12

    def test_integer_kernel_matches_oracles_on_rational_entries(self):
        # non-integer entries, planted zero rows and columns, and low-rank products
        rng = random.Random(41)
        for _ in range(30):
            rows, cols, inner = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 4)
            left = [[F(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(inner)]
                    for _ in range(rows)]
            right = [[F(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(cols)]
                     for _ in range(inner)]
            rat = [[sum(l * r for l, r in zip(lrow, col)) for col in zip(*right)]
                   for lrow in left]
            for _ in range(rng.randint(0, 2)):
                rat.insert(rng.randint(0, len(rat)), [F(0)] * cols)
            zero_col = rng.randint(0, cols)
            rat = [row[:zero_col] + [F(0)] + row[zero_col:] for row in rat]
            m = qmat(rat)
            exact = m.rank()
            assert exact == gauss_rank(rat) == exact_matrix_rank_oracle(dense(m))
            assert exact == rank_mod_p(clear_denominators(rat), MERSENNE_61)

    def test_cubic_field_matches_companion_oracle(self):
        rng = random.Random(43)
        ranks = set()
        for _ in range(12):
            left = random_field_matrix(QC, rng, rng.randint(1, 4), rng.randint(1, 3), span=2)
            right = random_field_matrix(QC, rng, left.cols, rng.randint(1, 4), span=2)
            m = dense(left) * dense(right)
            exact = scaled(m).rank()
            ranks.add(exact)
            assert exact == exact_matrix_rank_oracle(m)
            assert exact == scaled(m.transpose()).rank()
        assert len(ranks) > 1

    def test_deterministic(self):
        rng = random.Random(29)
        m = random_field_matrix(QW, rng, 4, 5)
        assert m.rank() == m.rank()


class TestRankRowsKernel:
    """`rank_rows` against the Fraction oracle, and its pivot rule: the entry
    of smallest absolute value in the column, the lowest row on a tie.  The
    random cases of TestRankExact reach the same kernel through `rank`."""

    # (rows, index of the row that must become the first pivot, rank over Q)
    PIVOT_CASES = {
        "smallest-not-first": ([[0, 1, 1], [10, 3, 1], [15, 2, 7], [6, 5, 2]], 3, 3),
        "tie-takes-lowest-row": ([[6, 1, 0, 2], [-4, 0, 1, 1], [4, 1, 1, 0], [9, 2, 3, 1]], 1, 4),
        "unit-mid-column": ([[3, 1, 4], [2, 7, 1], [-1, 8, 2], [1, 8, 1], [5, 9, 2]], 2, 3),
        "zero-column": ([[0, 2, 3], [0, 4, 6], [0, 1, 1]], 2, 2),
        # the last row is the sum of the others
        "rank-deficient": ([[10, 4, 2, 1], [15, 6, 3, 0], [6, 2, 1, 1], [31, 12, 6, 2]], 2, 3),
    }

    @pytest.mark.parametrize("name", sorted(PIVOT_CASES))
    def test_hand_built_pivot_columns(self, name):
        rows, first_pivot, rank = self.PIVOT_CASES[name]
        consumed = [row[:] for row in rows]
        assert rank_rows(consumed) == gauss_rank(rows) == rank
        # the pivot row is swapped to the top and never rewritten
        assert consumed[0] == rows[first_pivot]

    @pytest.mark.parametrize("seed", range(6))
    def test_pivot_columns_are_where_the_column_prefix_rank_grows(self, seed):
        """Column c is a pivot iff the columns 0..c have larger rank than
        the columns 0..c-1; the matrices carry zero rows, zero columns and
        columns planted as combinations of earlier ones."""
        rng = random.Random(seed)
        for _ in range(8):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 9)
            cols = []
            for c in range(ncols):
                kind = rng.random()
                if kind < 0.2:
                    col = [0] * nrows
                elif kind < 0.5 and cols:
                    picks = rng.sample(range(len(cols)), min(2, len(cols)))
                    weights = [rng.randint(-3, 3) for _ in picks]
                    col = [sum(w * cols[k][i] for w, k in zip(weights, picks)) for i in range(nrows)]
                else:
                    col = [rng.randint(-5, 5) for _ in range(nrows)]
                cols.append(col)
            rows = [[cols[c][i] for c in range(ncols)] for i in range(nrows)]
            for i in rng.sample(range(nrows), nrows // 3):
                rows[i] = [0] * ncols
            prefix = [gauss_rank([row[:c] for row in rows]) for c in range(ncols + 1)]
            expected = [c for c in range(ncols) if prefix[c + 1] > prefix[c]]
            assert pivot_columns([row[:] for row in rows]) == expected
            assert rank_rows([row[:] for row in rows]) == len(expected) == prefix[-1]

    @pytest.mark.parametrize("entry, lam, deficiency", [("fig8", 24, 1), ("whitehead", 20, 2)])
    def test_embedded_fox_jacobian_matches_gauss_rank(self, request, entry, lam, deficiency):
        e = request.getfixturevalue(entry)
        _, _, j_rows, _ = presentation_complex(e.presentation, e.rep, (lam,))
        rank = rank_rows([row[:] for row in j_rows])
        assert rank == gauss_rank(j_rows)
        assert rank == e.rep.field.degree * (lam + 1 - deficiency)

    @pytest.mark.parametrize("entry, expected", [("fig8", 80), ("whitehead", 78)])
    def test_deep_embedded_fox_jacobian_against_rank_mod_p(self, request, entry, expected):
        """At lambda=40 the Fraction oracle takes many seconds, so this is only
        a lower-bound cross-check: the rank modulo 2^61 - 1 is at most the rank
        over Q, so agreement rules out a rank_rows result that is too large but
        not one that is too small.  The pinned value, d - 1 for figure-eight
        and d - 2 for whitehead (times the field degree 2), covers that side."""
        e = request.getfixturevalue(entry)
        _, _, j_rows, _ = presentation_complex(e.presentation, e.rep, (40,))
        assert rank_rows([row[:] for row in j_rows]) == rank_mod_p(j_rows, MERSENNE_61) == expected


class TestCompanionEmbed:
    def test_degree_one_is_identity_map(self):
        # over Q the embedding is the matrix itself, scaled by its denominator
        assert qmat([[1, 2], [3, 4]]).embed() == [[1, 2], [3, 4]]
        assert qmat([[F(1, 2), 1], [F(-1, 3), 0]]).embed() == [[3, 6], [-2, 0]]

    def test_generator_multiplication_matrix(self):
        w = QW.gen()
        m = ScaledMatrix.from_rows(QW, [[w]])
        # columns are w*1 = w and w*w = -1 + w in the power basis
        assert m.embed() == [[0, -1], [1, 1]]
        assert companion_rows(dense(m)) == [[F(0), F(-1)], [F(1), F(1)]]
        assert gauss_rank(m.embed()) == 2
        assert m.rank() == 1

    def test_zero_matrix(self):
        z = ScaledMatrix.from_rows(QW, [[0, 0, 0], [0, 0, 0]])
        emb = z.embed()
        assert (len(emb), len(emb[0])) == (4, 6)
        assert not any(any(row) for row in emb)
        assert z.rank() == 0

    def test_rank_scaling_on_random_matrices(self):
        rng = random.Random(31)
        for field in (QW, QI):
            for _ in range(12):
                m = random_field_matrix(field, rng, rng.randint(1, 4), rng.randint(1, 4))
                assert gauss_rank(companion_rows(dense(m))) == field.degree * m.rank()
                assert gauss_rank(m.embed()) == field.degree * m.rank()


class TestMatrixOps:
    def test_kron_dimensions_and_values(self):
        # Sym^1 is the identity map, so the weight (1, 1) module is a (x) b
        a = qmat([[1, 2], [3, 4]])
        b = qmat([[0, 1], [1, 0]])
        k = dense(weight_rep([a, b], (1, 1)))
        assert (k.rows, k.cols) == (4, 4)
        # entry (i*2+u, j*2+v) = a(i,j) * b(u,v)
        assert k.entry(0, 1).coeffs[0] == F(1) * F(1)
        assert k.entry(2, 1).coeffs[0] == F(3) * F(1)
        assert k.entry(2, 3).coeffs[0] == F(4) * F(1)
        assert k.entry(2, 2).coeffs[0] == F(0)
        assert k == dense(a).kron(dense(b))
        assert k == fraction_weight_rep([dense(a), dense(b)], (1, 1))

    def test_mixed_field_entries_rejected(self):
        with pytest.raises(FieldMismatchError):
            ScaledMatrix.from_rows(QQ, [[QQ.one, QW.one]])
        with pytest.raises(FieldMismatchError):
            ScaledMatrix.from_rows(QW, [[QW.gen()], [QI.gen()]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(StructuralError, match="ragged rows"):
            qmat([[1, 2], [3]])
        with pytest.raises(StructuralError):
            qmat([[1.5]])

    def test_from_rows_reads_ints_fractions_and_field_elements(self):
        w = QW.gen()
        m = ScaledMatrix.from_rows(QW, [[1, F(1, 2)], [w, QW.element([F(1, 3), F(-2, 3)])]])
        assert m.den == 6
        assert m.entries == ((6, 0), (3, 0), (0, 6), (2, -4))
        assert dense(m).row_lists() == [[QW.one, QW.from_rational(F(1, 2))],
                                        [w, QW.element([F(1, 3), F(-2, 3)])]]


@given(st.lists(st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
                min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_rank_matches_oracle_property(rows):
    assert qmat(rows).rank() == gauss_rank(rows)


@given(st.lists(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                         min_size=2, max_size=4),
                min_size=1, max_size=4).filter(lambda rs: len({len(r) for r in rs}) == 1))
@settings(max_examples=60, deadline=None)
def test_companion_rank_scaling_property(rows):
    m = ScaledMatrix.from_rows(QW, [[QW.element(list(pair)) for pair in row] for row in rows])
    assert gauss_rank(companion_rows(dense(m))) == 2 * m.rank()
