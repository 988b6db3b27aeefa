from fractions import Fraction as F
from pathlib import Path

import pytest

from l2approx.census import (CensusEntry, CensusFormatError, builtin_catalog,
                             builtin_entry, load_entry, load_entry_text,
                             _certify_irreducible)
from l2approx.foxhomology import homology_dims

DATA = Path(__file__).parent.parent / "src" / "l2approx" / "data"


def read(stem, suffix):
    return (DATA / f"{stem}.{suffix}").read_text()


class TestBuiltins:
    def test_catalog_has_at_least_six_entries(self):
        assert len(builtin_catalog()) >= 6

    def test_every_shipped_entry_validates(self):
        for entry in builtin_catalog():
            assert isinstance(entry, CensusEntry)
            for row in entry.rep.relator_signs:
                assert all(s in (1, -1) for s in row)

    def test_figure_eight_targets_and_metadata(self, fig8):
        assert fig8.targets == (F(0), F(0), F(0))
        assert fig8.aspherical and fig8.cusps == 1 and fig8.euler == 0
        assert fig8.rep.relator_signs == ((1,),)
        assert fig8.field.degree == 2

    def test_whitehead_expected_dims(self, whitehead):
        for lam in (2, 4, 6, 8, 10):
            assert whitehead.expected_dims((lam,)) == (0, 2, 2)
        assert whitehead.expected_dims((3,)) is None

    def test_expected_dims_is_none_at_the_zero_weight(self, fig8, whitehead):
        # the trivial module has h0 = 1, so the cusped closed form fails there
        assert fig8.expected_dims((0,)) is None
        assert whitehead.expected_dims((0,)) is None
        assert homology_dims(fig8.presentation, fig8.rep, (0,)).dims() == (1, 1, 0)
        assert homology_dims(whitehead.presentation, whitehead.rep, (0,)).dims() == (1, 2, 1)

    def test_expected_dims_requires_manifold_metadata(self, sanov):
        assert sanov.expected_dims((2,)) is None

    def test_euler_consistency_forces_deficiency_one(self, fig8, whitehead):
        # shipped targets satisfy b0 - b1 + b2 = 0, which forces r = g - 1
        for entry in (fig8, whitehead):
            g = entry.presentation.num_generators
            r = entry.presentation.num_relators
            assert r == g - 1
            b0, b1, b2 = entry.targets
            assert b0 - b1 + b2 == 0 == 1 - g + r

    def test_sanov_is_free(self, sanov):
        assert sanov.presentation.num_relators == 0
        assert sanov.targets == (F(0), F(1), F(0))

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            builtin_entry("does-not-exist")

    def test_deterministic_reload(self):
        a = builtin_entry("figure-eight")
        b = builtin_entry("figure-eight")
        assert a.presentation == b.presentation
        assert a.rep.images == b.rep.images


class TestLoadEntry:
    def test_file_pair_roundtrip(self, tmp_path):
        p = tmp_path / "e.pres"
        r = tmp_path / "e.rep"
        p.write_text(read("figure_eight", "pres"))
        r.write_text(read("figure_eight", "rep"))
        entry = load_entry(p, r)
        assert entry.name == "figure-eight"

    def test_corrupted_entry_rejected(self):
        # perturb a single entry of the holonomy: the relator check must fail
        bad = read("figure_eight", "rep").replace("image: a 1 : 1 ; 1 ; 0 ; 1",
                                                  "image: a 1 : 1 ; 2 ; 0 ; 1")
        with pytest.raises(ValueError, match="relator"):
            load_entry_text(read("figure_eight", "pres"), bad)

    def test_det_failure_rejected(self):
        bad = read("z_unipotent", "rep").replace("image: t 1 : 1 ; 1 ; 0 ; 1",
                                                 "image: t 1 : 2 ; 0 ; 0 ; 2")
        with pytest.raises(ValueError, match="determinant"):
            load_entry_text(read("z_unipotent", "pres"), bad)

    def test_sanov_validates_vacuously(self):
        entry = load_entry_text(read("sanov_f2", "pres"), read("sanov_f2", "rep"))
        assert entry.rep.relator_signs == ()

    def test_unknown_presentation_key_rejected(self):
        with pytest.raises(CensusFormatError):
            load_entry_text("generators: a\nvolume: 2.0298\n", read("z_unipotent", "rep"))

    def test_missing_image_rejected(self):
        partial = "field: 0 1\nfactors: 1\nimage: a 1 : 1 ; 2 ; 0 ; 1\n"
        with pytest.raises(CensusFormatError, match="missing image"):
            load_entry_text(read("sanov_f2", "pres"), partial)

    def test_image_for_unknown_generator_rejected(self):
        with pytest.raises(CensusFormatError, match="unknown generator"):
            load_entry_text(read("sanov_f2", "pres"), read("z_unipotent", "rep"))

    def test_entries_outside_declared_field_rejected(self):
        bad = read("z_unipotent", "rep").replace("image: t 1 : 1 ; 1 ; 0 ; 1",
                                                 "image: t 1 : 1 ; 1,7 ; 0 ; 1")
        with pytest.raises(Exception):
            load_entry_text(read("z_unipotent", "pres"), bad)

    @pytest.mark.parametrize("factor", ["0", "2"], ids=["zero", "above-factors"])
    def test_image_factor_outside_the_declared_factors_rejected(self, factor):
        rep = read("z_unipotent", "rep") + f"image: t {factor} : 1 ; 1 ; 0 ; 1\n"
        with pytest.raises(CensusFormatError,
                           match=f"^e.rep: image for generator 't' names factor {factor}, "
                                 r"outside 1\.\.1$"):
            load_entry_text(read("z_unipotent", "pres"), rep, rep_path="e.rep")

    def test_factors_line_may_follow_the_image_lines(self):
        rep = ("field: 0 1\nimage: t 1 : 1 ; 1 ; 0 ; 1\nimage: t 2 : 1 ; 2 ; 0 ; 1\n"
               "factors: 2\n")
        entry = load_entry_text(read("z_unipotent", "pres"), rep)
        assert entry.rep.n == 2

    def test_second_image_for_one_generator_and_factor_rejected(self):
        rep = read("z_unipotent", "rep") + "image: t 1 : 1 ; 2 ; 0 ; 1\n"
        with pytest.raises(CensusFormatError,
                           match="^e.rep: second image for generator 't' factor 1$"):
            load_entry_text(read("z_unipotent", "pres"), rep, rep_path="e.rep")

    def test_negative_cusp_count_rejected(self):
        pres = read("figure_eight", "pres").replace("cusps: 1", "cusps: -3")
        with pytest.raises(CensusFormatError, match="^e.pres: cusps must be >= 0, got -3$"):
            load_entry_text(pres, read("figure_eight", "rep"), pres_path="e.pres")

    @pytest.mark.parametrize("stem, suffix, old, new, key, bad", [
        ("figure_eight", "pres", "cusps: 1", "cusps: one", "cusps", "one"),
        ("figure_eight", "pres", "euler: 0", "euler: 0.5", "euler", "0.5"),
        ("z_unipotent", "rep", "factors: 1", "factors: two", "factors", "two"),
        ("z_unipotent", "rep", "image: t 1", "image: t x", "image factor", "x")],
        ids=["cusps", "euler", "factors", "image-factor"])
    def test_non_integer_names_the_file_and_key(self, stem, suffix, old, new, key, bad):
        texts = {"pres": read(stem, "pres"), "rep": read(stem, "rep")}
        assert old in texts[suffix]
        texts[suffix] = texts[suffix].replace(old, new)
        with pytest.raises(CensusFormatError,
                           match=f"^e.{suffix}: {key} must be an integer, got '{bad}'$"):
            load_entry_text(texts["pres"], texts["rep"], pres_path="e.pres", rep_path="e.rep")

    @pytest.mark.parametrize("suffix, first, second, key", [
        ("pres", "name: t", "name: u", "name"),
        ("pres", "generators: a b", "generators: a", "generators"),
        ("pres", "cusps: 1", "cusps: 2", "cusps"),
        ("rep", "factors: 2", "factors: 1", "factors")],
        ids=["name", "generators", "cusps", "factors"])
    def test_repeated_single_valued_key_names_the_file_and_key(self, suffix, first, second, key):
        # with the last value kept, each pair would load: one generator, one factor
        lines = {"pres": ["name: t", "generators: a"],
                 "rep": ["field: 0 1", "image: a 1 : 1 ; 1 ; 0 ; 1"]}
        lines[suffix] = ([first] + [ln for ln in lines[suffix] if not ln.startswith(key + ":")]
                         + [second])
        with pytest.raises(CensusFormatError, match=f"^e.{suffix}: repeated key '{key}'$"):
            load_entry_text(*("\n".join(lines[s]) + "\n" for s in ("pres", "rep")),
                            pres_path="e.pres", rep_path="e.rep")

    @pytest.mark.parametrize("pres_old, pres_new, rep_old, rep_new", [
        ("targets: 0 0 0", "targets: 0 1/0 0", "", ""),
        ("", "", "field: 0 1", "field: 1/0 1"),
        ("", "", "image: t 1 : 1 ; 1 ; 0 ; 1", "image: t 1 : 1 ; 1/0 ; 0 ; 1")],
        ids=["targets", "field", "image"])
    def test_zero_denominator_rejected(self, pres_old, pres_new, rep_old, rep_new):
        pres = read("z_unipotent", "pres").replace(pres_old, pres_new)
        rep = read("z_unipotent", "rep").replace(rep_old, rep_new)
        path = "e.pres" if pres_new else "e.rep"
        with pytest.raises(CensusFormatError, match=f"^{path}: zero denominator in '1/0'$"):
            load_entry_text(pres, rep, pres_path="e.pres", rep_path="e.rep")

    def test_central_involution_must_be_a_generator(self):
        pres = read("c2_central", "pres").replace("central-involution: g",
                                                  "central-involution: h")
        with pytest.raises(CensusFormatError):
            load_entry_text(pres, read("c2_central", "rep"))


class TestKnotInvariants:
    """Pin the shipped manifold presentations through their Alexander data.

    The Fox derivatives of the relator, pushed through the abelianization,
    determine the (multivariable) Alexander polynomial, which separates these
    manifolds from lookalike presentations.
    """

    @staticmethod
    def abelianized_fox(entry, images):
        import sympy as sp
        from l2approx.foxhomology import fox_derivative
        rel = entry.presentation.relators[0]
        out = []
        for j in range(entry.presentation.num_generators):
            der = fox_derivative(rel, j, entry.field)
            expr = sp.Integer(0)
            for w, c in der.items():
                mono = sp.Integer(1)
                for idx, exp in w.letters:
                    mono *= images[idx] ** exp
                expr += int(c.coeffs[0]) * mono
            out.append(sp.factor(sp.simplify(expr)))
        return out

    def test_figure_eight_alexander_polynomial(self, fig8):
        import sympy as sp
        t = sp.symbols("t")
        # with the shipped generators, the meridian pair is (a, b^-1)
        da, db = self.abelianized_fox(fig8, [t, 1 / t])
        delta = t ** 2 - 3 * t + 1
        assert sp.factor(da * t ** 3) == sp.factor(-t ** 2 * delta)
        assert sp.factor(db * t ** 3) == sp.factor(-t ** 3 * delta)

    def test_whitehead_alexander_polynomial(self, whitehead):
        import sympy as sp
        x, y = sp.symbols("x y")
        da, db = self.abelianized_fox(whitehead, [x, y])
        assert sp.factor(da * y) == sp.factor((x - 1) * (y - 1) ** 2)
        assert sp.factor(db * y) == sp.factor(-(x - 1) ** 2 * (y - 1))


class TestIrreducibility:
    def test_shipped_fields_pass(self):
        _certify_irreducible((F(1), F(-1), F(1)), "t")
        _certify_irreducible((F(2), F(2), F(1)), "t")
        _certify_irreducible((F(1), F(0), F(1)), "t")

    def test_rational_root_detected(self):
        with pytest.raises(CensusFormatError, match="rational root"):
            _certify_irreducible((F(-1), F(0), F(1)), "t")  # x^2 - 1

    def test_repeated_root_detected(self):
        with pytest.raises(CensusFormatError, match="rational root"):
            _certify_irreducible((F(1), F(-2), F(1)), "t")  # (x-1)^2

    def test_cubic_without_rational_root_accepted(self):
        _certify_irreducible((F(-2), F(0), F(0), F(1)), "t")  # x^3 - 2

    def test_quartic_cyclotomic_accepted(self):
        # Phi_5 is irreducible mod 3, so the degree-pattern test certifies it
        _certify_irreducible((F(1), F(1), F(1), F(1), F(1)), "t")

    def test_x4_plus_1_conservatively_rejected(self):
        # x^4 + 1 splits into quadratics modulo every odd prime; the
        # certification is conservative and refuses it
        with pytest.raises(CensusFormatError, match="certify"):
            _certify_irreducible((F(1), F(0), F(0), F(0), F(1)), "t")

    def test_reducible_quartic_rejected(self):
        # (x^2+1)(x^2+2) has no rational root; degree patterns must catch it
        with pytest.raises(CensusFormatError):
            _certify_irreducible((F(2), F(0), F(3), F(0), F(1)), "t")

    def test_rational_coefficients_cleared_before_root_test(self):
        with pytest.raises(CensusFormatError, match="rational root"):
            _certify_irreducible((F(-1, 4), F(0), F(1)), "t")  # x^2 - 1/4, roots +-1/2
        _certify_irreducible((F(-1, 2), F(0), F(1)), "t")  # x^2 - 1/2 is irreducible

    def test_unusable_primes_give_no_pattern(self):
        from l2approx.modp import factor_degrees
        assert factor_degrees([1, 1, 1, 1, 3], 3) is None  # p divides the leading coefficient
        assert factor_degrees([1, 1, 1, 1, 3], 5) == [4]
        assert factor_degrees([1, 0, 2, 0, 1], 3) is None  # (x^2+1)^2 is not squarefree

    def test_prime_dividing_the_leading_coefficient_skipped(self):
        # integer form 3x^4 + x^3 + x^2 + x + 1: p = 3 is skipped, p = 5 certifies
        _certify_irreducible((F(1, 3), F(1, 3), F(1, 3), F(1, 3), F(1)), "t")

    def test_factor_degrees_match_sympy(self):
        # the mod-p distinct-degree routine against sympy's factorization
        import random
        import sympy as sp
        from l2approx.modp import factor_degrees
        x = sp.symbols("x")
        rng = random.Random(99)
        for _ in range(30):
            deg = rng.randint(2, 5)
            ipoly = [rng.randint(-6, 6) for _ in range(deg)] + [1]
            for p in (3, 5, 7, 11):
                got = factor_degrees(ipoly, p)
                if got is None:
                    continue  # prime skipped (not squarefree mod p)
                poly = sp.Poly(sum(c * x ** k for k, c in enumerate(ipoly)), x, modulus=p)
                expected = sorted(
                    f.degree() for f, mult in poly.factor_list()[1] for _ in range(mult))
                assert sorted(got) == expected


class TestExpectedDims:
    def test_one_factor_cusped_entries(self, fig8, whitehead):
        assert fig8.expected_dims((4,)) == (0, 1, 1)
        assert whitehead.expected_dims((6,)) == (0, 2, 2)
        assert fig8.expected_dims((0,)) is None and fig8.expected_dims((3,)) is None

    def test_two_nonzero_weights_have_no_closed_form(self, fig8_conjugate):
        # cuspidal classes add to h1 on the diagonal, so (0, 1, 1) would be false
        assert homology_dims(fig8_conjugate.presentation, fig8_conjugate.rep,
                             (6, 6)).dims() == (0, 2, 2)
        for lam in ((6, 6), (2, 2), (4, 2)):
            assert fig8_conjugate.expected_dims(lam) is None
        # one nonzero weight is the one-factor series
        for lam in ((6, 0), (0, 4)):
            assert fig8_conjugate.expected_dims(lam) == (0, 1, 1) == \
                homology_dims(fig8_conjugate.presentation, fig8_conjugate.rep, lam).dims()
