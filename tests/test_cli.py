import csv
import dataclasses
import io
from fractions import Fraction as F

import pytest

from l2approx import cli, foxhomology
from l2approx.cli import (CSV_HEADER, config_from_args, main, parse_config_file,
                          parse_matrix_file, random_matrix)
from l2approx.exactalg import QQ


def run_csv(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    return rc, out.read_text(), out.with_suffix(out.suffix + ".summary.txt").read_text()


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestModes:
    def test_homology_figure_eight(self, tmp_path):
        rc, text, summary = run_csv(["--mode", "homology", "--entry", "figure-eight",
                                     "--weights", "2:2"], tmp_path)
        assert rc == 0
        assert text.splitlines()[0] == CSV_HEADER
        rows = rows_of(text)
        dims = {r["mode"]: int(r["value_num"]) for r in rows}
        assert (dims["homology:h0"], dims["homology:h1"], dims["homology:h2"]) == (0, 1, 1)
        assert all(r["target"] != "" and r["error_dec"] == "0" for r in rows)

    def test_limit_sanov_all_errors_zero(self, tmp_path):
        rc, text, summary = run_csv(["--mode", "limit", "--entry", "sanov-f2",
                                     "--weights", "1:12", "--degree", "1"], tmp_path)
        assert rc == 0
        rows = rows_of(text)
        assert len(rows) == 12
        assert all(r["error_dec"] == "0" for r in rows)
        assert all(F(int(r["value_num"]), int(r["value_den"])) == 1 for r in rows)

    def test_harris_unipotent_values(self, tmp_path):
        rc, text, summary = run_csv(["--mode", "harris", "--p", "3",
                                     "--levels", "1:3"], tmp_path)
        assert rc == 0
        rows = rows_of(text)
        vals = [F(int(r["value_num"]), int(r["value_den"])) for r in rows]
        assert vals == [0, F(2, 3), F(8, 9)]
        assert "envelope" in summary

    def test_luck_chain(self, tmp_path):
        rc, text, _ = run_csv(["--mode", "luck", "--entry", "z-unipotent",
                               "--quotients", "2,4,8", "--target", "1"], tmp_path)
        assert rc == 0
        vals = [F(int(r["value_num"]), int(r["value_den"])) for r in rows_of(text)]
        assert vals == [F(1, 2), F(3, 4), F(7, 8)]

    def test_rank_mode_fox_jacobian(self, tmp_path):
        rc, text, summary = run_csv(["--mode", "rank", "--entry", "figure-eight",
                                     "--matrix", "fox-jacobian", "--weights", "2:8:2"],
                                    tmp_path)
        assert rc == 0
        vals = [F(int(r["value_num"]), int(r["value_den"])) for r in rows_of(text)]
        assert vals == [F(2, 3), F(4, 5), F(6, 7), F(8, 9)]

    def test_fractions_accompany_decimals(self, tmp_path):
        _, text, _ = run_csv(["--mode", "harris", "--p", "3", "--levels", "2:2"], tmp_path)
        row = rows_of(text)[0]
        assert (row["value_num"], row["value_den"]) == ("2", "3")
        assert row["value_dec"].startswith("0.6666")


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["--mode", "limit", "--entry", "figure-eight",
                "--weights", "2:10:2", "--degree", "1"]
        _, text1, sum1 = run_csv(args, tmp_path, "a.csv")
        _, text2, sum2 = run_csv(args, tmp_path, "b.csv")
        assert text1 == text2
        assert sum1 == sum2

    def test_random_matrix_deterministic_for_fixed_seed(self):
        a = random_matrix(("a", "b"), QQ, 2, 2, 4, seed=99)
        b = random_matrix(("a", "b"), QQ, 2, 2, 4, seed=99)
        c = random_matrix(("a", "b"), QQ, 2, 2, 4, seed=100)
        assert a == b
        assert a != c

    def test_random_mode_requires_seed(self, tmp_path):
        rc = main(["--mode", "rank", "--entry", "sanov-f2", "--weights", "1:4",
                   "--matrix", "random", "--out", str(tmp_path / "x.csv")])
        assert rc != 0

    def test_random_mode_byte_identical_with_seed(self, tmp_path):
        args = ["--mode", "rank", "--entry", "sanov-f2", "--weights", "1:4",
                "--matrix", "random", "--seed", "7"]
        _, text1, _ = run_csv(args, tmp_path, "r1.csv")
        _, text2, _ = run_csv(args, tmp_path, "r2.csv")
        assert text1 == text2


class TestConfigFile:
    def test_flags_win_over_config(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("mode=limit\nentry=sanov-f2\nweights=1:6\ndegree=1\n")
        cfg = config_from_args(["--config", str(cfgfile), "--entry", "z-unipotent"])
        assert cfg.entry == "z-unipotent"
        assert cfg.mode == "limit"
        assert cfg.degree == 1

    def test_empty_flag_keeps_config_value(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("mode=homology\nentry=figure-eight\nweights=2:4:2\n")
        cfg = config_from_args(["--config", str(cfgfile), "--entry", ""])
        assert cfg.entry == "figure-eight"

    def test_config_only_run(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        out = tmp_path / "cfg.csv"
        cfgfile.write_text(f"mode=harris\np=3\nlevels=1:2\nout={out}\n")
        rc = main(["--config", str(cfgfile)])
        assert rc == 0
        assert out.exists()

    @pytest.mark.parametrize("first, second", [
        ("mode=luck", "mode=homology"), ("matrix-file=a.txt", "matrix_file=b.txt")],
        ids=["same-spelling", "dash-and-underscore"])
    def test_repeated_key_is_a_one_line_error(self, tmp_path, capsys, first, second):
        # with the last value kept, the first case would run homology and exit 0
        key = first.split("=")[0].replace("-", "_")
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"{first}\nentry=figure-eight\nweights=2:4:2\n{second}\n")
        rc = main(["--config", str(cfgfile), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: ConfigError: config key '{key}' is given twice\n"
        assert captured.out == ""
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("fnord=1\n")
        with pytest.raises(Exception):
            parse_config_file(str(cfgfile))

    def test_integer_keys_are_typed(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("mode=rank\nword-len=0\nseed=-3\nweights=2:4\n")
        cfg = parse_config_file(str(cfgfile))
        assert (cfg.word_len, cfg.seed, cfg.weights) == (0, -3, "2:4")
        cfgfile.write_text("mode=harris\np=three\nlevels=1:2\n")
        with pytest.raises(cli.ConfigError, match="'p' must be an integer, got 'three'"):
            parse_config_file(str(cfgfile))
        assert main(["--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "error: ConfigError: config key 'p' must be an integer, got 'three'"

    @pytest.mark.parametrize("lines, message", [
        (["mode = limit", "entry = sanov-f2", "weights = 1:4", "degree = 7"],
         "config key 'degree' must be one of 0, 1, 2, got 7"),
        (["mode = harris", "p = 3", "levels = 1:2", "element = Random", "seed = 5"],
         "config key 'element' must be one of unipotent, diagonal, random, got 'Random'"),
        (["mode = harris", "p = 3", "levels = 1:2", "element = Random"],
         "config key 'element' must be one of unipotent, diagonal, random, got 'Random'")],
        ids=["degree", "element-with-seed", "element"])
    def test_values_outside_the_choices_rejected(self, tmp_path, capsys, lines, message):
        cfgfile = tmp_path / "exp.cfg"
        out = tmp_path / "x.csv"
        cfgfile.write_text("".join(line + "\n" for line in lines + [f"out = {out}"]))
        assert main(["--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: ConfigError: {message}\n"
        assert captured.out == ""
        assert not out.exists()


class TestErrors:
    def test_unknown_entry_exits_nonzero_with_one_line_error(self, tmp_path, capsys):
        rc = main(["--mode", "homology", "--entry", "nope", "--weights", "2:4:2",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_parity_violation_surfaces(self, tmp_path, capsys):
        rc = main(["--mode", "limit", "--entry", "c2-central", "--weights", "3:3",
                   "--degree", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_mode(self, tmp_path, capsys):
        rc = main(["--entry", "figure-eight", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_harris_needs_odd_prime(self, tmp_path, capsys):
        rc = main(["--mode", "harris", "--p", "2", "--levels", "1:2",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_empty_levels_range_rejected(self, tmp_path, capsys):
        rc = main(["--mode", "harris", "--p", "3", "--levels", "3:1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: ConfigError: --levels START:END needs START <= END, got '3:1'\n"
        assert not (tmp_path / "x.csv").exists()

    def test_levels_out_of_order_rejected(self, tmp_path, capsys):
        rc = main(["--mode", "harris", "--p", "3", "--levels", "2,1,2", "--element", "diagonal",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: StructuralError: levels must be strictly increasing\n"
        assert not (tmp_path / "x.csv").exists()

    def test_quotients_out_of_order_rejected(self, tmp_path, capsys):
        rc = main(["--mode", "luck", "--entry", "z-unipotent", "--quotients", "4,2,4",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: ConfigError: --quotients must be strictly increasing, got '4,2,4'\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("mode, given, missing", [
        ("homology", ["--entry", "figure-eight"], ["--weights"]),
        ("rank", ["--entry", "figure-eight", "--matrix", "fox-jacobian"], ["--weights"]),
        ("limit", ["--entry", "sanov-f2", "--degree", "1"], ["--weights"]),
        ("limit", ["--entry", "sanov-f2", "--weights", "1:4"], ["--degree"]),
        ("luck", ["--entry", "z-unipotent"], ["--quotients"]),
        ("harris", ["--levels", "1:2"], ["--p"]),
        ("harris", ["--p", "3"], ["--levels"]),
        ("harris", ["--element", "diagonal"], ["--p", "--levels"])],
        ids=["homology-weights", "rank-weights", "limit-weights", "limit-degree",
             "luck-quotients", "harris-p", "harris-levels", "harris-p-levels"])
    def test_missing_required_flag_is_named(self, tmp_path, capsys, mode, given, missing):
        out = tmp_path / "x.csv"
        assert main(["--mode", mode] + given + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: ConfigError: {mode} mode needs {', '.join(missing)}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_mode_tables_share_their_modes(self):
        assert list(cli.MODE_FIELDS) == list(cli.REQUIRED_FIELDS) == list(cli._RUNNERS) == \
            list(cli.MODES)
        for mode, names in cli.REQUIRED_FIELDS.items():
            assert set(names) <= set(cli.MODE_FIELDS[mode]), mode

    @pytest.mark.parametrize("pres, rep, matrix, bad", [
        ("targets: 0 1/0 0\n", "", "t - 1", "e.pres"),
        ("", "field: 1/0 1\n", "t - 1", "e.rep"),
        ("", "field: 0 1\nimage: t 1 : 1 ; 1/0 ; 0 ; 1\n", "t - 1", "e.rep"),
        ("", "", "1/0*t - 1", "m.txt")], ids=["targets", "field", "image", "matrix-file"])
    def test_zero_denominator_is_a_one_line_error(self, tmp_path, capsys, pres, rep, matrix,
                                                  bad):
        files = {"e.pres": "name: t\ngenerators: t\n" + pres,
                 "e.rep": rep or "field: 0 1\nimage: t 1 : 1 ; 1 ; 0 ; 1\n", "m.txt": matrix}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        rc = main(["--mode", "rank", "--presentation", str(tmp_path / "e.pres"),
                   "--representation", str(tmp_path / "e.rep"), "--weights", "1:2",
                   "--matrix", "file", "--matrix-file", str(tmp_path / "m.txt"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert f"{tmp_path / bad}" in err and "zero denominator" in err

    @pytest.mark.parametrize("extra, message", [
        (["--degree", "7"], "argument --degree: invalid choice: 7 (choose from 0, 1, 2)"),
        (["--bogus"], "unrecognized arguments: --bogus")], ids=["bad-choice", "unknown-flag"])
    def test_argparse_errors_are_one_line_config_errors(self, tmp_path, capsys, extra, message):
        rc = main(["--mode", "limit", "--entry", "sanov-f2", "--weights", "1:4"] + extra
                  + ["--out", str(tmp_path / "x.csv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: ConfigError: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "x.csv").exists()

    def test_help_prints_the_usage_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out == cli.build_arg_parser().format_help()
        assert captured.out.startswith("usage: l2approx ")
        assert captured.err == ""

    @pytest.mark.parametrize("flag, value", [("--rows", "0"), ("--cols", "0"),
                                             ("--rows", "-2"), ("--word-len", "-1")])
    def test_bad_matrix_sizes_rejected(self, tmp_path, capsys, flag, value):
        rc = main(["--mode", "rank", "--entry", "sanov-f2", "--weights", "1:2",
                   "--matrix", "random", "--seed", "7", flag, value,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ConfigError: {flag} must be at least")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("args, default_len", [
        (["--mode", "rank", "--entry", "sanov-f2", "--weights", "1:2", "--matrix", "random"], 4),
        (["--mode", "harris", "--p", "3", "--levels", "1:2", "--element", "random"], 3)])
    def test_word_len_zero_is_not_replaced_by_the_default(self, tmp_path, monkeypatch,
                                                          args, default_len):
        lengths = []

        def recording(names, field, rows, cols, word_len, seed):
            lengths.append(word_len)
            return random_matrix(names, field, rows, cols, word_len, seed)

        monkeypatch.setattr(cli, "random_matrix", recording)
        base = args + ["--seed", "5", "--out", str(tmp_path / "x.csv")]
        assert main(base) == 0
        assert main(base + ["--word-len", "0"]) == 0
        assert lengths == [default_len, 0]

    @pytest.mark.parametrize("mode_args", [
        ["--mode", "rank", "--entry", "figure-eight", "--weights", "2:4:2"],
        ["--mode", "limit", "--entry", "sanov-f2", "--weights", "1:4", "--degree", "1"],
        ["--mode", "luck", "--entry", "z-unipotent", "--quotients", "2,4"],
        ["--mode", "harris", "--p", "3", "--levels", "1:2"]],
        ids=["rank", "limit", "luck", "harris"])
    @pytest.mark.parametrize("target", ["1/0", "abc"])
    def test_bad_target_is_a_config_error(self, tmp_path, capsys, mode_args, target):
        out = str(tmp_path / "x.csv")
        assert main(mode_args + ["--target", target, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == ("error: ConfigError: --target must be a rational such as 1/2, "
                       f"got '{target}'\n")
        # the same key from a config file
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"target={target}\n")
        assert main(mode_args + ["--config", str(cfgfile), "--out", out]) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("mode_args, flags", [
        (["--mode", "homology", "--entry", "figure-eight", "--weights", "2:2"],
         [("--target", "1/3")]),
        (["--mode", "limit", "--entry", "sanov-f2", "--weights", "1:4", "--degree", "1"],
         [("--matrix", "random")]),
        (["--mode", "rank", "--entry", "figure-eight", "--weights", "2:4:2"],
         [("--quotients", "2")]),
        (["--mode", "rank", "--entry", "figure-eight", "--weights", "2:4:2"],
         [("--levels", "1:2")]),
        (["--mode", "luck", "--entry", "z-unipotent", "--quotients", "2"], [("--p", "3")]),
        (["--mode", "harris", "--p", "3", "--levels", "1:2"], [("--matrix", "fox-jacobian")]),
        (["--mode", "harris", "--p", "3", "--levels", "1:2"],
         [("--entry", "figure-eight"), ("--weights", "2:4"), ("--quotients", "2")]),
        # flags read only under another choice of --matrix or --element
        (["--mode", "rank", "--entry", "figure-eight", "--weights", "2:4:2",
          "--matrix", "fox-jacobian"], [("--rows", "5"), ("--seed", "3")]),
        (["--mode", "luck", "--entry", "z-unipotent", "--quotients", "2"],
         [("--cols", "2"), ("--word-len", "3")]),
        (["--mode", "rank", "--entry", "figure-eight", "--weights", "2:4:2",
          "--matrix", "file", "--matrix-file", "m.txt"], [("--seed", "3")]),
        (["--mode", "rank", "--entry", "figure-eight", "--weights", "2:4:2",
          "--matrix", "random", "--seed", "3"], [("--matrix-file", "m.txt")]),
        (["--mode", "luck", "--entry", "z-unipotent", "--quotients", "2"],
         [("--matrix-file", "m.txt")]),
        (["--mode", "harris", "--p", "3", "--levels", "1:2", "--element", "unipotent"],
         [("--word-len", "9"), ("--seed", "4")]),
        (["--mode", "harris", "--p", "3", "--levels", "1:2", "--element", "diagonal"],
         [("--seed", "4")])],
        ids=["homology-target", "limit-matrix", "rank-quotients", "rank-levels", "luck-p",
             "harris-matrix", "harris-entry-weights-quotients", "rank-fox-jacobian-random",
             "luck-boundary-stack-random", "rank-file-seed", "rank-random-matrix-file",
             "luck-boundary-stack-matrix-file", "harris-unipotent-random",
             "harris-diagonal-seed"])
    def test_flags_the_mode_does_not_read_are_refused(self, tmp_path, capsys, mode_args,
                                                      flags):
        out = tmp_path / "x.csv"
        expected = (f"error: ConfigError: {mode_args[1]} mode does not read "
                    + ", ".join(flag for flag, _ in flags) + "\n")
        extra = [arg for pair in flags for arg in pair]
        assert main(mode_args + extra + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == expected
        # the same keys from a config file
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("".join(f"{flag[2:]}={value}\n" for flag, value in flags))
        assert main(mode_args + ["--config", str(cfgfile), "--out", str(out)]) == 2
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_flags_are_the_config_fields(self):
        parser = cli.build_arg_parser()
        flags = [a.option_strings[0] for a in parser._actions if a.option_strings]
        assert flags == ["-h", "--config"] + ["--" + f.name.replace("_", "-")
                                              for f in dataclasses.fields(cli.ExperimentConfig)]
        choices = {a.dest: a.choices for a in parser._actions if a.choices}
        assert choices == {"mode": cli.MODES, "degree": (0, 1, 2),
                           "matrix": cli.MATRIX_SOURCES, "element": cli.HARRIS_ELEMENTS}
        assert config_from_args(["--rows", "3", "--word-len", "0"]) == \
            cli.ExperimentConfig(rows=3, word_len=0)

    def test_non_integer_census_value_is_one_line(self, tmp_path, capsys):
        pres, rep = tmp_path / "e.pres", tmp_path / "e.rep"
        pres.write_text("name: e\ngenerators: t\ncusps: one\n")
        rep.write_text("field: 0 1\nimage: t 1 : 1 ; 1 ; 0 ; 1\n")
        rc = main(["--mode", "homology", "--presentation", str(pres), "--representation",
                   str(rep), "--weights", "2:2", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: CensusFormatError: {pres}: cusps must be an integer, got 'one'"]

    def test_bad_memory_cap_names_the_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("L2APPROX_MEMORY_CAP", "abc")
        rc = main(["--mode", "luck", "--entry", "z-unipotent", "--quotients", "2",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.strip() == ("error: ValueError: L2APPROX_MEMORY_CAP must be an integer, "
                               "got 'abc'")

    def test_invariant_failure_is_one_line_with_its_own_code(self, tmp_path, capsys,
                                                            monkeypatch):
        # a rank larger than the matrix drives a homology dimension negative
        monkeypatch.setattr(foxhomology, "rank_rows", lambda rows: len(rows) + len(rows[0]))
        rc = main(["--mode", "homology", "--entry", "figure-eight", "--weights", "2:2",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: InvariantError: negative homology dimension")
        assert len(err.strip().splitlines()) == 1

    def test_middle_term_bound_failure_is_an_invariant_error(self, tmp_path, capsys,
                                                            monkeypatch):
        # rank -1 over Q(w) for J and D (companion rows carry twice the rank)
        # keeps the Euler identity and every dimension non-negative but gives
        # h1 > 2d
        monkeypatch.setattr(foxhomology, "_boundary_ranks", lambda j_rows, d_rows, g: (-2, -2))
        rc = main(["--mode", "limit", "--entry", "figure-eight", "--weights", "2:8:2",
                   "--degree", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: InvariantError: normalized value 8/3 at weight (2,) "
                              "escapes the middle-term bound 2")
        assert len(err.strip().splitlines()) == 1


class TestMatrixSources:
    def test_matrix_file_parsing(self, tmp_path):
        mf = tmp_path / "m.txt"
        mf.write_text("t - 1 ; 2\n0 ; 3/2*t\n")
        m = parse_matrix_file(str(mf), ("t",), QQ)
        assert (m.rows, m.cols) == (2, 2)
        from l2approx.groupcore import IDENTITY_WORD, word_from_string
        t = word_from_string("t", ("t",))
        e00 = m.entry(0, 0)
        assert e00[t].coeffs[0] == 1 and e00[IDENTITY_WORD].coeffs[0] == -1
        assert m.entry(1, 1)[t].coeffs[0] == F(3, 2)

    def test_matrix_file_through_cli(self, tmp_path):
        mf = tmp_path / "m.txt"
        mf.write_text("t - 1\n")
        rc, text, _ = run_csv(["--mode", "rank", "--entry", "z-unipotent",
                               "--matrix", "file", "--matrix-file", str(mf),
                               "--weights", "1:4"], tmp_path)
        assert rc == 0
        vals = [F(int(r["value_num"]), int(r["value_den"])) for r in rows_of(text)]
        assert vals == [F(1, 2), F(2, 3), F(3, 4), F(4, 5)]

    def test_boundary_stack_default(self, tmp_path):
        rc, text, _ = run_csv(["--mode", "rank", "--entry", "z-unipotent",
                               "--weights", "1:4"], tmp_path)
        vals = [F(int(r["value_num"]), int(r["value_den"])) for r in rows_of(text)]
        assert vals == [F(1, 2), F(2, 3), F(3, 4), F(4, 5)]


class TestFilePairEntry:
    def test_presentation_representation_files(self, tmp_path):
        pres = tmp_path / "z.pres"
        rep = tmp_path / "z.rep"
        pres.write_text("name: my-z\ngenerators: t\naspherical: true\ntargets: 0 0 0\n")
        rep.write_text("field: 0 1\nfactors: 1\nimage: t 1 : 1 ; 1 ; 0 ; 1\n")
        rc, text, _ = run_csv(["--mode", "limit", "--presentation", str(pres),
                               "--representation", str(rep), "--weights", "1:6",
                               "--degree", "1"], tmp_path)
        assert rc == 0
        rows = rows_of(text)
        assert rows[0]["entry"] == "my-z"
        assert [r["error_dec"] for r in rows] == [
            f"{1.0 / (l + 1):.12g}" for l in range(1, 7)]

    def test_entry_and_file_pair_conflict(self, tmp_path, capsys):
        rc = main(["--mode", "limit", "--entry", "sanov-f2", "--presentation", "x",
                   "--representation", "y", "--weights", "1:6", "--degree", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
