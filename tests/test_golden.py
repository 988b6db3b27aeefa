"""Byte-equality gate on the CSV and summary output of fast CLI commands.

The files under `tests/golden/` were captured before the weight-module layer
moved to integer coordinates, the matrix-file and random-luck cases before
group-ring terms were built through one accumulator, and the deep whitehead
case before `rank_rows` took the smallest pivot of each column, and the
luck and rank `--target` cases and the default harris element before the mode
runners returned rows to one CSV emitter; any change to
a rank, a row format or a summary line shows here as a byte difference, both
in the strings `run_experiment` returns and in the files `main` writes.  To
capture them again, write `run_experiment`'s two strings for each case to
`<name>.csv` and `<name>.summary.txt`.
"""

from pathlib import Path

import pytest

from l2approx.cli import config_from_args, main, run_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "homology-figure-eight": ["--mode", "homology", "--entry", "figure-eight",
                              "--weights", "2:20:2"],
    "homology-whitehead": ["--mode", "homology", "--entry", "whitehead", "--weights", "2:10:2"],
    # a rank-deficient J (rank d-2) at a weight deep enough that the pivot
    # rule changes the elimination path
    "homology-whitehead-deep": ["--mode", "homology", "--entry", "whitehead",
                                "--weights", "32:32"],
    "rank-figure-eight-fox-jacobian": ["--mode", "rank", "--entry", "figure-eight",
                                       "--matrix", "fox-jacobian", "--weights", "2:12:2"],
    "limit-sanov-f2": ["--mode", "limit", "--entry", "sanov-f2", "--degree", "1",
                       "--weights", "1:12"],
    "harris-diagonal": ["--mode", "harris", "--p", "3", "--levels", "1:3",
                        "--element", "diagonal"],
    "harris-random-seed5": ["--mode", "harris", "--p", "3", "--levels", "1:3",
                            "--element", "random", "--seed", "5"],
    "luck-z2-lattice": ["--mode", "luck", "--entry", "z2-lattice", "--quotients", "2,4,8"],
    # a matrix file with a repeated word, a cancelling pair, a rational
    # coefficient and a dependent row: exercises term accumulation in the parser
    "rank-figure-eight-matrix-file": ["--mode", "rank", "--entry", "figure-eight",
                                      "--weights", "2:8:2", "--matrix", "file", "--matrix-file",
                                      str(GOLDEN_DIR / "figure-eight-matrix.txt")],
    # random words that collide in (Z/2)^2, one pair cancelling to zero:
    # exercises the summation in push
    "luck-z2-lattice-random-seed25": ["--mode", "luck", "--entry", "z2-lattice",
                                      "--quotients", "2,4,8", "--matrix", "random",
                                      "--seed", "25"],
    # a user --target in luck and rank mode fills the error column
    "luck-z-unipotent-target": ["--mode", "luck", "--entry", "z-unipotent",
                                "--quotients", "2,4,8", "--target", "1"],
    "rank-figure-eight-target": ["--mode", "rank", "--entry", "figure-eight",
                                 "--matrix", "fox-jacobian", "--weights", "2:8:2",
                                 "--target", "1"],
    # the default harris element
    "harris-unipotent": ["--mode", "harris", "--p", "3", "--levels", "1:3"],
}


def render(name: str) -> tuple[str, str]:
    return run_experiment(config_from_args(CASES[name]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(name):
    csv_text, summary_text = render(name)
    assert csv_text == (GOLDEN_DIR / f"{name}.csv").read_text()
    assert summary_text == (GOLDEN_DIR / f"{name}.summary.txt").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_main_writes_the_golden_files(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert main(CASES[name] + ["--out", str(out)]) == 0
    summary_text = (GOLDEN_DIR / f"{name}.summary.txt").read_text()
    assert out.read_text() == (GOLDEN_DIR / f"{name}.csv").read_text()
    assert (tmp_path / f"{name}.csv.summary.txt").read_text() == summary_text
    assert capsys.readouterr().out == summary_text
