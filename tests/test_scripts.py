"""Smoke tests: each experiment script under scripts/ and the README library
example run to completion and print a known line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, line", [
    ("run_figure_eight.py", "   20   21  (0, 1, 1)  1/21"),
    ("run_harris_p3.py", "    4  19683      26/27      1/27       1/27"),
    ("run_parity_example.py",
     "twisted rank of g - 1: trivial character -> 0, sign character -> 1"),
], ids=["figure-eight", "harris-p3", "parity"])
def test_script_runs(script, line):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "(0, 1, 1)" in proc.stdout.splitlines()


def test_module_entry_point_prints_the_golden_output():
    golden = ROOT / "tests" / "golden"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "l2approx", "--mode", "homology",
                           "--entry", "figure-eight", "--weights", "2:20:2"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (golden / "homology-figure-eight.csv").read_text() + \
        (golden / "homology-figure-eight.summary.txt").read_text()
