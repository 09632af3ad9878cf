"""Smoke tests: each survey script runs at its smallest setting and prints a known line."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_fractal_density_table():
    lines = run_script("fractal_density_table.py", "--k-max", "2", "--ell-max", "2")
    assert "  2    2        3        3        6    0.66667" in lines


def test_decomposition_survey():
    lines = run_script("decomposition_survey.py", "--n-max", "3")
    assert any(
        line.startswith("(n=3, k=3)  6 x A(2,1); 8 zero columns;"
                        " kernel dim 14 over GF(2), 14 over GF(3)  [decompose ")
        and re.search(r"\[decompose \d+\.\d\ds, peak \d+\.\d\d MB, kernel \d+\.\d\ds\]$", line)
        for line in lines
    )


def test_point_census():
    lines = run_script("point_census.py", "--instances", "2,2,2")
    assert len(lines) == 2
    assert lines[0].startswith("(n=2, k=2, q=2)  closed form 15; kernel search 15 of 57 nodes")
    assert "; oracle 15 of 26 nodes [" in lines[0]
    assert lines[0].endswith("sets agree")
    assert lines[1] == "oracle 1/1, kernel route 1/1"
    assert run_script("point_census.py", "--instances", "2,2,2 2,2,3",
                      "--skip-oracle")[-1] == "kernel route 2/2"


def test_point_census_reports_a_refused_route():
    lines = run_script("point_census.py", "--instances", "4,4,3")
    assert len(lines) == 2
    assert lines[0].startswith("(n=4, k=4, q=3)  closed form 91840; kernel search refused "
                               "(kernel enumeration for (n=4, k=4, q=3) needs a budget of "
                               "at least 2**66, configured budget is ")
    assert "; oracle 91840 of " in lines[0]
    assert "sets" not in lines[0]
    assert lines[1] == "oracle 1/1, kernel route 0/1"


def test_point_census_lists_the_admitted_instances():
    lines = run_script("point_census.py", "--admitted")
    assert len(lines) == 55
    assert lines[:2] == ["2,2,2", "2,2,3"]
    assert sum(line.startswith("2,2,") for line in lines) == 40
    assert lines[-1] == "5,5,2"
