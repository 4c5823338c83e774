"""Smoke runs of the scripts under scripts/, each a subprocess started from a
temporary directory: the scripts find src beside themselves, wherever they
are run from."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# ordinary_census.py at its default arguments; its minors column is the
# cone-determinant criterion, so a changed kernel expansion shows up here
CENSUS = """\
== diagonal x^d:  expect ordinary exactly when p = 1 mod d ==
x^2, p=3         flag=true         pi-flag=true         minors[0..4]=11111
x^2, p=5         flag=true         pi-flag=true         minors[0..4]=11111
x^2, p=7         flag=true         pi-flag=true         minors[0..4]=11111
x^3, p=2         flag=false        pi-flag=false        minors[0..5]=101101
x^3, p=5         flag=false        pi-flag=false        minors[0..5]=101101
x^3, p=7         flag=true         pi-flag=true         minors[0..5]=111111
x^4, p=3         flag=false        pi-flag=false        minors[0..6]=1001100
x^4, p=5         flag=true         pi-flag=true         minors[0..6]=1111111
x^4, p=7         flag=false        pi-flag=false        minors[0..6]=1001100
== reflexive simplex x1+x2+1/(x1x2) ==
simplex, p=2     flag=true         pi-flag=true         minors[0..2]=111
simplex, p=3     flag=true         pi-flag=true         minors[0..2]=111
simplex, p=5     flag=true         pi-flag=true         minors[0..2]=111
simplex, p=7     flag=true         pi-flag=true         minors[0..2]=111
"""


def run_script(name: str, cwd: Path, *args: str):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_ordinary_census_output_is_unchanged(tmp_path):
    res = run_script("ordinary_census.py", tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout == CENSUS


def test_field_presentations_check_agrees_at_a_small_bound(tmp_path):
    # the fields p^a <= 1024 regenerated by the reference searches and
    # checked against the committed table; the full check takes about 16 s
    res = run_script("field_presentations.py", tmp_path, "--check", "--limit", "1024")
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout == "26 fields agree with the committed table\n"
