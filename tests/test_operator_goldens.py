"""Byte-exact outputs of the benchmark jobs: every line of
perfbench/goldens.json, 196 jobs over the three workloads.

The named parametrizations come first: pool entry 0 of every benchmark
template, every pool entry of the `faces` templates, and every pool entry
of the towers templates whose --prec-t makes ord_p(j!) >= 2 for some j (so
the binomial sums divide exactly by p^2 or more).  The last one takes every
golden line none of them ran, so each line runs exactly once.  Everything
runs in-process and checks the exit code and the sha256 of the JSON output
against the recorded digest.  The sums-route templates run in template
order in one process, so every job after the first meets field contexts
and trace tables that earlier jobs left in the process-wide caches.  The
benchmark files are only read.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from tadic.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", PERFBENCH / "jobs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


JOBS = _load_jobs()
ALL_GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text())["workloads"]
GOLDENS = ALL_GOLDENS["operator"]


def _check_golden(line, want):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(JOBS.argv(line))
    assert rc == want["rc"]
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == want["sha256"]


@pytest.mark.parametrize("template", JOBS.OPERATOR)
def test_operator_job_matches_golden(template):
    line = JOBS.instantiate(template, 0)
    _check_golden(line, GOLDENS[line])


FACES_LINES = [line for t in JOBS.OPERATOR if t.startswith("faces") for line in JOBS.variants(t)]


@pytest.mark.parametrize("line", FACES_LINES)
def test_faces_job_matches_golden(line):
    _check_golden(line, GOLDENS[line])


SUMS_TEMPLATES = [(w, t) for w in ("families", "towers") for t in JOBS.WORKLOADS[w]]


@pytest.mark.parametrize(
    "workload, template", SUMS_TEMPLATES, ids=[f"{w}: {t}" for w, t in SUMS_TEMPLATES]
)
def test_sums_job_matches_golden(workload, template):
    line = JOBS.instantiate(template, 0)
    _check_golden(line, ALL_GOLDENS[workload][line])


# --prec-t 24 and 36 carry the binomial series to T^23 and T^35, where
# ord_p(j!) reaches 2 or more for every p of these templates
EXACT_DIVISION_LINES = [
    line
    for t in JOBS.TOWERS
    if "--prec-t 24" in t or "--prec-t 36" in t
    for line in JOBS.variants(t)
]


@pytest.mark.parametrize("line", EXACT_DIVISION_LINES)
def test_exact_division_job_matches_golden(line):
    _check_golden(line, ALL_GOLDENS["towers"][line])


NAMED_LINES = {
    JOBS.instantiate(t, 0) for w in ("operator", "families", "towers") for t in JOBS.WORKLOADS[w]
} | set(FACES_LINES) | set(EXACT_DIVISION_LINES)
REST = [(w, line) for w, lines in ALL_GOLDENS.items() for line in lines if line not in NAMED_LINES]


@pytest.mark.parametrize("workload, line", REST, ids=[f"{w}: {line}" for w, line in REST])
def test_every_other_job_matches_golden(workload, line):
    _check_golden(line, ALL_GOLDENS[workload][line])
