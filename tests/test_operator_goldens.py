"""Byte-exact outputs of the benchmark jobs.

Runs pool entry 0 of every benchmark template in-process and checks its
exit code and the sha256 of its JSON output against the recorded golden
digests.  The sums-route templates run in template order in one process,
so every job after the first meets field contexts and trace tables that
earlier jobs left in the process-wide caches.  The benchmark files are
only read.
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


SUMS_TEMPLATES = [(w, t) for w in ("families", "towers") for t in JOBS.WORKLOADS[w]]


@pytest.mark.parametrize(
    "workload, template", SUMS_TEMPLATES, ids=[f"{w}: {t}" for w, t in SUMS_TEMPLATES]
)
def test_sums_job_matches_golden(workload, template):
    line = JOBS.instantiate(template, 0)
    _check_golden(line, ALL_GOLDENS[workload][line])
