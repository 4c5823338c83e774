"""Byte-exact outputs of the operator route.

Runs pool entry 0 of every operator benchmark template in-process and
checks its exit code and the sha256 of its JSON output against the
recorded golden digests.  The benchmark files are only read.
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
GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text())["workloads"]["operator"]


@pytest.mark.parametrize("template", JOBS.OPERATOR)
def test_operator_job_matches_golden(template):
    line = JOBS.instantiate(template, 0)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(JOBS.argv(line))
    want = GOLDENS[line]
    assert rc == want["rc"]
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == want["sha256"]
