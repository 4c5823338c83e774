"""The benchmark's tracer still finds and reads what it wraps.

`perfbench/tracer.py` refuses a traced run when one of its TARGETS is
missing, so a rename or a merge would otherwise surface only in the traced
benchmark.  The first test loads TARGETS and repeats the tracer's lookup
(the attribute must sit in the module's or class's own namespace), without
installing any wrapper.  The second runs one traced round of
`perfbench/worker.py` in a subprocess, on every operator template and one
short sums job, so the hooks that read return values (the torus counts,
the transfer matrix's entries, the ZqPi products) are exercised too.  The
benchmark files are only read.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_tracer_target_resolves():
    missing = []
    for layer, path in _load("tracer").TARGETS:
        owner = importlib.import_module(f"tadic.{layer}")
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        if owner is None or parts[-1] not in vars(owner):
            missing.append(f"tadic.{layer}.{path}")
    assert not missing


def test_traced_round_fills_every_hook():
    jobs = _load("jobs")
    lines = [jobs.instantiate(t, 0) for t in jobs.OPERATOR] + [
        jobs.instantiate(jobs.FAMILIES[0], 0)
    ]
    req = {"src": str(ROOT / "src"), "jobs": [jobs.argv(line) for line in lines], "trace": True}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps(req),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    failed = [line for line, job in zip(lines, out["jobs"]) if job["rc"] != 0]
    assert len(out["jobs"]) == len(lines) and not failed, failed
    trace = out["trace"]
    counts = {
        "matrix_cells": trace["matrix_cells"],
        "matrix_nnz": trace["matrix_nnz"],
        "torus_points": trace["torus_points"],
        "dwork.ZqPi.mul calls": trace["spans"]["dwork.ZqPi.mul"][0],
    }
    assert all(v > 0 for v in counts.values()), counts
    # the walk's multiset over these 14 jobs: a walk that drops or double
    # counts a row moves one of them
    assert (trace["torus_points"], trace["distinct_traces"]) == (16485, 1257)
