#!/usr/bin/env python3
"""tadic benchmark: seeded closed-loop job streams through `tadic.cli.main`.

    python3 perfbench/run.py --workload families --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B
    python3 perfbench/run.py --record-goldens

A run repeats rounds until `--seconds` have passed (and at least
MIN_ROUNDS rounds ran).  A round is the workload's seeded job list, run by
one client in a fresh interpreter (worker.py), one job after the other.
Every job's exit code and output digest is checked against goldens.json.
With `--trace 1`, every other round runs with the per-layer tracer
installed; the untraced rounds in between give the tracing overhead.

Times are reported at a nominal machine speed.  Shared virtual machines
drift between speed states up to 2x apart that last seconds, so the
worker times a fixed pure-Python probe kernel before and after the import
and after every job, and each wall time is scaled by
PROBE_NOMINAL_S / (mean of the probes around it).  A change to tadic moves
the job times but not the probe.  Raw wall times are kept in the result
file.

The last line of stdout is the result as JSON; the lines before it are a
human-readable table.  Each run also writes its full result, with
environment and sample counts, under perfbench/results/.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import tracer  # noqa: E402

GOLDENS = BENCH / "goldens.json"
RESULTS = BENCH / "results"
WORKER = BENCH / "worker.py"

MIN_ROUNDS = 4  # also fixes the tail percentile, see tail_percentile()
TAIL_BEYOND = 10  # jobs the tail percentile must leave above it
SETUP_PROBES = 4  # import-only interpreters per run, besides one per round
RUN_BUDGET_S = 170  # no wait past this; no new round after half of it
PROBE_NOMINAL_S = 0.0035  # probe kernel time that defines the nominal speed


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def run_worker(job_argvs, trace: bool, timeout: float) -> dict:
    req = json.dumps({"src": str(ROOT / "src"), "jobs": job_argvs, "trace": trace})
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)],
            input=req,
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def scaled_job_times(res) -> list:
    """Per-job wall times at nominal speed (probes[i] precedes job i)."""
    p = res["probes"]
    return [
        j["s"] * 2 * PROBE_NOMINAL_S / (p[i] + p[i + 1]) for i, j in enumerate(res["jobs"])
    ]


def scaled_setup(res) -> float:
    return res["setup_s"] * 2 * PROBE_NOMINAL_S / sum(res["setup_probe"])


def round_rate(res) -> float:
    """Jobs per second of the round at nominal speed."""
    return len(res["jobs"]) / sum(scaled_job_times(res))


def tail_percentile(jobs_per_round: int) -> int:
    """Highest whole percentile leaving TAIL_BEYOND jobs above it in a run of
    MIN_ROUNDS rounds.  Fixed per workload so runs of different lengths, and
    of different commits, report the same percentile."""
    n = MIN_ROUNDS * jobs_per_round
    return 100 * (n - TAIL_BEYOND) // n


def nearest_rank(values, pct: int):
    ordered = sorted(values)
    idx = -(-pct * len(ordered) // 100) - 1
    return ordered[max(idx, 0)], len(ordered) - 1 - max(idx, 0)


def load_goldens(workload: str) -> dict:
    try:
        with open(GOLDENS, encoding="utf-8") as fh:
            return json.load(fh)["workloads"][workload]
    except (OSError, KeyError, ValueError) as err:
        raise BenchError(f"no golden digests for {workload!r} in {GOLDENS}: {err}")


def check_round(lines, result, goldens) -> list:
    """Mismatches of one round: (job line, what differed)."""
    bad = []
    for line, job in zip(lines, result["jobs"]):
        want = goldens.get(line)
        if want is None:
            bad.append((line, "no golden digest for this job"))
        elif job["rc"] != want["rc"]:
            why = f"exit {job['rc']!r}, recorded {want['rc']}"
            if job["error"]:
                why += ": " + job["error"].strip().splitlines()[-1]
            bad.append((line, why))
        elif job["sha256"] != want["sha256"]:
            bad.append((line, "output digest differs from the recorded one"))
    return bad


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "tadic" / "__init__.py").is_file():
        raise BenchError(f"no tadic sources under {ROOT / 'src'}")
    goldens = load_goldens(workload)
    lines = jobs.stream(workload, seed)
    argvs = [jobs.argv(line) for line in lines]
    t_start = time.perf_counter()

    def budget():
        return RUN_BUDGET_S - (time.perf_counter() - t_start)

    run_worker([], False, budget())  # warm-up: byte-compile the sources
    setups = [run_worker([], False, budget()) for _ in range(SETUP_PROBES)]
    rounds = []
    mismatches = []
    t_rounds = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 0
        res = run_worker(argvs, traced, budget())
        res["traced"] = traced
        rounds.append(res)
        setups.append(res)
        mismatches.extend(check_round(lines, res, goldens))
        done = time.perf_counter() - t_rounds >= seconds and len(rounds) >= MIN_ROUNDS
        if done or (budget() < 0.5 * RUN_BUDGET_S and len(rounds) >= 2):
            break
    attempted = len(lines) * len(rounds)
    out = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "measured_s": time.perf_counter() - t_rounds,
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs_per_round": len(lines),
        "rounds": len(rounds),
        "jobs_per_run": attempted,
        "attempted": attempted,
        "failed": len(mismatches),
        "failed_frac": len(mismatches) / attempted,
        "mismatches": [{"job": j, "why": w} for j, w in mismatches[:20]],
        "setup_samples": [scaled_setup(r) for r in setups],
        "raw_setup_samples": [r["setup_s"] for r in setups],
        "round_jobs_per_s": [round_rate(r) for r in rounds],
        "raw_round_jobs_per_s": [len(r["jobs"]) / r["wall_s"] for r in rounds],
        "probe_s": [p for r in rounds for p in r["probes"]],
    }
    if trace:
        out["metrics"] = per_layer_metrics(rounds)
    else:
        out["metrics"] = end_to_end_metrics(lines, rounds, out)
    return out


def end_to_end_metrics(lines, rounds, out) -> dict:
    scaled = [scaled_job_times(r) for r in rounds]
    times = [t for per_round in scaled for t in per_round]
    raw = [j["s"] for r in rounds for j in r["jobs"]]
    pct = tail_percentile(len(lines))
    tail, beyond = nearest_rank(times, pct)
    out.update(
        job_samples=len(times),
        tail_percentile=pct,
        tail_jobs_beyond=beyond,
        setup_sample_count=len(out["setup_samples"]),
        job_medians={
            line: statistics.median(per_round[i] for per_round in scaled)
            for i, line in enumerate(lines)
        },
        raw_metrics={
            "jobs_per_s": statistics.median(out["raw_round_jobs_per_s"]),
            "job_s.p50": statistics.median(raw),
            "job_s.tail": nearest_rank(raw, pct)[0],
            "setup_s": statistics.median(out["raw_setup_samples"]),
        },
    )
    return {
        "jobs_per_s": {"value": statistics.median(out["round_jobs_per_s"]), "unit": "1/s"},
        "job_s.p50": {"value": statistics.median(times), "unit": "s"},
        "job_s.tail": {"value": tail, "unit": "s"},
        "peak_rss_mb": {"value": max(r["maxrss_kb"] for r in rounds) / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(out["setup_samples"]), "unit": "s"},
    }


def per_layer_metrics(rounds) -> dict:
    traced = [r for r in rounds if r["traced"]]
    snaps = [r["trace"] for r in traced]
    # span times are rescaled by their round's overall speed factor
    speed = [sum(scaled_job_times(r)) / sum(j["s"] for j in r["jobs"]) for r in traced]
    metrics = {}
    for name, (unit, get) in tracer.PER_LAYER.items():
        values = [get(s) * (f if unit == "s" else 1) for s, f in zip(snaps, speed)]
        if name in tracer.EXACT and len(set(values)) > 1:
            print(f"warning: {name} differs between traced rounds: {values}", file=sys.stderr)
        value = values[0] if name in tracer.EXACT else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    rate = {
        flag: statistics.median(round_rate(r) for r in rounds if r["traced"] == flag)
        for flag in (True, False)
    }
    metrics["trace.jobs_per_s"] = {"value": rate[True], "unit": "1/s"}
    metrics["trace.untraced_jobs_per_s"] = {"value": rate[False], "unit": "1/s"}
    metrics["trace.overhead.jobs_per_s"] = {"value": rate[True] - rate[False], "unit": "1/s"}
    return metrics


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def print_table(res: dict):
    head = (
        f"tadic bench: workload={res['workload']} seed={res['seed']} trace={res['trace']} "
        f"rounds={res['rounds']} x {res['jobs_per_round']} jobs, python {res['python']}, "
        f"nproc {res['nproc']}, commit {res['commit'][:12]}"
    )
    print(head)
    print(f"  {'failed_frac':34s} {res['failed_frac']:14.6g} 1  ({res['failed']} of {res['attempted']} jobs)")
    for name, m in res["metrics"].items():
        note = ""
        if name == "job_s.p50":
            note = f"  (n={res['job_samples']})"
        elif name == "job_s.tail":
            note = f"  (p{res['tail_percentile']}, n={res['job_samples']}, {res['tail_jobs_beyond']} beyond)"
        elif name == "setup_s":
            note = f"  (median of {res['setup_sample_count']} interpreters)"
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}{note}")
    for mm in res["mismatches"]:
        print(f"  MISMATCH {mm['job']}: {mm['why']}")


def write_result(res: dict):
    RESULTS.mkdir(exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    name = f"{res['workload']}-seed{res['seed']}-trace{res['trace']}-{stamp}-{os.getpid()}.json"
    with open(RESULTS / name, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)


def contract_line(res: dict) -> str:
    metrics = {n: {"value": m["value"], "unit": m["unit"]} for n, m in res["metrics"].items()}
    return json.dumps(
        {
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": metrics,
        }
    )


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------


def load_results(spec: str) -> list:
    path = Path(spec)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(spec_a: str, spec_b: str) -> int:
    """Per workload and metric: medians, quartiles and the delta of B
    against A, judged against BENCHMARK.json's bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    a, b = load_results(spec_a), load_results(spec_b)
    regressed = False
    keys = sorted({(r["workload"], r["trace"]) for r in a} & {(r["workload"], r["trace"]) for r in b})
    if not keys:
        raise BenchError("the two sets share no (workload, trace) runs")
    for workload, trace in keys:
        ra = [r for r in a if (r["workload"], r["trace"]) == (workload, trace)]
        rb = [r for r in b if (r["workload"], r["trace"]) == (workload, trace)]
        print(
            f"== {workload} trace={trace}: A {len(ra)} runs ({ra[0]['commit'][:12]}), "
            f"B {len(rb)} runs ({rb[0]['commit'][:12]})"
        )
        print(f"  {'metric':38s} {'A q1/med/q3':>32s} {'B q1/med/q3':>32s} {'delta':>8s}  verdict")
        for name in ra[0]["metrics"]:
            va = [r["metrics"][name]["value"] for r in ra if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in rb if name in r["metrics"]]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
            verdict = "-"
            spec = bounds.get(name)
            if spec is not None:
                verdict = judge(va, vb, qa, qb, delta, spec)
                regressed |= verdict.startswith("REGRESSED")
            fa = "/".join(f"{x:.4g}" for x in qa)
            fb = "/".join(f"{x:.4g}" for x in qb)
            print(f"  {name:38s} {fa:>32s} {fb:>32s} {delta:+8.1%}  {verdict}")
    return 1 if regressed else 0


def judge(va, vb, qa, qb, delta, spec) -> str:
    bound = spec["bound"]
    lower = spec["better"] == "lower"
    worse = delta if lower else -delta
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    all_better = max(vb) < min(va) if lower else min(vb) > max(va)
    if spread > bound and not all_better:
        return f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
    if worse > bound:
        return f"REGRESSED (> {bound:.0%})"
    if -worse > (qa[2] - qa[0]) / qa[1]:
        return "better"
    return f"within {bound:.0%}"


# ---------------------------------------------------------------------------
# goldens
# ---------------------------------------------------------------------------


def record_goldens() -> int:
    """Run every job of every workload twice, in two fresh interpreters;
    store exit code and output digest.  Refuses jobs that fail or differ."""
    recorded = {}
    for workload in jobs.WORKLOADS:
        lines = jobs.job_space(workload)
        argvs = [jobs.argv(line) for line in lines]
        first = run_worker(argvs, False, 3600)
        second = run_worker(argvs, False, 3600)
        table = {}
        for line, j1, j2 in zip(lines, first["jobs"], second["jobs"]):
            if j1["rc"] != 0 or (j1["rc"], j1["sha256"]) != (j2["rc"], j2["sha256"]):
                raise BenchError(f"{line}: exit {j1['rc']!r}/{j2['rc']!r}, not a clean golden")
            table[line] = {"rc": j1["rc"], "sha256": j1["sha256"]}
        recorded[workload] = table
        print(f"{workload}: {len(table)} jobs recorded in {first['wall_s']:.1f} s")
    doc = {"commit": git_commit(), "workloads": recorded}
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="result files or directories")
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.record_goldens:
            return record_goldens()
        if args.workload is None:
            ap.error("--workload is required")
        if args.seconds < 1:
            ap.error("--seconds must be >= 1")
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    print_table(res)
    write_result(res)
    print(contract_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
