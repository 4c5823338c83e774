"""One round of a workload in a fresh interpreter.

Reads {"src", "jobs", "trace"} as JSON on stdin, imports tadic from `src`
(timed as set-up), then calls `tadic.cli.main(argv)` once per job with
stdout captured, one job after another.  Prints one JSON object: set-up
time, per-job wall time, exit code and sha256 of the output, the round's
wall time, peak RSS, the speed probes and, when traced, the tracer's
snapshot.

A speed probe times a fixed pure-Python kernel before the import, after
it, and after every job, so the parent can rescale each wall time to a
nominal machine speed (see run.py).
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _kernel():
    # a dict of tuple keys over a megabyte large: machine slowdowns hit it
    # about as hard as they hit tadic jobs, which a small loop does not
    table = {}
    for i in range(12000):
        table[(i * 7919) % 100003, i & 255] = i
    total = 0
    for key, val in table.items():
        total += key[0] ^ val
    return total


def probe() -> float:
    """Median time of three kernel runs, with the collector paused so the
    library's heap does not slow the probe down."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t)
    finally:
        if was_enabled:
            gc.enable()
    return sorted(times)[1]


def main() -> int:
    req = json.load(sys.stdin)
    src = os.path.realpath(req["src"])
    sys.path.insert(0, src)
    setup_probe = [probe()]
    t0 = time.perf_counter()
    import tadic
    import tadic.cli

    setup_s = time.perf_counter() - t0
    setup_probe.append(probe())
    if not os.path.realpath(tadic.__file__).startswith(src + os.sep):
        print(f"tadic imported from {tadic.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if req["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = []
    probes = [setup_probe[-1]]
    start = time.perf_counter()
    for argv in req["jobs"]:
        buf = io.StringIO()
        error = None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = tadic.cli.main(argv)
        except Exception:  # a raising job is a failed job, not a crash
            rc = "raised"
            error = traceback.format_exc()
        dt = time.perf_counter() - t
        digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
        jobs.append({"s": dt, "rc": rc, "sha256": digest, "error": error})
        probes.append(probe())
    wall_s = time.perf_counter() - start
    out = {
        "setup_s": setup_s,
        "setup_probe": setup_probe,
        "jobs": jobs,
        "probes": probes,
        "wall_s": wall_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = tracer.snapshot(sum(j["s"] for j in jobs))
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
