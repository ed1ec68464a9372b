"""One library session: a fresh interpreter runs one round of jobs.

Reads {"workload", "round", "jobs", "spans"} as JSON on stdin and prints
one JSON object on stdout: per-job wall times, the calibration loop times
that bracket them, failures, peak RSS and, when "spans" names a file, the
trace snapshot (the spans go to that file).  Started by run.py with
kronlab's source on PYTHONPATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import kronlab

import workloads
from calibration import loop_seconds
from tracing import Tracer


def run_session(kl, job_fn, jobs, round_id, tracer=None):
    """Run every job in order; a job fails by raising or by returning a
    message.  Returns (latencies in s, loop times in s, failures)."""
    latencies, failures = [], []
    loops = [loop_seconds()]
    clock = time.perf_counter
    for i, job in enumerate(jobs):
        start = clock()
        try:
            if tracer is None:
                error = job_fn(kl, job)
            else:
                error = tracer.run_job(f"{round_id}:{i}", job_fn, kl, job)
        except Exception as exc:  # the session goes on; the job counts as failed
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - start)
        loops.append(loop_seconds())
        if error:
            failures.append([i, error])
    return latencies, loops, failures


def main() -> int:
    spec = json.load(sys.stdin)
    tracer = None
    if spec["spans"]:
        tracer = Tracer()
        tracer.install()
    latencies, loops, failures = run_session(
        kronlab, workloads.JOBS[spec["workload"]], spec["jobs"], spec["round"], tracer
    )
    result = {
        "kronlab": kronlab.__file__,
        "latencies": latencies,
        "loops": loops,
        "failures": failures,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": None,
    }
    if tracer is not None:
        tracer.dump_spans(spec["spans"])
        result["trace"] = tracer.snapshot()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
