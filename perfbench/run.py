#!/usr/bin/env python3
"""The kronlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a kronlab checkout against the source
in ``src/``.  The load is a closed loop with one client: one job at a
time, one process at a time, all on one core.  A run is a sequence of
rounds generated from the seed; each round of a library workload is a
fresh worker process (a session that starts cold), each job of
cli_oneshot a fresh ``kronlab`` process.  Every job is checked against an independent route;
a failure is an exception, a mismatch, a nonzero exit or wrong output.

--trace 0 measures for S seconds (and at least MIN_JOBS jobs) and prints
the end-to-end metrics.  --trace 1 runs TRACE_ROUNDS rounds untraced and
again traced, and prints the per-layer metrics with the tracing overhead;
its counts repeat exactly for a given seed.  Times are calibrated for
machine speed (see calibration.py); raw wall times go to the result file.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A summary goes to stderr, and a result
file with the environment goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from calibration import calibrated, loop_seconds, slowdown
from tracing import LAYER_METRICS, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

MIN_JOBS = 100  # so that at least ten latency samples lie beyond p90
SETUP_PROBES = 15
TRACE_ROUNDS = 2
HARD_LIMIT_S = 140  # after this no round starts and timeouts shrink to 1 s
JOB_TIMEOUT_S = 60

# name -> unit; bounds and directions are in BENCHMARK.json
END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PROBE = "import kronlab, time; print(time.monotonic(), kronlab.__file__)"


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("KRONLAB_FORMAT", None)
    return env


def check_kronlab_path(path: str) -> None:
    if Path(path).resolve().parent != SRC / "kronlab":
        raise RuntimeError(f"imported kronlab from {path}, not from {SRC}")


def setup_seconds(env) -> tuple[list[float], list[float]]:
    """Times from spawning a fresh interpreter until ``import kronlab`` has
    returned, with the calibration loop times around them."""
    samples, loops = [], [loop_seconds()]
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=JOB_TIMEOUT_S,
                              check=True)
        done, path = proc.stdout.split(maxsplit=1)
        check_kronlab_path(path.strip())
        samples.append(float(done) - start)
        loops.append(loop_seconds())
    return samples, loops


class Round:
    """What one round yields."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.latencies: list[float] = []  # raw wall time per job
        self.loops: list[float] = []  # calibration loop times around the jobs
        self.failures: list[str] = []
        self.rss_mb: list[float] = []  # peak of each worker process
        self.snapshots: list[dict] = []  # trace snapshots, one per process
        self.import_s: list[float] = []  # cli: traced children's import time
        self.spans: list[list] = []
        self.outputs: list[tuple[int, str, str]] = []  # cli: exit code, stdout, stderr

    def calibrated(self) -> list[float]:
        return calibrated(self.latencies, self.loops) if self.latencies else []


def session_round(workload, jobs, rnd, env, timeout, spans_path=None) -> Round:
    out = Round(jobs)
    spec = {"workload": workload, "round": rnd, "jobs": jobs,
            "spans": str(spans_path) if spans_path else None}
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                              input=json.dumps(spec), capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        out.failures = [f"worker timed out after {timeout:.0f} s"] * len(jobs)
        return out
    try:
        res = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        out.failures = [f"worker exit {proc.returncode}: {tail[0]}"] * len(jobs)
        return out
    check_kronlab_path(res["kronlab"])
    out.latencies, out.loops = res["latencies"], res["loops"]
    out.failures = [f"job {i}: {msg}" for i, msg in res["failures"]]
    out.rss_mb = [res["maxrss_kb"] / 1024]
    if res["trace"]:
        out.snapshots = [res["trace"]]
    return out


def run_cli_job(argv, env, tmp, timeout, trace_file=None, job_id=None):
    """One fresh kronlab process; returns (exit code, stdout, stderr,
    seconds, peak RSS in MB)."""
    opts = ["--trace", str(trace_file), "--job", job_id] if trace_file else []
    args = [sys.executable, str(BENCH / "cli_boot.py"), *opts, "--", *argv]
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o600),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o600)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, args, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        # The pidfd turns readable when the child exits: no polling delay.
        if not select.select([pidfd], [], [], timeout)[0]:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        elapsed = time.perf_counter() - start
    finally:
        os.close(pidfd)
    return (os.waitstatus_to_exitcode(status), out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"), elapsed, usage.ru_maxrss / 1024)


def cli_round(jobs, rnd, env, tmp, deadline, traced=False) -> Round:
    out = Round(jobs)
    argvs = []
    for i, job in enumerate(jobs):  # set-up: the walk files bijection reads
        argvs.append(list(job["argv"]))
        if job["kind"] == "bijection":
            walkfile = tmp / f"walks-{rnd}-{i}.txt"
            walkfile.write_text("\n".join(job["walks"]) + "\n", encoding="utf-8")
            argvs[-1].append(str(walkfile))
    trace_file = tmp / "trace.json" if traced else None
    out.loops.append(loop_seconds())
    for i, argv in enumerate(argvs):
        timeout = min(JOB_TIMEOUT_S, max(1.0, deadline - time.monotonic()))
        rc, stdout, stderr, elapsed, rss = run_cli_job(argv, env, tmp, timeout, trace_file,
                                                       f"{rnd}:{i}")
        out.loops.append(loop_seconds())
        out.latencies.append(elapsed)
        out.rss_mb.append(rss)
        out.outputs.append((rc, stdout, stderr))
        if traced and trace_file.exists():
            data = json.loads(trace_file.read_text(encoding="utf-8"))
            trace_file.unlink()
            out.snapshots.append(data["snapshot"])
            out.import_s.append(data["import_s"])
            out.spans += data["spans"]
    return out


def check_cli_rounds(rounds) -> None:
    """Check CLI outputs against independent routes, outside the timed region."""
    sys.path.insert(0, str(SRC))
    import kronlab

    check_kronlab_path(kronlab.__file__)
    for r in rounds:
        for i, (job, (rc, stdout, stderr)) in enumerate(zip(r.jobs, r.outputs)):
            try:
                error = workloads.check_cli(kronlab, job, rc, stdout)
            except Exception as exc:  # malformed output is a failed job, not a crash
                error = f"{job['kind']}: {type(exc).__name__}: {exc}"
            if error:
                said = stderr.strip().splitlines()[-1:]
                r.failures.append(f"job {i}: {error} (argv {job['argv']}"
                                  + (f"; stderr {said[0]!r})" if said else ")"))


def run_round(workload, seed, rnd, env, tmp, deadline, traced=False) -> Round:
    jobs = workloads.make_round(workload, seed, rnd)
    if workload == "cli_oneshot":
        return cli_round(jobs, rnd, env, tmp, deadline, traced)
    spans = tmp / "spans.jsonl" if traced else None
    timeout = max(1.0, deadline - time.monotonic())
    out = session_round(workload, jobs, rnd, env, timeout, spans)
    if traced and spans.exists():
        out.spans = [json.loads(line) for line in spans.read_text().splitlines()]
    return out


def timed_run(workload, seed, seconds, env, tmp, deadline):
    setup, setup_loops = setup_seconds(env)
    rounds: list[Round] = []
    start = time.monotonic()
    while True:
        rounds.append(run_round(workload, seed, len(rounds), env, tmp, deadline))
        elapsed = time.monotonic() - start
        done = sum(len(r.jobs) for r in rounds)
        if elapsed + elapsed / len(rounds) > seconds and done >= MIN_JOBS:
            break
        if time.monotonic() > deadline:
            break
    if workload == "cli_oneshot":
        check_cli_rounds(rounds)

    def summary(latencies, setup):
        out = {"jobs_per_s": 0.0, "job_p50_ms": 0.0, "job_p90_ms": 0.0,
               "setup_s": statistics.median(setup)}
        if len(latencies) > 1:
            out.update(jobs_per_s=len(latencies) / sum(latencies),
                       job_p50_ms=1000 * statistics.median(latencies),
                       job_p90_ms=1000 * statistics.quantiles(latencies, n=10)[-1])
        return out

    attempted = sum(len(r.jobs) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    rss = [x for r in rounds for x in r.rss_mb]
    metrics = summary([x for r in rounds for x in r.calibrated()],
                      calibrated(setup, setup_loops))
    metrics["peak_rss_mb"] = statistics.median(rss) if rss else 0.0
    metrics["ok_ratio"] = (attempted - failed) / attempted
    detail = {
        "rounds": len(rounds), "jobs_per_round": [len(r.jobs) for r in rounds],
        "samples": sum(len(r.latencies) for r in rounds), "setup_samples_s": setup,
        "raw": summary([x for r in rounds for x in r.latencies], setup),
        "slowdown": slowdown([x for r in rounds for x in r.loops] or [0.0]),
    }
    return rounds, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, detail


def _recalibrated(snapshot: dict, factor: float) -> dict:
    fn = {func: {q: v / factor if q == "self_s" else v for q, v in counts.items()}
          for func, counts in snapshot["fn"].items()}
    return dict(snapshot, fn=fn)


def traced_run(workload, seed, env, tmp, deadline, spans_out):
    rounds: list[Round] = []
    snapshots, import_s = [], []
    plain_s = traced_s = 0.0
    with open(spans_out, "w", encoding="utf-8") as fh:
        for rnd in range(TRACE_ROUNDS):
            plain = run_round(workload, seed, rnd, env, tmp, deadline)
            traced = run_round(workload, seed, rnd, env, tmp, deadline, traced=True)
            rounds += [plain, traced]
            plain_s += sum(plain.calibrated())
            traced_s += sum(traced.calibrated())
            factor = slowdown(traced.loops) if traced.loops else 1.0
            snapshots += [_recalibrated(s, factor) for s in traced.snapshots]
            import_s += [x / factor for x in traced.import_s]
            for span in traced.spans:
                fh.write(json.dumps(span) + "\n")
    if workload == "cli_oneshot":
        check_cli_rounds(rounds)
    values = layer_metrics(snapshots, import_s, traced_s / plain_s if plain_s else 0.0)
    units = {name: unit for name, unit, *_ in LAYER_METRICS}
    detail = {"rounds": TRACE_ROUNDS, "jobs_per_round": [len(r.jobs) for r in rounds[::2]],
              "untraced_s": plain_s, "traced_s": traced_s,
              "spans_file": str(spans_out.relative_to(ROOT))}
    return rounds, {k: (v, units[k]) for k, v in values.items()}, detail


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            sha, _, packed = line.partition(" ")
            if packed == name:
                return sha
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="kronlab benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (SRC / "kronlab" / "__init__.py").is_file():
        print(f"error: no kronlab source at {SRC}; run from a kronlab checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + HARD_LIMIT_S
    machine = environment()
    # Every process of the run shares one core, so the calibration loop
    # measures the core the jobs run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = RESULTS / f"tmp-{tag}-{os.getpid()}"
    tmp.mkdir()
    try:
        if args.trace:
            spans_out = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
            rounds, metrics, detail = traced_run(args.workload, args.seed, env, tmp,
                                                 deadline, spans_out)
        else:
            rounds, metrics, detail = timed_run(args.workload, args.seed, args.seconds,
                                                env, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(len(r.jobs) for r in rounds)
    failures = [f"round {i}: {f}" for i, r in enumerate(rounds) for f in r.failures]
    printed = {}
    for name, (value, unit) in metrics.items():
        printed[name] = {"value": value, "unit": unit}
        if value is None:
            printed[name]["absent"] = True
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": machine, "jobs": attempted,
        "failed": len(failures), **detail, "metrics": printed, "failures": failures[:20],
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    for msg in failures[:5]:
        print(f"FAILED {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{args.workload} {name} = {shown} {unit}", file=sys.stderr)
    if "samples" in detail:
        print(f"{args.workload} samples = {detail['samples']} jobs in {detail['rounds']} rounds",
              file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
