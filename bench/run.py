"""Run one workload of the fkmorse benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/``.  Jobs are argv lists run through ``fkmorse.cli.main`` in this
process, one after another (a closed loop with one client), with stdout
captured.  Passes over the job list repeat until S seconds have gone by.
End-to-end times are scaled to a reference host speed measured between
jobs (see HOST_REFERENCE_S).
With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are
reported.  Every job's output is checked.  The last line of stdout is
one JSON object; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Optional

import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 11
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

# The shared host's speed wanders by tens of percent over seconds to
# minutes, and cpu_s follows wall_s through it: the loss is slower
# execution, not time off the CPU.  So a fixed piece of interpreter work,
# host_kernel, is timed between jobs, and every time a run reports is
# scaled by HOST_REFERENCE_S / (median kernel time while it was taken).
# Times are thus given at one reference host speed; the raw times go to
# the run record.
HOST_REFERENCE_S = 0.025
HOST_SAMPLE_EVERY_S = 0.5
HOST_KERNEL_ITEMS = 30_000

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "jobs_per_s": "1/s",
    "job_p50_ms": "ms", "job_tail_ms": "ms", "peak_rss_mb": "MB",
}


def host_kernel() -> int:
    """Fixed interpreter work of the kind the program does: it allocates
    tuples and fills a dict and a set of them, a few MB in all.  A kernel
    that stays in cache speeds up and slows down with the host about twice
    as much as the program does; this one follows it more closely."""
    table, keys = {}, []
    for i in range(HOST_KERNEL_ITEMS):
        key = (i % 211, i // 211, i & 7)
        keys.append(key)
        table[key] = table.get((i // 211, i % 211, 0), 0) + 1
    return sum(table[k] for k in keys[::3]) + len(set(keys[::2]))


def host_sample() -> tuple[float, float]:
    """(wall, cpu) seconds of one host_kernel run."""
    wall0, cpu0 = perf_counter(), process_time()
    host_kernel()
    return perf_counter() - wall0, process_time() - cpu0


def slowdown(samples: list[float]) -> float:
    """How much slower than the reference speed the host ran."""
    return statistics.median(samples) / HOST_REFERENCE_S


@dataclass
class Pass:
    """One pass over the job list.  wall and cpu leave out the host
    samples taken between its jobs."""

    wall: float = 0.0
    cpu: float = 0.0
    latencies: list[float] = field(default_factory=list)
    results: list[tuple[int, str]] = field(default_factory=list)
    problems: dict[int, str] = field(default_factory=dict)
    out_bytes: int = 0
    stdout: list[str] = field(default_factory=list)
    host: list[float] = field(default_factory=list)
    host_cpu: float = 0.0

    def sample_host(self) -> None:
        wall, cpu = host_sample()
        self.host.append(wall)
        self.host_cpu += cpu

    @property
    def slowdown(self) -> float:
        return slowdown(self.host)


def run_job(cli, job: workloads.Job) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(job))
        except Exception:
            # what the console script would do: traceback and exit 1
            traceback.print_exc()
            code = 1
        seconds = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def run_pass(cli, jobs: list[workloads.Job],
             tracer: Optional[tracing.Tracer] = None,
             keep_stdout: bool = False) -> Pass:
    p = Pass()
    # the previous pass's garbage is not this pass's cost
    gc.collect()
    cpu0, wall0 = process_time(), perf_counter()
    last_sample = -math.inf
    for k, job in enumerate(jobs):
        if perf_counter() - last_sample >= HOST_SAMPLE_EVERY_S:
            p.sample_host()
            last_sample = perf_counter()
        if tracer is not None:
            tracer.begin_job(k)
        code, out, err, seconds = run_job(cli, job)
        if tracer is not None:
            tracer.end_job()
        p.latencies.append(seconds)
        p.results.append((code, workloads.digest(out)))
        p.out_bytes += len(out.encode())
        reason = (f"exit code {code}: {err.strip()[-300:]}" if code
                  else workloads.math_check(job, out))
        if reason:
            p.problems[k] = reason
        if keep_stdout:
            p.stdout.append(out)
    p.sample_host()
    p.wall = perf_counter() - wall0 - sum(p.host)
    p.cpu = process_time() - cpu0 - p.host_cpu
    return p


def run_passes(cli, jobs, seconds: float, keep_stdout: bool) -> list[Pass]:
    """Passes until `seconds` have gone by; at least one."""
    start, passes = perf_counter(), []
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(cli, jobs, keep_stdout=keep_stdout))
    return passes


# --- checks -----------------------------------------------------------------------

def check_reference(passes: list[Pass],
                    expected: Optional[list[tuple[int, str]]]) -> None:
    """Compare each job's exit code and stdout digest with the recorded one."""
    if expected is None:
        return
    for p in passes:
        if len(expected) != len(p.results):
            raise SystemExit("bench: reference has another number of jobs")
        for k, ((code, dig), (want_code, want)) in \
                enumerate(zip(p.results, expected)):
            if code != want_code or not dig.startswith(want):
                p.problems.setdefault(
                    k, f"exit {code} / stdout {dig[:16]} differ from the "
                       f"recorded exit {want_code} / stdout {want[:16]}")


def check_idempotence(cli, jobs: list[workloads.Job], first: Pass) \
        -> dict[int, str]:
    """Re-running flow on a printed stable chain must print it again."""
    problems = {}
    for k, (job, out) in enumerate(zip(jobs, first.stdout)):
        if first.results[k][0] != 0:
            continue
        code, again, err, _ = run_job(
            cli, workloads.restabilize_request(job, out))
        if code != 0 or again != out:
            problems[k] = f"not idempotent: {out.strip()!r} -> " \
                          f"{again.strip()!r} (exit {code}) {err.strip()}"
    return problems


def code_hash() -> str:
    """Digest of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for path in sorted(list(workloads.SRC.rglob("*.py")) +
                       list(HERE.glob("*.py"))):
        h.update(str(path.relative_to(workloads.ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_counts(workload: str, seed: int,
                 per_pass: list[dict[str, int]]) -> list[str]:
    """Exact counts must repeat between traced passes, and between traced
    runs of the same code and seed (the first such run records them)."""
    problems = [f"traced pass {n} counts {c} differ from pass 0 {per_pass[0]}"
                for n, c in enumerate(per_pass) if c != per_pass[0]]
    record = OUT / f"counts-{workload}-seed{seed}-{code_hash()[:16]}.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        if earlier != per_pass[0]:
            problems.append(f"counts {per_pass[0]} differ from an earlier "
                            f"traced run of this code: {earlier}")
    else:
        record.write_text(json.dumps(per_pass[0], sort_keys=True) + "\n")
    return problems


# --- metrics ----------------------------------------------------------------------

def per_job_latencies(passes: list[Pass]) -> list[float]:
    """Each job's median latency over the passes, at the reference host
    speed, sorted."""
    return sorted(statistics.median(p.latencies[k] / p.slowdown
                                    for p in passes)
                  for k in range(len(passes[0].latencies)))


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest ladder percentile
    with at least TAIL_BEYOND samples beyond it, else the maximum."""
    n = len(latencies)
    for pct in TAIL_LADDER:
        rank = math.ceil(n * pct / 100)
        if n - rank >= TAIL_BEYOND:
            return pct, latencies[rank - 1], n - rank
    return 100.0, latencies[-1], 0


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until it has imported the
    program and built the job list, once per probe; and the host samples
    taken around the probes."""
    times, host = [], []
    for _ in range(SETUP_PROBES):
        host.append(host_sample()[0])
        start = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        code = proc.returncode
        if code != 0 or line.strip() != b"ready":
            raise SystemExit(f"bench: set-up probe failed (exit {code})")
    host.append(host_sample()[0])
    return times, host


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu}


def end_to_end(passes: list[Pass], setup: tuple[list[float], list[float]]) \
        -> tuple[dict[str, float], dict]:
    """The end-to-end metrics, times at the reference host speed, and notes
    on how they were taken, raw times among them."""
    latencies = per_job_latencies(passes)
    wall = statistics.median(p.wall / p.slowdown for p in passes)
    pct, tail_value, beyond = tail(latencies)
    setup_times, setup_host = setup
    values = {
        "setup_s": statistics.median(setup_times) / slowdown(setup_host),
        "wall_s": wall,
        "cpu_s": statistics.median(p.cpu / p.slowdown for p in passes),
        "jobs_per_s": len(latencies) / wall,
        "job_p50_ms": 1000 * statistics.median(latencies),
        "job_tail_ms": 1000 * tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    notes = {"job_tail_percentile": pct, "job_tail_beyond": beyond,
             "job_samples": len(latencies), "passes": len(passes),
             "pass_wall_s": [p.wall for p in passes],
             "pass_cpu_s": [p.cpu for p in passes],
             "pass_slowdown": [p.slowdown for p in passes],
             "job_latency_s": [p.latencies for p in passes],
             "setup_slowdown": slowdown(setup_host)}
    return values, notes


# --- the two kinds of run ---------------------------------------------------------

def untraced_run(cli, args, jobs: list[workloads.Job],
                 setup: tuple[list[float], list[float]], record: dict) -> tuple[list[Pass], dict, dict, list[str]]:
    is_flow = args.workload == "flow-requests"
    passes = run_passes(cli, jobs, args.seconds, keep_stdout=is_flow)
    values, notes = end_to_end(passes, setup)
    record.update(notes)
    print(f"job_tail_ms: p{notes['job_tail_percentile']:g} of "
          f"{notes['job_samples']} per-job median latencies, "
          f"{notes['job_tail_beyond']} beyond")
    print(f"host: median slowdown {statistics.median(notes['pass_slowdown']):.3f} "
          f"against the reference speed; raw median pass "
          f"{statistics.median(notes['pass_wall_s']):.4g} s")
    if is_flow:
        # outside the timed passes; a failure counts against every pass
        for k, why in check_idempotence(cli, jobs, passes[0]).items():
            for p in passes:
                p.problems.setdefault(k, why)
    return passes, values, END_TO_END_UNITS, []


def traced_run(cli, args, jobs: list[workloads.Job], record: dict) \
        -> tuple[list[Pass], dict, dict, list[str]]:
    """Untraced and traced passes in turn, at least two of each, so the
    tracing overhead is taken between neighbouring passes."""
    start = perf_counter()
    tracer = tracing.Tracer()
    plain, traced, layers, spans = [], [], [], []
    while len(traced) < 2 or perf_counter() - start < args.seconds:
        plain.append(run_pass(cli, jobs))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(cli, jobs, tracer=tracer))
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_metrics(traced[-1].out_bytes))
        spans.append(list(tracer.spans))
    for p in traced:
        for k, result in enumerate(p.results):
            if result != plain[0].results[k]:
                p.problems.setdefault(
                    k, "traced output differs from the untraced pass")
    values = tracing.median_metrics(layers)
    values["trace.overhead_s"] = statistics.median(
        t.wall - u.wall for u, t in zip(plain, traced))
    values["trace.spans"] = statistics.median(len(s) for s in spans)
    values["host.slowdown"] = statistics.median(p.slowdown for p in traced)
    with open(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", "w",
              encoding="utf-8") as fh:
        for n, pass_spans in enumerate(spans):
            for k, (name, t0, t1, parent, job) in enumerate(pass_spans):
                fh.write(json.dumps([n, job, k, parent, name,
                                     round(t0 - start, 9),
                                     round(t1 - start, 9)]) + "\n")
    record["untraced_wall_s"] = [p.wall for p in plain]
    record["traced_wall_s"] = [p.wall for p in traced]
    problems = check_counts(args.workload, args.seed,
                            [tracing.exact_counts(m) for m in layers])
    units = {**tracing.LAYER_METRICS, "trace.overhead_s": "s",
             "trace.spans": "count", "host.slowdown": "ratio"}
    return plain + traced, values, units, problems


# --- main -------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_before = os.getloadavg()[0]
    cli = workloads.load_cli()
    setup = measure_setup(args.workload, args.seed)
    jobs = workloads.jobs_for(args.workload, args.seed)
    expected = workloads.recorded(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "environment": environment(),
                    "setup_raw_s": setup[0], "setup_host_s": setup[1]}

    if args.trace:
        passes, values, units, problems = traced_run(cli, args, jobs, record)
    else:
        passes, values, units, problems = untraced_run(
            cli, args, jobs, setup, record)
    check_reference(passes, expected)
    problems = [f"pass {n} job {k} {' '.join(jobs[k])}: {why}"
                for n, p in enumerate(passes)
                for k, why in sorted(p.problems.items())] + problems
    attempted = len(jobs) * len(passes)
    failed = sum(len(p.problems) for p in passes)
    record.update({
        "load_1min_before": load_before, "load_1min_after": os.getloadavg()[0],
        "digests_recorded": expected is not None,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "problems": problems[:50],
        "metrics": values})
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"environment: python {env['python']}, nproc {env['nproc']}, "
          f"cpu {env['cpu_model']}; load 1min {load_before:.2f} -> "
          f"{record['load_1min_after']:.2f}")
    print(f"passes: {len(passes)}; failed_frac: {failed / attempted:g}; "
          f"reference digests: {'yes' if expected is not None else 'no'}")
    for line in problems[:20]:
        print("problem:", line)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
