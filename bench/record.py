"""Record the reference exit codes and stdout digests into reference.json.

    python3 bench/record.py

The reference is taken once, from the code the benchmark was written
against, and is then only read: a change to the program must reproduce it
byte for byte.  Every job is run twice and must give the same output both
times.  flow-requests is recorded for seeds 0-9; other seeds are checked
by idempotence only.
"""

import json
import sys

import run
import workloads

FLOW_SEEDS = range(10)


def record(cli, jobs):
    first, second = (run.run_pass(cli, jobs) for _ in range(2))
    if first.results != second.results or first.problems:
        raise SystemExit(f"bench: outputs are not reproducible or fail "
                         f"their checks: {first.problems}")
    return first.results


def main() -> int:
    cli = workloads.load_cli()
    data = {"grids": {}, "flow-requests": {}}
    for name in workloads.GRIDS:
        jobs = workloads.jobs_for(name, 0)
        data["grids"][name] = [
            {"argv": " ".join(job), "exit": code, "stdout_sha256": dig}
            for job, (code, dig) in zip(jobs, record(cli, jobs))]
    for seed in FLOW_SEEDS:
        results = record(cli, workloads.flow_requests(seed))
        data["flow-requests"][str(seed)] = {
            "exits": "".join(str(code) for code, _ in results),
            "stdout_sha256_prefixes": " ".join(dig[:8] for _, dig in results)}
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
