"""Workloads of the fkmorse benchmark: job lists, the seeded flow-request
generator, and the checks every job's output must pass.

A job is one argv for ``fkmorse.cli.main``.  The three grid workloads are
fixed lists; ``flow-requests`` is drawn from the seed.  See README.md for
why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

Job = tuple[str, ...]

# Grid jobs are kept short (about a second or less on a 2-vCPU Xeon virtual
# machine) so that a run holds many passes and its medians do not hang on
# one slow stretch of a shared host.  The exception is homology at (3,6),
# the smallest job in which the Smith normal form is the largest stage.
GRIDS: dict[str, tuple[str, ...]] = {
    "pair-grid": (
        "pair --max-dim 6 --max-length 5 --format json",
        "pair --max-dim 5 --max-length 6 --format csv",
        "pair --max-dim 5 --max-length 5 --format dot",
    ),
    "homology-grid": (
        "homology --degree 1 --max-length 8",
        "homology --degree 3 --max-length 6",
        "homology --degree 4 --max-length 5",
        "morse --degree 3 --max-length 5 --format csv",
    ),
    "scan": (
        "homology --degree 2 --scan 2 6",
        "homology --degree 1 --scan 2 7",
    ),
}
WORKLOADS = tuple(GRIDS) + ("flow-requests",)

# flow-requests mix: a fixed number of requests, of which fixed shares are
# named families and run under the "allow" degeneracy policy.
FLOW_REQUESTS = 1500
NAMED_SHARE = 0.2
ALLOW_SHARE = 0.1


def load_cli():
    """Import ``fkmorse.cli`` from this checkout's ``src/`` and return it.

    Refuses to fall back on any other installed copy of the package, so a
    directory holding only the benchmark fails instead of measuring
    something else.
    """
    if not (SRC / "fkmorse" / "cli.py").is_file():
        raise SystemExit(f"bench: no fkmorse sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fkmorse.cli
    origin = Path(fkmorse.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"bench: fkmorse was imported from {origin}, "
                         f"not from {SRC}")
    return fkmorse.cli


def jobs_for(workload: str, seed: int) -> list[Job]:
    if workload == "flow-requests":
        return flow_requests(seed)
    return [tuple(line.split()) for line in GRIDS[workload]]


# --- the seeded flow-request generator ------------------------------------------

def _word(rng: random.Random, dim: int, length: int) -> str:
    return ".".join(f"a{rng.randint(1, dim)}" for _ in range(length))


def _combination(rng: random.Random, k: int) -> tuple[str, int]:
    """Integer multiples of random words of one dimension.

    The dimension (3..9), the number of terms (1..3), the first term's
    length (3..8) and the other terms' length (3..8) cycle with k, so every
    seed asks for the same mix of sizes and the slowest requests, which
    set job_tail_ms, are of the same sizes from seed to seed.  The letters
    and the scalars are random.
    """
    dim, terms, first = 3 + k % 7, 1 + k // 7 % 3, 3 + k // 21 % 6
    rest = 3 + k // 126 % 6
    text = ""
    for t in range(terms):
        coef = rng.choice((1, 1, 1, 2, 3, -1, -1, -2, -3))
        word = _word(rng, dim, first if t == 0 else rest)
        body = word if abs(coef) == 1 else f"{abs(coef)}*{word}"
        text += ("-" if coef < 0 else "+" if text else "") + body
    return text, dim


NAMED_KINDS = ("y", "sigma", "tau", "sigma~", "tau~", "beta")


def _named(rng: random.Random, k: int) -> tuple[str, int]:
    """A named cell of the k-th kind in turn, and its dimension."""
    kind = NAMED_KINDS[k % len(NAMED_KINDS)]
    if kind == "y":
        return f"y^{rng.randint(1, 8)}", 1
    if kind == "beta":
        top = rng.randint(1, 8)
        return f"beta({top},{rng.randint(1, top)})", top + 1
    r = rng.randint({"sigma": 1, "tau": 2, "sigma~": 2, "tau~": 3}[kind], 9)
    return f"{kind}({r})", r


def flow_request(expr: str, dim: int, allow: bool) -> Job:
    job = ("flow", f"--chain={expr}", "--dim", str(dim))
    return job + ("--degenerate-policy", "allow") if allow else job


def flow_requests(seed: int, count: int = FLOW_REQUESTS) -> list[Job]:
    """The flow-requests job list for one seed; the same seed gives the
    same list, and the named and allow shares are exact.  The allow policy
    goes to every (1 / ALLOW_SHARE)-th cell as generated, so it falls on
    the same sizes for every seed."""
    rng = random.Random(seed)
    n_named = round(count * NAMED_SHARE)
    cells = [_named(rng, k) for k in range(n_named)] + \
        [_combination(rng, k) for k in range(count - n_named)]
    every = round(1 / ALLOW_SHARE)
    requests = [flow_request(expr, dim, k % every == 0)
                for k, (expr, dim) in enumerate(cells)]
    rng.shuffle(requests)
    return requests


def restabilize_request(job: Job, stable: str) -> Job:
    """The same request with the chain replaced by its printed result."""
    return (job[0], f"--chain={stable.strip()}") + job[2:]


# --- output checks ----------------------------------------------------------------

def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def math_check(job: Job, stdout: str) -> Optional[str]:
    """Checks against mathematics, not recorded output: every homology
    answer is H_d(Omega S^2; Z) = Z (James; Bott-Samelson), and every scan
    is stable from L = 2.  Returns the reason a job fails, or None."""
    if job[0] != "homology":
        return None
    lines = stdout.splitlines()
    if "--scan" in job:
        if not lines or lines[-1] != "stable_from: 2":
            return "scan is not stable from 2"
        lines = lines[:-1]
    if not lines:
        return "no homology result"
    for line in lines:
        try:
            result = json.loads(line)
            is_z = result["betti"] == 1 and result["torsion"] == []
        except (ValueError, KeyError, TypeError):
            return f"unreadable homology result: {line!r}"
        if not is_z:
            return f"homology is not Z: {line}"
    return None


def recorded(workload: str, seed: int) -> Optional[list[tuple[int, str]]]:
    """(exit code, stdout sha256 or its prefix) per job, recorded from the
    code the benchmark was written against; None for an unrecorded seed.

    Grid jobs carry a full sha256; flow-requests jobs carry its first
    eight hex digits, for the seeds that were recorded.
    """
    with open(REFERENCE, encoding="utf-8") as fh:
        data = json.load(fh)
    if workload in GRIDS:
        return [(row["exit"], row["stdout_sha256"])
                for row in data["grids"][workload]]
    row = data["flow-requests"].get(str(seed))
    if row is None:
        return None
    digests = row["stdout_sha256_prefixes"].split()
    return [(int(code), d) for code, d in zip(row["exits"], digests)]
