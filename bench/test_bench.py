"""Tests of the benchmark harness itself.

    python3 -m pytest bench -q
"""

import pytest

import run
import tracing
import workloads

cli = workloads.load_cli()

import fkmorse.homology  # noqa: E402  (needs load_cli's sys.path)
import fkmorse.pairing  # noqa: E402

SMALL_JOBS = [tuple(line.split()) for line in (
    "pair --max-dim 4 --max-length 4 --format json",
    "pair --max-dim 4 --max-length 4 --format csv",
    "pair --max-dim 3 --max-length 3 --format dot",
    "homology --degree 1 --max-length 5",
    "homology --degree 1 --scan 2 5",
    "morse --degree 2 --max-length 5 --format csv",
)] + workloads.flow_requests(3)[:40]


def traced_pass(jobs):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        p = run.run_pass(cli, jobs, tracer=tracer)
        return p, tracer.layer_metrics(p.out_bytes)
    finally:
        tracer.uninstall()


def test_tracing_leaves_output_unchanged():
    plain = run.run_pass(cli, SMALL_JOBS)
    traced, metrics = traced_pass(SMALL_JOBS)
    assert not plain.problems
    assert traced.results == plain.results
    for layer in ("pairing.build_calls", "pairing.rule_calls",
                  "flow.stabilize_calls", "chains.boundary_calls",
                  "homology.snf_calls", "simplicial.cells_enumerated"):
        assert metrics[layer] > 0, layer
    assert metrics["cli.self_s"] > 0
    assert not any(metrics[f"{layer}.errors"] for layer in tracing.LAYERS)


def test_uninstall_restores_every_binding():
    before = (fkmorse.homology.build_matching, cli.build_matching,
              fkmorse.pairing.SteepnessRule.__dict__["pair_up"])
    tracer = tracing.Tracer()
    tracer.install()
    assert fkmorse.homology.build_matching is not before[0]
    assert cli.build_matching is fkmorse.homology.build_matching
    tracer.uninstall()
    assert (fkmorse.homology.build_matching, cli.build_matching,
            fkmorse.pairing.SteepnessRule.__dict__["pair_up"]) == before


def test_exact_counts_repeat():
    first = tracing.exact_counts(traced_pass(SMALL_JOBS)[1])
    second = tracing.exact_counts(traced_pass(SMALL_JOBS)[1])
    assert first == second


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [["cli.main", 0.0, 10.0, -1, 0],
                    ["pairing.build_matching", 2.0, 6.0, 0, 0],
                    ["pairing.validate_matching", 5.0, 6.0, 1, 0]]
    assert tracer.self_times() == {"cli.self_s": 6.0, "pairing.build_s": 3.0,
                                   "pairing.validate_s": 1.0}


def test_flow_requests_are_seeded_with_fixed_shares():
    jobs = workloads.flow_requests(7)
    assert jobs == workloads.flow_requests(7)
    assert jobs != workloads.flow_requests(8)
    assert len(jobs) == workloads.FLOW_REQUESTS
    allow = sum("--degenerate-policy" in job for job in jobs)
    # named families start with y, sigma, tau or beta; words with a, - or
    # a scalar
    named = sum(job[1][len("--chain=")] in "ystb" for job in jobs)
    assert allow == round(workloads.FLOW_REQUESTS * workloads.ALLOW_SHARE)
    assert named == round(workloads.FLOW_REQUESTS * workloads.NAMED_SHARE)


def test_nondegenerate_count_is_surjections():
    from fkmorse.simplicial import enumerate_stratum, is_degenerate
    for dim, length in ((0, 0), (1, 0), (2, 3), (3, 3), (3, 5), (4, 4)):
        nondeg = sum(not is_degenerate(x)
                     for x in enumerate_stratum(dim, length))
        assert tracing.surjections(dim, length) == nondeg


@pytest.mark.parametrize("n, pct, beyond", [(1500, 99.0, 15), (200, 95.0, 10),
                                            (5, 100.0, 0)])
def test_tail_percentile_leaves_ten_samples_beyond(n, pct, beyond):
    values = [float(k) for k in range(n)]
    got_pct, value, got_beyond = run.tail(values)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert sum(v > value for v in values) == beyond


def test_math_check():
    hom = ("homology", "--degree", "2", "--max-length", "5")
    scan = ("homology", "--degree", "1", "--scan", "2", "4")
    good = '{"degree":2,"scope":{"max_length":5},"betti":1,"torsion":[]}'
    bad = '{"degree":2,"scope":{"max_length":5},"betti":1,"torsion":[2]}'
    assert workloads.math_check(hom, good + "\n") is None
    assert workloads.math_check(hom, bad + "\n")
    assert workloads.math_check(hom, "")
    assert workloads.math_check(scan, good + "\nstable_from: 2\n") is None
    assert workloads.math_check(scan, good + "\nstable_from: 3\n")


def test_idempotence_check_catches_a_moved_chain():
    jobs = workloads.flow_requests(5)[:10]
    first = run.run_pass(cli, jobs, keep_stdout=True)
    assert run.check_idempotence(cli, jobs, first) == {}
    first.stdout[0] = "not a chain\n"
    assert 0 in run.check_idempotence(cli, jobs, first)


def test_times_are_scaled_to_the_reference_host_speed():
    slow = run.HOST_REFERENCE_S * 2
    passes = [run.Pass(wall=4.0, cpu=3.0, latencies=[1.0, 3.0],
                       host=[slow, slow, run.HOST_REFERENCE_S * 10])]
    setup = ([0.5], [slow])
    values, _ = run.end_to_end(passes, setup)
    assert values["wall_s"] == 2.0 and values["cpu_s"] == 1.5
    assert values["setup_s"] == 0.25
    assert values["job_p50_ms"] == 1000.0 and values["job_tail_ms"] == 1500.0


def test_pass_times_leave_out_host_samples():
    p = run.run_pass(cli, SMALL_JOBS[3:4])
    assert len(p.host) >= 2
    assert sum(p.latencies) <= p.wall < sum(p.latencies) + sum(p.host)
