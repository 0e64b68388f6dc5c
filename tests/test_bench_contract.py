"""What the traced benchmark run relies on, checked against the package.

bench/tracing.py wraps entry points by module and attribute name and reads
the critical report of every build_matching call, which only the pair and
validate commands make.  A refactor that renames
or moves one of them would break traced runs only when the benchmark runs,
so the names and shapes it uses are checked here, with the tracer itself
imported from its file and left unchanged.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import pathlib

import pytest

import fkmorse.cli  # the tracer needs every layer imported
from fkmorse.pairing import PairingFlags, build_matching
from fkmorse.simplicial import StratumKey, stratum_size

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
WORKLOADS = BENCH / "workloads.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("bench_tracing", TRACING)


def test_every_traced_entry_point_resolves(tracing):
    for modname, attr, metric, _ in tracing.SPANS:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer patches the method where the class defines it
            assert callable(vars(getattr(module, cls_name))[meth]), attr
        else:
            assert callable(getattr(module, attr)), attr
        assert metric in tracing.LAYER_METRICS
    simplicial = importlib.import_module("fkmorse.simplicial")
    assert callable(simplicial.enumerate_stratum)


def test_report_strata_unpack_as_degenerate_and_unmatched():
    _, report = build_matching(3, 3)
    for key, value in report.strata.items():
        deg, unmatched = value
        assert isinstance(key, StratumKey)
        assert isinstance(deg, list) and isinstance(unmatched, list)


def test_a_traced_build_counts_what_an_untraced_one_returns(tracing):
    matching, report = build_matching(4, 4)
    critical = sum(len(deg) + len(unm) for deg, unm in report.strata.values())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pairing = importlib.import_module("fkmorse.pairing")
        traced, _ = pairing.build_matching(4, 4)
    finally:
        tracer.uninstall()
    assert traced.pairs == matching.pairs
    assert tracer.counts["pairing.build_calls"] == 1
    assert tracer.counts["pairing.pairs"] == len(matching.pairs)
    assert tracer.counts["pairing.critical_cells"] == critical
    assert tracer.counts["simplicial.cells_enumerated"] > 0
    assert "pairing.build_s" in tracer.self_times()


@pytest.mark.parametrize("policy", ["critical", "allow"])
def test_a_traced_word_built_matching_counts_its_pairs_and_critical_cells(
        tracing, policy):
    """build_matching hands its pairs over as words and the report reads
    its critical cells off the build walk; the tracer's counts still equal
    len(matching) and the strata sum.  Every cell of the scope is in one
    pair or critical, so that sum is the scope's cells less two per pair."""
    flags = PairingFlags(degenerate_policy=policy)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pairing = importlib.import_module("fkmorse.pairing")
        matching, report = pairing.build_matching(4, 5, flags)
    finally:
        tracer.uninstall()
    cells = sum(stratum_size(n, k) for n, k in matching.scope.strata())
    assert tracer.counts["pairing.pairs"] == len(matching) == \
        len(matching.pairs) > 0
    assert tracer.counts["pairing.critical_cells"] == sum(
        len(deg) + len(unm) for deg, unm in report.strata.values()) == \
        cells - 2 * len(matching)


def _check_recorded_bytes(grid):
    reference = json.loads((BENCH / "reference.json").read_text("utf-8"))
    for row in reference["grids"][grid]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = fkmorse.cli.main(row["argv"].split())
        assert code == row["exit"], row["argv"]
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
            row["stdout_sha256"], row["argv"]


def test_pair_grid_jobs_print_their_recorded_bytes():
    """The pair-grid jobs' exit codes and stdout digests, as recorded in
    bench/reference.json, so a change to any pair export shows here and
    not only when the benchmark runs."""
    _check_recorded_bytes("pair-grid")


@pytest.mark.parametrize("grid", ["homology-grid", "scan"])
def test_homology_jobs_print_their_recorded_bytes(grid):
    """The same for the homology and scan jobs, so a change in the
    matching, the slices or the Smith normal form shows here too."""
    _check_recorded_bytes(grid)


def test_flow_requests_print_their_recorded_bytes():
    """The first 300 flow-requests jobs of recorded seed 0, so a change in
    the lazy rule or the flow, which only that workload runs, shows here
    too."""
    workloads = _load("bench_workloads", WORKLOADS)
    jobs = workloads.flow_requests(0)[:300]
    expected = workloads.recorded("flow-requests", 0)[:300]
    for job, (want_code, want) in zip(jobs, expected):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = fkmorse.cli.main(list(job))
        assert code == want_code, job
        assert workloads.digest(out.getvalue()).startswith(want), job


def test_a_traced_homology_job_counts_no_chain_boundary_or_flow(tracing):
    """The counts a traced homology job reports for the flow layers: both
    slices come from the gradient-path reductions, which check every entry
    by two routes and neither take Chain boundaries nor stabilize."""
    homology = importlib.import_module("fkmorse.homology")
    ctx, report, _ = homology.morse_context(3, 6)
    entries = 0
    for degree in (3, 4):
        slc = homology.build_slice(ctx, report, degree)
        entries += len(slc.basis_hi) * len(slc.basis_lo)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_job(0)
        with contextlib.redirect_stdout(io.StringIO()):
            code = fkmorse.cli.main(
                "homology --degree 3 --max-length 6".split())
        tracer.end_job()
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counts["chains.boundary_calls"] == 0
    assert tracer.counts["flow.stabilize_calls"] == 0
    assert tracer.counts["flow.dual_route_checks"] == entries > 0
    assert tracer.counts["homology.slice_calls"] == 2


def test_a_traced_homology_job_hands_each_residue_to_the_smith_form(
        tracing):
    """The homology path reduces the sparse rows of both slices to a unit
    echelon and hands each dense residue to smith_normal_form, the name
    the tracer wraps, so a traced homology job counts two calls; the bench
    harness asserts homology.snf_calls > 0.  At this scope both residues
    are empty."""
    argv = "homology --degree 3 --max-length 6".split()
    plain = io.StringIO()
    with contextlib.redirect_stdout(plain):
        assert fkmorse.cli.main(argv) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_job(0)
        traced = io.StringIO()
        with contextlib.redirect_stdout(traced):
            code = fkmorse.cli.main(argv)
        tracer.end_job()
    finally:
        tracer.uninstall()
    assert code == 0
    assert traced.getvalue() == plain.getvalue() != ""
    assert tracer.counts["homology.snf_calls"] == 2
    assert tracer.counts["homology.snf_cells"] == 0


@pytest.mark.parametrize("argv", [
    "flow --chain y^4",
    "flow --chain=a3.a1.a2.a2-2*a2.a2.a3.a1 --dim 3 "
    "--degenerate-policy allow",
], ids=["y4", "allow"])
def test_a_traced_flow_job_counts_its_rule_boundary_and_flow_calls(tracing,
                                                                    argv):
    """The counts a traced flow job reports: the flow asks the lazy rule
    for partners and takes Chain boundaries through the names the tracer
    wraps, and stabilizes once, in as many iterations as untraced."""
    ns = fkmorse.cli.build_parser().parse_args(argv.split())
    chain = fkmorse.cli.parse_chain(ns.chain, ns.dim)
    flow = importlib.import_module("fkmorse.flow")
    pairing = importlib.import_module("fkmorse.pairing")
    # the scope cmd_flow takes when no bounds are given
    longest = max(len(x.word) for x in chain.support())
    ctx = flow.FlowContext(
        pairing.SteepnessRule(pairing.PairingFlags(ns.degenerate_policy)),
        pairing.Scope(chain.dim + 1, longest))
    _, iterations = ctx.stabilize(chain)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_job(0)
        with contextlib.redirect_stdout(io.StringIO()):
            code = fkmorse.cli.main(argv.split())
        tracer.end_job()
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counts["pairing.rule_calls"] > 0
    assert tracer.counts["chains.boundary_calls"] > 0
    assert tracer.counts["flow.stabilize_calls"] == 1
    assert tracer.counts["flow.iterations"] == iterations > 0


def _traced_job(tracing, argv):
    """The exit code and the tracer of one traced CLI job."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_job(0)
        with contextlib.redirect_stdout(io.StringIO()):
            code = fkmorse.cli.main(argv.split())
        tracer.end_job()
    finally:
        tracer.uninstall()
    return code, tracer


@pytest.mark.parametrize("argv", [
    "homology --degree 3 --max-length 6",
    "homology --degree 1 --scan 2 7",
    "morse --degree 3 --max-length 5 --format csv",
], ids=["homology", "scan", "morse"])
def test_a_traced_homology_job_builds_and_validates_no_matching(tracing,
                                                               argv):
    """The homology path runs on the lazy rule, so a traced job records no
    build_matching or validate_matching span and counts no build, pair or
    critical cell, while every entry is still checked by two routes."""
    code, tracer = _traced_job(tracing, argv)
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert not names & {"pairing.build_matching", "pairing.validate_matching"}
    assert tracer.counts["pairing.build_calls"] == 0
    assert tracer.counts["pairing.pairs"] == 0
    assert tracer.counts["pairing.critical_cells"] == 0
    assert tracer.counts["flow.dual_route_checks"] > 0


def test_a_traced_pair_job_records_one_build(tracing):
    code, tracer = _traced_job(tracing,
                               "pair --max-dim 4 --max-length 4 --format csv")
    assert code == 0
    assert tracer.counts["pairing.build_calls"] == 1
    assert sum(span[0] == "pairing.build_matching"
               for span in tracer.spans) == 1


def test_the_homology_module_still_binds_build_matching():
    """bench/test_bench.py::test_uninstall_restores_every_binding reads
    fkmorse.homology.build_matching, though the homology path calls it no
    more; dropping the import would fail that harness test only."""
    homology = importlib.import_module("fkmorse.homology")
    assert homology.build_matching is build_matching
    assert "fkmorse.homology.build_matching" in \
        (BENCH / "test_bench.py").read_text("utf-8")


@pytest.mark.parametrize("fmt", ["csv", "dot"])
def test_a_traced_pair_export_records_one_export_span(tracing, fmt):
    """The pair CSV and DOT renderers run under the names the tracer wraps
    for pairing.export_s, once per job, and print the untraced bytes; a
    renamed renderer would otherwise show only when the benchmark runs."""
    argv = f"pair --max-dim 4 --max-length 4 --format {fmt}".split()
    plain = io.StringIO()
    with contextlib.redirect_stdout(plain):
        assert fkmorse.cli.main(argv) == 0
    export = {f"pairing.{attr}" for _, attr, metric, _ in tracing.SPANS
              if metric == "pairing.export_s"}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_job(0)
        traced = io.StringIO()
        with contextlib.redirect_stdout(traced):
            code = fkmorse.cli.main(argv)
        tracer.end_job()
    finally:
        tracer.uninstall()
    assert code == 0
    assert traced.getvalue() == plain.getvalue() != ""
    assert sum(span[0] in export for span in tracer.spans) == 1
    assert tracer.self_times()["pairing.export_s"] > 0
