"""Spans and counters around the public entry points of each fkmorse module.

Nothing here changes the program: ``Tracer.install`` replaces each entry
point, wherever a module of the package has bound it by name, with a
wrapper that records one span per call and a few counts taken from the
call's arguments and result; ``Tracer.uninstall`` puts the originals back.
Self times are derived from the spans afterwards.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Optional

LAYERS = ("cli", "simplicial", "pairing", "flow", "chains", "homology")

# Counts that must repeat exactly between two traced runs of the same code
# and seed; anything else they depend on is a bug in the program or here.
EXACT_COUNTS = (
    "simplicial.cells_enumerated",
    "pairing.pairs", "pairing.critical_cells", "pairing.build_calls",
    "pairing.rule_calls",
    "flow.iterations", "flow.dual_route_checks",
    "chains.boundary_calls",
    "homology.snf_cells", "homology.snf_nnz",
)

# Every per-layer metric of a traced pass, with its unit.
LAYER_METRICS = {
    "cli.self_s": "s", "cli.out_bytes": "bytes",
    "simplicial.cells_enumerated": "count",
    "simplicial.nondegenerate_ratio": "ratio",
    "pairing.build_calls": "count", "pairing.build_s": "s",
    "pairing.validate_s": "s", "pairing.pairs": "count",
    "pairing.critical_cells": "count", "pairing.export_s": "s",
    "pairing.rule_calls": "count", "pairing.rule_s": "s",
    "flow.stabilize_calls": "count", "flow.stabilize_s": "s",
    "flow.iterations": "count", "flow.dual_route_checks": "count",
    "chains.boundary_calls": "count", "chains.boundary_s": "s",
    "chains.boundary_terms": "count",
    "homology.slice_calls": "count", "homology.slice_s": "s",
    "homology.slice_entries": "count",
    "homology.snf_calls": "count", "homology.snf_s": "s",
    "homology.snf_cells": "count", "homology.snf_nnz": "count",
    "homology.other_s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
}


# --- counts taken from a call's arguments and result -------------------------------

def _count_build(counts: Counter, args: tuple, result) -> None:
    matching, report = result
    counts["pairing.build_calls"] += 1
    counts["pairing.pairs"] += len(matching.pairs)
    counts["pairing.critical_cells"] += sum(
        len(deg) + len(unmatched) for deg, unmatched in report.strata.values())


def _count_rule(counts: Counter, args: tuple, result) -> None:
    counts["pairing.rule_calls"] += 1


def _count_stabilize(counts: Counter, args: tuple, result) -> None:
    counts["flow.stabilize_calls"] += 1
    counts["flow.iterations"] += result[1]


def _count_boundary(counts: Counter, args: tuple, result) -> None:
    counts["chains.boundary_calls"] += 1
    counts["chains.boundary_terms"] += len(args[0])


def _count_slice(counts: Counter, args: tuple, result) -> None:
    counts["homology.slice_calls"] += 1
    counts["homology.slice_entries"] += \
        len(result.basis_hi) * len(result.basis_lo)


def _count_snf(counts: Counter, args: tuple, result) -> None:
    matrix = args[0]
    counts["homology.snf_calls"] += 1
    counts["homology.snf_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)
    counts["homology.snf_nnz"] += sum(1 for row in matrix for v in row if v)


def surjections(dim: int, length: int) -> int:
    """Nondegenerate words in stratum (dim, length): dim! * S(length, dim)."""
    if dim == 0:
        return 1 if length == 0 else 0
    return sum((-1) ** k * math.comb(dim, k) * (dim - k) ** length
               for k in range(dim + 1))


# (module, attribute, self-time metric, counter); an attribute "Cls.meth"
# is a method, patched on the class.
SPANS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("fkmorse.cli", "main", "cli.self_s", None),
    ("fkmorse.pairing", "build_matching", "pairing.build_s", _count_build),
    ("fkmorse.pairing", "validate_matching", "pairing.validate_s", None),
    ("fkmorse.pairing", "Matching.to_json", "pairing.export_s", None),
    ("fkmorse.pairing", "CriticalReport.to_csv", "pairing.export_s", None),
    ("fkmorse.pairing", "matching_to_dot", "pairing.export_s", None),
    ("fkmorse.pairing", "SteepnessRule.pair_up", "pairing.rule_s", _count_rule),
    ("fkmorse.pairing", "SteepnessRule.pair_down", "pairing.rule_s",
     _count_rule),
    ("fkmorse.flow", "FlowContext.stabilize", "flow.stabilize_s",
     _count_stabilize),
    ("fkmorse.chains", "boundary", "chains.boundary_s", _count_boundary),
    ("fkmorse.homology", "build_slice", "homology.slice_s", _count_slice),
    ("fkmorse.homology", "smith_normal_form", "homology.snf_s", _count_snf),
    ("fkmorse.homology", "homology_of_slices", "homology.other_s", None),
    ("fkmorse.homology", "compute_homology", "homology.other_s", None),
    ("fkmorse.homology", "stability_scan", "homology.other_s", None),
)


class Tracer:
    """Spans of one traced pass: [name, start, end, parent, job] each."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job: Optional[int] = None
        self._open: list[int] = []
        self._contexts: list = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---

    def _span(self, name: str, layer: str, fn: Callable,
              count: Optional[Callable]) -> Callable:
        spans, open_, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.job]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{layer}.errors"] += 1
                raise
            finally:
                span[2] = perf_counter()
                open_.pop()
            if count is not None:
                count(counts, args, result)
            return result
        return traced

    def _count_cells(self, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(dim, length):
            counts["simplicial.cells_enumerated"] += \
                dim ** length if dim else int(length == 0)
            counts["simplicial.nondegenerate"] += surjections(dim, length)
            return fn(dim, length)
        return counted

    def _register_context(self, init: Callable) -> Callable:
        contexts = self._contexts

        @functools.wraps(init)
        def registered(ctx, *args, **kwargs):
            init(ctx, *args, **kwargs)
            contexts.append(ctx)
        return registered

    def begin_job(self, job: int) -> None:
        self.job = job

    def end_job(self) -> None:
        """Read the dual-route checks off every FlowContext the job made."""
        self.counts["flow.dual_route_checks"] += sum(
            ctx.dual_route_checks for ctx in self._contexts)
        self._contexts.clear()
        self.job = None

    def reset(self) -> None:
        """Start a new pass; the wrappers keep these same containers."""
        self.spans.clear()
        self.counts.clear()

    # --- patching ---

    def _replace(self, original: object, wrapper: object) -> None:
        """Rebind every name under which a module of fkmorse holds original."""
        for modname, module in list(sys.modules.items()):
            if modname != "fkmorse" and not modname.startswith("fkmorse."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for modname, attr, metric, count in SPANS:
            module = sys.modules[modname]
            layer = metric.split(".")[0]
            name = f"{layer}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._span(name, layer, original, count))
            else:
                original = getattr(module, attr)
                self._replace(original,
                              self._span(name, layer, original, count))
        simplicial = sys.modules["fkmorse.simplicial"]
        enumerate_stratum = simplicial.enumerate_stratum
        self._replace(enumerate_stratum, self._count_cells(enumerate_stratum))
        cls = sys.modules["fkmorse.flow"].FlowContext
        self._patches.append((cls, "__init__", vars(cls)["__init__"]))
        cls.__init__ = self._register_context(vars(cls)["__init__"])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- derived metrics ---

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its direct children cover, summed
        per self-time metric."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        metric_of = {f"{m.split('.')[0]}.{attr}": m for _, attr, m, _ in SPANS}
        out: dict[str, float] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            metric = metric_of[name]
            out[metric] = out.get(metric, 0.0) + (end - start - child[k])
        return out

    def layer_metrics(self, out_bytes: int) -> dict[str, float]:
        """Every LAYER_METRICS value for the pass just traced."""
        values: dict[str, float] = {name: 0 for name in LAYER_METRICS}
        values.update(self.self_times())
        for name in LAYER_METRICS:
            if name in self.counts:
                values[name] = self.counts[name]
        cells = self.counts["simplicial.cells_enumerated"]
        values["simplicial.nondegenerate_ratio"] = \
            self.counts["simplicial.nondegenerate"] / cells if cells else 0.0
        values["cli.out_bytes"] = out_bytes
        return values


def exact_counts(metrics: dict[str, float]) -> dict[str, int]:
    return {name: int(metrics[name]) for name in EXACT_COUNTS}


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced passes (counts repeat, so their median
    is their value)."""
    return {name: statistics.median(p[name] for p in passes)
            for name in passes[0]}
