"""Spans around the package's public functions, for the traced run.

The traced run replaces each function below by a timing wrapper at the
module attribute through which the package calls it, and puts the original
back when the run ends; no program source changes.  A wrapper records a
span (layer, start, end, parent span, request id, whether it returned) only
while a request is in flight, so input preparation and answer checking
leave no spans.  Spans are kept in memory and written out at the end.

A layer's ``self_s`` is its spans' time minus the time their child spans
cover.  Everything runs on one thread, so nothing waits on a queue or lock
and no wait metric exists.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterator

from bellgraphs import bell, candidates, graphs, lower, upper


@dataclass(frozen=True)
class Probe:
    """Wrap ``module.attr``; spans are named ``layer``.  ``count`` adds the
    call's work counts to the tracer's counters."""

    layer: str
    module: ModuleType
    attr: str
    count: Callable[[Counter, tuple, Any], None] | None = None


def _add(key: str, value: Callable[[tuple, Any], int]) -> Callable[[Counter, tuple, Any], None]:
    def count(counts: Counter, args: tuple, result: Any) -> None:
        counts[key] += value(args, result)
    return count


def _count_argmax(counts: Counter, args: tuple, result: tuple[int, list[int]]) -> None:
    counts["argmax"] += len(result[1])
    counts["argmax_of"] += args[0].m


PROBES = (
    Probe("partitions.enumerate_partitions", bell, "enumerate_partitions",
          _add("partitions_out", lambda a, r: len(r))),
    Probe("partitions.neighbors_of", bell, "neighbors_of", _add("moves", lambda a, r: len(r))),
    Probe("bell.build_bell", bell, "build_bell", _add("edges_stored", lambda a, r: r.edge_count())),
    Probe("bell.scramble", bell, "scramble"),
    Probe("candidates.pstar_candidates", upper, "pstar_candidates",
          _add("omega3", lambda a, r: len(r.omega3))),
    Probe("candidates.satisfies_property1", candidates, "satisfies_property1"),
    Probe("candidates.satisfies_property2", candidates, "satisfies_property2"),
    Probe("candidates.neighbourhood_stats", candidates, "neighbourhood_stats"),
    Probe("candidates.neighbourhood_stats", upper, "neighbourhood_stats"),
    Probe("lineroot.krausz_root", upper, "krausz_root"),
    Probe("upper.phi", upper, "phi"),
    Probe("upper.reconstruct_upper_auto", upper, "reconstruct_upper_auto"),
    Probe("lower.reconstruct_from_bk", lower, "reconstruct_from_bk"),
    Probe("lower.reconstruction_candidates", lower, "reconstruction_candidates", _count_argmax),
    Probe("lower.neighborhood_components", lower, "neighborhood_components"),
    Probe("lower.detect_k_regime", lower, "detect_k_regime"),
    Probe("lower.candidate_graph", lower, "candidate_graph"),
    Probe("graphs.canonical_code", graphs, "canonical_code_of_sets"),
    Probe("graphs.canonical_code", bell, "canonical_code_of_sets"),
)

# Every per-layer metric, in BENCHMARK.json order: (name, unit, better).
PER_LAYER = (
    ("partitions.enumerate_partitions.calls", "count", "lower"),
    ("partitions.enumerate_partitions.self_s", "s", "lower"),
    ("partitions.enumerate_partitions.out", "count", "lower"),
    ("partitions.neighbors_of.calls", "count", "lower"),
    ("partitions.neighbors_of.self_s", "s", "lower"),
    ("partitions.neighbors_of.kept_ratio", "ratio", "higher"),
    ("bell.build_bell.self_s", "s", "lower"),
    ("bell.scramble.calls", "count", "lower"),
    ("bell.scramble.self_s", "s", "lower"),
    ("candidates.pstar_candidates.calls", "count", "lower"),
    ("candidates.pstar_candidates.self_s", "s", "lower"),
    ("candidates.satisfies_property1.calls", "count", "lower"),
    ("candidates.satisfies_property1.self_s", "s", "lower"),
    ("candidates.satisfies_property2.calls", "count", "lower"),
    ("candidates.satisfies_property2.self_s", "s", "lower"),
    ("candidates.neighbourhood_stats.calls", "count", "lower"),
    ("candidates.neighbourhood_stats.self_s", "s", "lower"),
    ("candidates.omega3_ratio", "ratio", "higher"),
    ("lineroot.krausz_root.calls", "count", "lower"),
    ("lineroot.krausz_root.self_s", "s", "lower"),
    ("lineroot.krausz_root.fail_ratio", "ratio", "lower"),
    ("upper.phi.calls", "count", "lower"),
    ("upper.phi.self_s", "s", "lower"),
    ("upper.reconstruct_upper_auto.self_s", "s", "lower"),
    ("lower.reconstruction_candidates.self_s", "s", "lower"),
    ("lower.neighborhood_components.calls", "count", "lower"),
    ("lower.neighborhood_components.self_s", "s", "lower"),
    ("lower.detect_k_regime.self_s", "s", "lower"),
    ("lower.candidate_graph.calls", "count", "lower"),
    ("lower.candidate_graph.self_s", "s", "lower"),
    ("lower.candidates_ratio", "ratio", "lower"),
    ("lower.candidate_graph.used_ratio", "ratio", "higher"),
    ("lower.reconstruct_from_bk.chi3_wrong", "count", "lower"),
    ("graphs.canonical_code.calls", "count", "lower"),
    ("graphs.canonical_code.self_s", "s", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self) -> None:
        # (layer, start_ns, end_ns, parent index or -1, request id, returned)
        self.spans: list[tuple[str, int, int, int, int, bool] | None] = []
        self.counts: Counter = Counter()
        self.request: int | None = None
        self._open: list[int] = []

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        saved = [(p.module, p.attr, getattr(p.module, p.attr)) for p in PROBES]
        try:
            for probe, (_, _, original) in zip(PROBES, saved):
                setattr(probe.module, probe.attr, self._wrap(probe, original))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        spans, open_spans, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            request = self.request
            if request is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (probe.layer, start, end, parent, request, returned)
            if probe.count is not None:
                probe.count(self.counts, args, result)
            return result

        return traced

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self time in seconds, and calls that raised."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "raised": 0})
        for (layer, start, end, _, _, returned), child in zip(self.spans, covered):
            t = totals[layer]
            t["calls"] += 1
            t["self_s"] += (end - start - child) / 1e9
            t["raised"] += not returned
        return totals

    def metrics(self, chi3_wrong: int) -> dict[str, float]:
        """Every PER_LAYER metric; a layer the workload never reached reads 0."""
        totals = self.layer_totals()
        c = self.counts
        values: dict[str, float] = {}
        for layer, t in totals.items():
            values[f"{layer}.calls"] = t["calls"]
            values[f"{layer}.self_s"] = t["self_s"]
        values["partitions.enumerate_partitions.out"] = c["partitions_out"]
        values["partitions.neighbors_of.kept_ratio"] = _ratio(c["edges_stored"], c["moves"])
        values["candidates.omega3_ratio"] = _ratio(
            c["omega3"], totals.get("candidates.satisfies_property1", {}).get("calls", 0))
        krausz = totals.get("lineroot.krausz_root", {"calls": 0, "raised": 0})
        values["lineroot.krausz_root.fail_ratio"] = _ratio(krausz["raised"], krausz["calls"])
        values["lower.candidates_ratio"] = _ratio(c["argmax"], c["argmax_of"])
        values["lower.candidate_graph.used_ratio"] = _ratio(
            totals.get("lower.reconstruct_from_bk", {}).get("calls", 0),
            totals.get("lower.candidate_graph", {}).get("calls", 0))
        values["lower.reconstruct_from_bk.chi3_wrong"] = chi3_wrong
        return {name: values.get(name, 0) for name, _, _ in PER_LAYER}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("index\tlayer\tstart_ns\tend_ns\tparent\trequest\treturned\n")
            for i, (layer, start, end, parent, request, returned) in enumerate(self.spans):
                out.write(f"{i}\t{layer}\t{start}\t{end}\t{parent}\t{request}\t{int(returned)}\n")
