"""Tests of the benchmark itself: output contract, checkers and tracing."""
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_package()

import tracer  # noqa: E402
import workloads  # noqa: E402
from bellgraphs import bell  # noqa: E402
from bellgraphs.bell import BellGraph, UnlabeledGraph  # noqa: E402
from bellgraphs.graphs import complete_graph, empty_graph  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRIPT = Path(run.__file__)

# Layers each workload must reach; every other traced layer must stay at 0 calls.
EXERCISED = {
    "upper-recon": {"candidates.pstar_candidates", "candidates.satisfies_property1",
                    "candidates.satisfies_property2", "candidates.neighbourhood_stats",
                    "lineroot.krausz_root", "upper.phi"},
    "lower-recon": {"lower.neighborhood_components", "lower.candidate_graph"},
    "build": {"partitions.enumerate_partitions", "partitions.neighbors_of", "bell.scramble"},
    "iso-oracle": {"graphs.canonical_code"},
}


@pytest.fixture(scope="module")
def first_rounds():
    """Set up every workload once and draw its first round."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(5)
        out[name] = (w, next(w.rounds()))
    return out


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(tracer.PER_LAYER)


def test_tiny_run_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "all", "--seed", "3", "--seconds", "0.01"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in run.WORKLOAD_NAMES:
        for metric in SPEC["end_to_end"]:
            got = result["metrics"][f"{workload}/{metric['name']}"]
            assert got["unit"] == metric["unit"] and got["value"] > 0
    printed = [line.split()[0] for line in lines if "(samples=" in line]
    assert printed == [m["name"] for m in SPEC["end_to_end"]] * len(run.WORKLOAD_NAMES)


def _corrupt(name: str, answer):
    if name == "upper-recon":
        return dataclasses.replace(answer, result=empty_graph(12))
    if name == "lower-recon":
        return complete_graph(answer.n + 1)
    if name == "build":
        b, u = answer
        i = next(v for v in range(u.m) if u.adj[v])
        j = min(u.adj[i])
        adj = list(u.adj)
        adj[i], adj[j] = adj[i] - {j}, adj[j] - {i}
        return b, UnlabeledGraph(tuple(adj))
    return b"not the code"


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_checker_accepts_answers_and_flags_corrupted_ones(first_rounds, name):
    w, batch = first_rounds[name]
    if name == "iso-oracle":  # a pair, which starts at an even position
        pick = max(range(0, len(batch), 2), key=lambda i: batch[i].m)
        batch = batch[pick:pick + 2]
    else:  # the largest upper request is a low-regime one, whose answer carries a result
        batch = batch[:1] if name == "build" else [max(batch, key=lambda req: req.m)]
    answers = [w.call(req.payload) for req in batch]
    assert all(w.check(batch, answers))
    answers[0] = _corrupt(name, answers[0])
    assert w.check(batch, answers)[0] is False
    answers[0] = RuntimeError("raised")
    assert w.check(batch, answers)[0] is False


def _without(b: BellGraph, drop_vertex: int | None, drop_edges: set) -> BellGraph:
    keep = [i for i in range(b.m) if i != drop_vertex]
    index = {old: new for new, old in enumerate(keep)}
    neighbors = tuple(tuple(index[j] for j in b.neighbors[i]
                            if j in index and frozenset((i, j)) not in drop_edges) for i in keep)
    return BellGraph(b.host, b.variant, tuple(b.vertices[i] for i in keep), neighbors)


def test_build_checker_flags_missing_vertices_and_moves(first_rounds):
    w, batch = first_rounds["build"]
    req = next(r for r in batch if r.payload[0].edge_count() > 0)
    b, _ = w.call(req.payload)
    seed = req.payload[2]
    # a partition dropped with its edges, the copy otherwise consistent
    short = _without(b, b.m - 1, set())
    assert w.check([req], [(short, bell.scramble(short, seed))]) == [False]
    # one move dropped at every vertex, from both ends
    sparse = _without(b, None, {frozenset((i, min(nb))) for i, nb in enumerate(b.neighbors) if nb})
    assert w.check([req], [(sparse, bell.scramble(sparse, seed))]) == [False]


def test_iso_checker_flags_codes_that_are_not_canonical():
    batch = next(workloads.IsoOracle(5).rounds())
    # the same code for every graph
    assert False in workloads.IsoOracle(5).check(batch, [b"code"] * len(batch))
    # a label-invariant that is not a canonical form: the degree multiset
    degrees = [repr(req.payload.degree_multiset()).encode() for req in batch]
    assert False in workloads.IsoOracle(5).check(batch, degrees)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_round_reaches_its_layers_only(first_rounds, name):
    w, batch = first_rounds[name]
    spans = tracer.Tracer()
    with spans.installed():
        for i, req in enumerate(batch[:40]):
            spans.request = i
            w.call(req.payload)
            spans.request = None
    values = spans.metrics(0)
    assert list(values) == [m for m, _, _ in tracer.PER_LAYER]
    reached = {layer for layer, *_ in spans.spans}
    assert EXERCISED[name] <= reached
    others = set().union(*EXERCISED.values()) - EXERCISED[name] - {"graphs.canonical_code"}
    assert not reached & others
    # the package is back to its own functions
    assert all(not hasattr(getattr(p.module, p.attr), "__wrapped__") for p in tracer.PROBES)


def test_traced_run_counts_repeat_for_a_seed():
    def traced():
        out = subprocess.run(
            [sys.executable, str(SCRIPT), "--workload", "build", "--seed", "2", "--trace", "1"],
            capture_output=True, text=True, timeout=300, check=True,
        )
        return json.loads(out.stdout.splitlines()[-1])["metrics"]

    first, second = traced(), traced()
    assert list(first) == [m["name"] for m in SPEC["per_layer"]]
    for name, metric in first.items():
        if not name.endswith("self_s"):
            assert metric == second[name], name
    assert first["partitions.neighbors_of.calls"]["value"] > 0
    assert first["partitions.neighbors_of.kept_ratio"]["value"] == pytest.approx(0.5)


def test_same_seed_same_inputs_and_no_repeats():
    a, b = workloads.Build(4), workloads.Build(4)
    rounds_a, rounds_b = a.rounds(), b.rounds()
    keys = []
    for _ in range(3):
        batch_a, batch_b = next(rounds_a), next(rounds_b)
        assert [r.key for r in batch_a] == [r.key for r in batch_b]
        keys += [r.key for r in batch_a]
    assert len(set(keys)) == len(keys)


def test_stirling_numbers_sum_to_bell_numbers():
    assert [sum(workloads.stirling2(n, k) for k in range(n + 1)) for n in range(8)] == \
        [1, 1, 2, 5, 15, 52, 203, 877]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SCRIPT.parent, tmp_path / SCRIPT.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{SCRIPT.parent.name}/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
