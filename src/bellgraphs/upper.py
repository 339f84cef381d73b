"""Reconstruction of the host graph from full and upper Bell-type graphs.

Given only adjacency structure, the pipeline recovers the host with its
universal vertices removed: pick a ladder vertex (omega5), invert its open
neighbourhood as a line graph, and disambiguate triangle components from
claw components by counting neighbourhood triangles that close through an
outside vertex.  A regime detector distinguishes the part-bound cases that
admit a unique answer from the few degenerate shapes that do not.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bell import EmptyInput, UnlabeledGraph, induced_graph
from .candidates import CandidateSets, neighbourhood_stats, pstar_candidates
from .graphs import (
    Graph,
    canonical_code,
    complement,
    complete_graph,
    connected_components,
    count_triangles,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    is_claw_component,
    normalize_ddagger,
    path_graph,
)
from .lineroot import krausz_root

REGIME_EMPTY = "empty"
REGIME_SINGLE_VERTEX = "single_vertex"
REGIME_CLIQUE = "degenerate_clique"
REGIME_K5_MINUS = "degenerate_k5minus"
REGIME_LOW = "k_le_n_minus_2"
REGIME_N_MINUS_1 = "k_eq_n_minus_1"


class NoCandidate(RuntimeError):
    """The omega ladder is empty: the caller's promise was violated."""


@dataclass(frozen=True)
class Possibility:
    """One alternative in a degenerate regime, with its part-bound proviso."""

    graph: Graph
    k_condition: str


@dataclass
class ReconstructionReport:
    regime: str
    pivot: int | None = None
    result: Graph | None = None
    possibilities: tuple[Possibility, ...] = ()
    candidate_sets: CandidateSets | None = None


def phi(b: UnlabeledGraph, p: int, t_stat: int | None = None) -> Graph:
    """Graph read off the local structure at p.

    Invert the open neighbourhood as a line graph, normalize the root,
    then turn claw components back into triangles for each neighbourhood
    triangle that closes through a vertex outside the closed
    neighbourhood, and complement.  ``t_stat`` is p's count of such
    triangles when the caller has it.  Raises NotLineGraph when the open
    neighbourhood is not a line graph, which never happens at a genuine
    pivot of a Bell-type graph.
    """
    nb = sorted(b.adj[p])
    sub = induced_graph(b, nb)
    normalized = normalize_ddagger(krausz_root(sub))
    if t_stat is None:
        t_stat = neighbourhood_stats(b, p).t_stat
    missing = t_stat - count_triangles(normalized)
    if missing > 0:
        claws = [
            comp
            for comp in connected_components(normalized)
            if is_claw_component(normalized, comp)
        ]
        if len(claws) >= missing:
            drop = {v for comp in claws[:missing] for v in comp}
            kept = [v for v in range(normalized.n) if v not in drop]
            base = induced_subgraph(normalized, kept)
            normalized = disjoint_union(base, *(complete_graph(3) for _ in range(missing)))
    return complement(normalized)


def _two_vertex_lookup(b: UnlabeledGraph) -> Graph:
    if b.m == 1:
        return empty_graph(0)
    if b.m == 2 and b.has_edge(0, 1):
        return empty_graph(2)
    raise NoCandidate("2-vertex input is not a Bell-type graph of any host")


def reconstruct_prime_report(b: UnlabeledGraph) -> ReconstructionReport:
    """Recover the host-minus-universal-vertices graph, with diagnostics.

    Caller promises the input is (isomorphic to) a full Bell graph, or an
    at-least-k one with k at most n-2.
    """
    if b.m == 0:
        raise EmptyInput("no vertices")
    if b.m <= 2:
        return ReconstructionReport(regime=REGIME_LOW, result=_two_vertex_lookup(b))
    sets = pstar_candidates(b)
    if not sets.omega5:
        raise NoCandidate("omega5 empty: input is not a Bell-type graph in range")
    pivot = min(sets.omega5)
    result = phi(b, pivot, sets.stats[pivot].t_stat)
    return ReconstructionReport(regime=REGIME_LOW, pivot=pivot, result=result, candidate_sets=sets)


def reconstruct_prime(b: UnlabeledGraph) -> Graph:
    result = reconstruct_prime_report(b).result
    assert result is not None
    return result


def k5_minus() -> Graph:
    """The clique on 5 vertices with one edge removed."""
    g = complete_graph(5)
    rows = list(g.adj)
    rows[0] ^= 1 << 1
    rows[1] ^= 1 << 0
    return Graph(5, tuple(rows))


_K5_MINUS_CODE = canonical_code(k5_minus())


def reconstruct_upper_auto(b: UnlabeledGraph) -> ReconstructionReport:
    """Handle an at-least-k Bell graph without knowing k.

    Distinguishes the empty, single-vertex, clique and K5-minus-an-edge
    degenerate shapes (which only admit possibility sets), then uses the
    presence of a universal vertex to split k = n-1 (claw-closure
    reconstruction at that vertex) from k <= n-2 (ladder reconstruction).
    """
    if b.m == 0:
        return ReconstructionReport(regime=REGIME_EMPTY)
    if b.m == 1:
        return ReconstructionReport(
            regime=REGIME_SINGLE_VERTEX,
            possibilities=(Possibility(empty_graph(0), "k <= n"),),
        )
    if b.is_clique():
        n_vertices = b.m
        options = [
            Possibility(disjoint_union(complete_graph(n_vertices - 1), complete_graph(1)), "k <= n-1")
        ]
        if n_vertices == 4:
            options.append(Possibility(empty_graph(3), "k = n-1"))
        return ReconstructionReport(regime=REGIME_CLIQUE, possibilities=tuple(options))
    if b.m == 5 and b.canonical_code() == _K5_MINUS_CODE:
        return ReconstructionReport(
            regime=REGIME_K5_MINUS,
            possibilities=(
                Possibility(empty_graph(3), "k <= n-2"),
                Possibility(disjoint_union(path_graph(3), complete_graph(1)), "k = n-1"),
            ),
        )
    universal = b.universal_vertices()
    if universal:
        pivot = universal[0]
        return ReconstructionReport(
            regime=REGIME_N_MINUS_1, pivot=pivot, result=phi(b, pivot)
        )
    report = reconstruct_prime_report(b)
    return report
