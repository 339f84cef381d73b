"""Materialized Bell colouring graphs and their unlabeled counterparts.

A BellGraph keeps its partition payloads, one per vertex, sorted by
`SetPartition.blocks`, so construction is byte-reproducible; an
UnlabeledGraph is adjacency structure only and is what the reconstruction
algorithms accept.  The build identifies each partition by its block-mask
key (`SetPartition.masks`) and indexes the keys by dict.  A vertex's row is
its own move list from `neighbors_of`, looked up by key: the move relation
is symmetric, so no all-pairs comparison and no second pass is needed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Graph, canonical_code_of_sets, edges_to_dot, graph6_encode, to_graph6
from .partitions import SetPartition, enumerate_partitions, neighbors_of

VARIANT_FULL = "full"
VARIANT_AT_MOST = "at_most"
VARIANT_AT_LEAST = "at_least"


@dataclass(frozen=True)
class BellVariant:
    """Which induced subgraph of the full Bell graph to build."""

    kind: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (VARIANT_FULL, VARIANT_AT_MOST, VARIANT_AT_LEAST):
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if self.kind == VARIANT_FULL:
            if self.k is not None:
                raise ValueError("full variant takes no part bound")
        elif self.k is None or self.k < 1:
            raise ValueError("bounded variants need k >= 1")

    def part_bounds(self, n: int) -> tuple[int, int]:
        if self.kind == VARIANT_FULL:
            return (0 if n == 0 else 1, n)
        if self.kind == VARIANT_AT_MOST:
            assert self.k is not None
            return (0 if n == 0 else 1, min(self.k, n))
        assert self.k is not None
        return (self.k, n)

    def label(self) -> str:
        if self.kind == VARIANT_FULL:
            return "full"
        return f"{self.kind}-{self.k}"


FULL = BellVariant(VARIANT_FULL)


def at_most(k: int) -> BellVariant:
    return BellVariant(VARIANT_AT_MOST, k)


def at_least(k: int) -> BellVariant:
    return BellVariant(VARIANT_AT_LEAST, k)


class BellGraph:
    """Labeled Bell-type graph: partitions as vertices, moves as edges."""

    def __init__(
        self,
        host: Graph,
        variant: BellVariant,
        vertices: tuple[SetPartition, ...],
        neighbors: tuple[tuple[int, ...], ...],
    ) -> None:
        self.host = host
        self.variant = variant
        self.vertices = vertices
        self.neighbors = neighbors
        self._index: dict[SetPartition, int] | None = None

    @property
    def m(self) -> int:
        return len(self.vertices)

    def index_of(self, p: SetPartition) -> int:
        if self._index is None:
            self._index = {q: i for i, q in enumerate(self.vertices)}
        return self._index[p]

    def degree(self, i: int) -> int:
        return len(self.neighbors[i])

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.neighbors[i]

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.m) for j in self.neighbors[i] if i < j]

    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2

    def as_unlabeled(self) -> "UnlabeledGraph":
        """Identity-labeled view; vertex i here is vertex i there."""
        # Built from a set, a frozenset's table fits its size (see
        # scramble_with_map); built from a tuple it is sized for growth.
        return UnlabeledGraph(tuple(frozenset(set(nb)) for nb in self.neighbors))


def build_bell(g: Graph, variant: BellVariant, cap: int = 500_000) -> BellGraph:
    lo, hi = variant.part_bounds(g.n)
    parts = enumerate_partitions(g, lo, hi, cap=cap) if lo <= hi else []
    parts.sort(key=lambda p: p.blocks)
    keys = [p.masks for p in parts]
    index = {key: i for i, key in enumerate(keys)}
    rows = tuple(tuple(sorted([index[q] for q in neighbors_of(g, key, lo, hi)])) for key in keys)
    return BellGraph(g, variant, tuple(parts), rows)


class EmptyInput(ValueError):
    """The unlabeled graph has no vertices."""


class UnlabeledGraph:
    """Adjacency structure only; the reconstruction algorithms' input."""

    __slots__ = ("adj",)

    def __init__(self, adj: tuple[frozenset[int], ...]) -> None:
        self.adj = adj

    @classmethod
    def from_edges(cls, m: int, edges: Iterable[tuple[int, int]]) -> "UnlabeledGraph":
        sets: list[set[int]] = [set() for _ in range(m)]
        for u, v in edges:
            if u == v or not (0 <= u < m and 0 <= v < m):
                raise ValueError(f"bad edge ({u}, {v})")
            sets[u].add(v)
            sets[v].add(u)
        return cls(tuple(frozenset(s) for s in sets))

    @property
    def m(self) -> int:
        return len(self.adj)

    def neighbors(self, i: int) -> frozenset[int]:
        return self.adj[i]

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.adj[i]

    def degree(self, i: int) -> int:
        return len(self.adj[i])

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.m) for j in sorted(self.adj[i]) if i < j]

    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def degree_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(len(s) for s in self.adj))

    def universal_vertices(self) -> list[int]:
        full = len(self.adj) - 1
        return [v for v, row in enumerate(self.adj) if len(row) == full]

    def is_clique(self) -> bool:
        full = len(self.adj) - 1
        return all(len(row) == full for row in self.adj)

    def canonical_code(self) -> bytes:
        return canonical_code_of_sets(self.m, self.adj)

    def to_graph6(self) -> str:
        return graph6_encode(self.m, self.has_edge)

    def to_dot(self, name: str = "B") -> str:
        return edges_to_dot(self.m, self.edges(), name)


def unlabeled_from_graph6(text: str) -> UnlabeledGraph:
    from .graphs import graph6_decode

    n, edges = graph6_decode(text)
    return UnlabeledGraph.from_edges(n, edges)


def induced_graph(u: UnlabeledGraph, vertices: Sequence[int]) -> Graph:
    """Induced subgraph as a small Graph, reindexed in the order given."""
    pos = {v: i for i, v in enumerate(vertices)}
    edges = [
        (pos[v], pos[w])
        for v in vertices
        for w in u.adj[v]
        if w in pos and pos[v] < pos[w]
    ]
    return Graph.from_edges(len(vertices), edges)


def scramble_with_map(b: BellGraph, seed: int) -> tuple[UnlabeledGraph, tuple[int, ...]]:
    """Scramble and also return the permutation (old index -> new index)."""
    rng = random.Random(seed)
    perm = list(range(b.m))
    rng.shuffle(perm)
    adj: list[frozenset[int]] = [frozenset()] * b.m
    for i, nb in enumerate(b.neighbors):
        # Built from a set, a frozenset's table fits its size; built from a
        # list it can be twice as large, which the held scrambles would pay.
        adj[perm[i]] = frozenset({perm[j] for j in nb})
    return UnlabeledGraph(tuple(adj)), tuple(perm)


def scramble(b: BellGraph, seed: int) -> UnlabeledGraph:
    """Relabel by a seed-determined uniform permutation, dropping payloads."""
    return scramble_with_map(b, seed)[0]


def bell_to_json(b: BellGraph) -> dict:
    return {
        "variant": b.variant.kind,
        "k": b.variant.k,
        "host_graph6": to_graph6(b.host),
        "vertices": [p.to_text() for p in b.vertices],
        "edges": [[i, j] for i, j in b.edges()],
    }
