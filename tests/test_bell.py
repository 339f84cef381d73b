import hashlib
import json
import sys

import pytest
from hypothesis import given, settings

from bellgraphs.bell import (
    FULL,
    BellVariant,
    UnlabeledGraph,
    at_least,
    at_most,
    bell_to_json,
    build_bell,
    induced_graph,
    scramble,
    scramble_with_map,
    unlabeled_from_graph6,
)
from bellgraphs.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    generate_nonisomorphic_graphs,
    matching_graph,
    path_graph,
    star_graph,
    to_graph6,
)
from bellgraphs.partitions import PartitionCapExceeded, are_adjacent, singleton_partition

from .test_graphs import small_graphs


class TestVariant:
    def test_bounds(self):
        assert FULL.part_bounds(4) == (1, 4)
        assert at_most(2).part_bounds(4) == (1, 2)
        assert at_most(9).part_bounds(4) == (1, 4)
        assert at_least(3).part_bounds(4) == (3, 4)
        assert FULL.part_bounds(0) == (0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            at_least(0)
        with pytest.raises(ValueError):
            BellVariant("full", 3)
        with pytest.raises(ValueError):
            BellVariant("sideways")


def pinned_builds():
    """Lines the build digest below pins: for every host on at most 5
    vertices and every variant, a header, then each vertex's partition text
    and its neighbour row, in vertex order."""
    for n in range(6):
        for g in generate_nonisomorphic_graphs(n):
            variants = [FULL, *(at_most(k) for k in range(1, n + 2)),
                        *(at_least(k) for k in range(1, n + 2))]
            for variant in variants:
                b = build_bell(g, variant)
                yield f"{to_graph6(g)} {variant.label()} {b.m}\n"
                for p, row in zip(b.vertices, b.neighbors):
                    yield f"{p.to_text()}:{','.join(map(str, row))}\n"


class TestBuild:
    PINNED_DIGEST = "0983e27f8d2c836335433f5c1b274eb73ecdfedbb96c57039d07e49d68134010"

    def test_output_is_pinned(self):
        lines = list(pinned_builds())
        assert len(lines) == 4693
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == self.PINNED_DIGEST

    def test_clique_single_vertex(self):
        for n in (1, 3, 5):
            b = build_bell(complete_graph(n), FULL)
            assert (b.m, b.edge_count()) == (1, 0)

    def test_path3(self):
        b = build_bell(path_graph(3), FULL)
        assert (b.m, b.edge_count()) == (2, 1)

    def test_empty4_at_least_3(self):
        b = build_bell(empty_graph(4), at_least(3))
        assert (b.m, b.edge_count()) == (7, 18)

    def test_full_equals_at_most_n(self):
        for g in [cycle_graph(4), empty_graph(3), star_graph(3)]:
            full = build_bell(g, FULL)
            capped = build_bell(g, at_most(g.n))
            assert full.vertices == capped.vertices
            assert full.neighbors == capped.neighbors

    def test_at_least_above_n_is_empty(self):
        assert build_bell(cycle_graph(4), at_least(5)).m == 0

    def test_zero_vertex_host(self):
        b = build_bell(empty_graph(0), FULL)
        assert b.m == 1 and b.vertices[0].blocks == ()

    def test_cap(self):
        with pytest.raises(PartitionCapExceeded):
            build_bell(empty_graph(8), FULL, cap=10)

    @given(small_graphs(max_n=4))
    @settings(max_examples=30, deadline=None)
    def test_edges_match_adjacency_filter(self, g):
        for variant in [FULL, at_most(2), at_least(2)]:
            b = build_bell(g, variant)
            want = {
                (i, j)
                for i in range(b.m)
                for j in range(i + 1, b.m)
                if are_adjacent(b.vertices[i], b.vertices[j])
            }
            assert set(b.edges()) == want

    def test_universal_vertex_shift(self):
        for g in [empty_graph(3), path_graph(3), cycle_graph(4)]:
            plus = Graph.from_edges(g.n + 1, g.edges() + [(v, g.n) for v in range(g.n)])
            for k in range(1, g.n + 1):
                a = build_bell(g, at_least(k)).as_unlabeled().canonical_code()
                b = build_bell(plus, at_least(k + 1)).as_unlabeled().canonical_code()
                assert a == b

    def test_oracle_example(self):
        # an at-least-2 graph of empty_3 and the full graph of empty_3 differ
        # exactly by the all-merged partition
        b_full = build_bell(empty_graph(3), FULL)
        b_ge2 = build_bell(empty_graph(3), at_least(2))
        assert b_full.m == 5 and b_ge2.m == 4


class TestScramble:
    def test_deterministic(self):
        b = build_bell(empty_graph(4), FULL)
        u1, u2 = scramble(b, 42), scramble(b, 42)
        assert tuple(u1.adj) == tuple(u2.adj)

    def test_isomorphic_and_degrees(self):
        b = build_bell(cycle_graph(5), FULL)
        for seed in (0, 1, 2):
            u = scramble(b, seed)
            assert u.degree_multiset() == tuple(sorted(b.degree(i) for i in range(b.m)))
            assert u.canonical_code() == b.as_unlabeled().canonical_code()

    def test_map_consistency(self):
        b = build_bell(path_graph(4), FULL)
        u, perm = scramble_with_map(b, 9)
        for i in range(b.m):
            assert {perm[j] for j in b.neighbors[i]} == u.adj[perm[i]]


class TestUnlabeled:
    def test_rows_fit_their_size(self):
        # a frozenset built from a tuple is sized for growth, from a set to fit
        u = build_bell(matching_graph(8, 2), at_most(4)).as_unlabeled()
        size = sum(sys.getsizeof(row) for row in u.adj)
        assert size == sum(sys.getsizeof(frozenset(set(row))) for row in u.adj)

    def test_from_edges_and_queries(self):
        u = UnlabeledGraph.from_edges(4, [(0, 1), (1, 2)])
        assert u.m == 4 and u.degree(1) == 2 and not u.has_edge(0, 2)
        assert u.universal_vertices() == []
        assert u.degree_multiset() == (0, 1, 1, 2)

    def test_graph6_roundtrip(self):
        b = build_bell(empty_graph(4), FULL)
        u = b.as_unlabeled()
        again = unlabeled_from_graph6(u.to_graph6())
        assert tuple(again.adj) == tuple(u.adj)

    def test_induced_graph(self):
        u = UnlabeledGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        sub = induced_graph(u, [1, 2, 3])
        assert sub.edges() == [(0, 1)]

    def test_clique_detection(self):
        assert UnlabeledGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)]).is_clique()
        assert not UnlabeledGraph.from_edges(3, [(0, 1)]).is_clique()


class TestExports:
    def test_json_shape(self):
        b = build_bell(path_graph(3), FULL)
        payload = bell_to_json(b)
        assert payload["variant"] == "full" and payload["k"] is None
        assert payload["host_graph6"] == to_graph6(path_graph(3))
        assert payload["vertices"] == ["0|1|2", "0,2|1"]
        assert payload["edges"] == [[0, 1]]
        json.dumps(payload)  # serializable

    def test_dot(self):
        b = build_bell(path_graph(3), FULL)
        dot = b.as_unlabeled().to_dot()
        assert "0 -- 1;" in dot and dot.startswith("graph")
