import random

import pytest

from bellgraphs.graphs import (
    Graph,
    canonical_code,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_graph6,
    generate_nonisomorphic_graphs,
    is_isomorphic,
    line_graph,
    normalize_ddagger,
    star_graph,
    to_graph6,
)
from bellgraphs.lineroot import NotLineGraph, krausz_root


def graphs_with_m_edges(m):
    """Independent enumeration of all graphs with exactly m edges and no
    isolated vertices, up to isomorphism, by repeated edge addition."""
    if m == 0:
        return [empty_graph(0)]
    seen = {}
    for base in graphs_with_m_edges(m - 1):
        n = base.n
        options = []
        for u in range(n):
            for v in range(u + 1, n):
                if not base.has_edge(u, v):
                    options.append(Graph.from_edges(n, base.edges() + [(u, v)]))
        for u in range(n):
            options.append(Graph.from_edges(n + 1, base.edges() + [(u, n)]))
        options.append(Graph.from_edges(n + 2, base.edges() + [(n, n + 1)]))
        for g in options:
            seen.setdefault(canonical_code(g), g)
    return list(seen.values())


class TestKrauszRoot:
    def test_triangle_has_two_roots(self):
        root = krausz_root(complete_graph(3))
        assert is_isomorphic(line_graph(root), complete_graph(3))
        assert any(is_isomorphic(root, h) for h in (complete_graph(3), star_graph(3)))

    def test_c5(self):
        assert is_isomorphic(krausz_root(cycle_graph(5)), cycle_graph(5))

    def test_claw_rejected(self):
        with pytest.raises(NotLineGraph):
            krausz_root(star_graph(3))

    def test_empty_vertices_give_disjoint_edges(self):
        root = krausz_root(empty_graph(2))
        assert is_isomorphic(root, Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_zero_vertices(self):
        assert krausz_root(empty_graph(0)) == empty_graph(0)

    def test_roundtrip_small(self):
        for n in range(0, 6):
            for g in generate_nonisomorphic_graphs(n):
                root = krausz_root(line_graph(g))
                assert is_isomorphic(line_graph(root), line_graph(g))
                assert is_isomorphic(normalize_ddagger(root), normalize_ddagger(g))

    def test_relabelled_line_graph_of_dqw(self):
        # L(DQw) under a labelling that makes the search backtrack past a
        # cover whose uncovered edges it has already seen with other loads.
        l = from_graph6("DvG")
        assert is_isomorphic(line_graph(krausz_root(l)), l)

    def test_roundtrip_relabelled(self):
        rng = random.Random(2604)
        for n in range(2, 7):
            for g in generate_nonisomorphic_graphs(n):
                lg = line_graph(g)
                for _ in range(3):
                    perm = list(range(lg.n))
                    rng.shuffle(perm)
                    l = lg.relabel(perm)
                    assert is_isomorphic(line_graph(krausz_root(l)), l), to_graph6(l)

    def test_rejects_exactly_non_line_graphs(self):
        for n in range(0, 6):
            expected_codes = {
                canonical_code(line_graph(h)) for h in graphs_with_m_edges(n)
            }
            for l in generate_nonisomorphic_graphs(n):
                try:
                    krausz_root(l)
                    got = True
                except NotLineGraph:
                    got = False
                assert got == (canonical_code(l) in expected_codes), l


class TestDdagger:
    def test_triangle_plus_isolated(self):
        g = disjoint_union(complete_graph(3), complete_graph(1))
        assert is_isomorphic(normalize_ddagger(g), star_graph(3))

    def test_c5_untouched(self):
        assert normalize_ddagger(cycle_graph(5)) == cycle_graph(5)

    def test_isolated_dropped(self):
        assert normalize_ddagger(complete_graph(1)) == empty_graph(0)

    def test_idempotent(self):
        for n in range(0, 6):
            for g in generate_nonisomorphic_graphs(n):
                d = normalize_ddagger(g)
                assert normalize_ddagger(d) == d
