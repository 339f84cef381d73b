import hashlib
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

    def test_roundtrip_random_hosts(self):
        rng = random.Random(2605)
        for n in range(7, 13):
            for _ in range(8):
                p = rng.uniform(0.25, 0.6)
                host = Graph.from_edges(
                    n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
                )
                lg = line_graph(host)
                perm = list(range(lg.n))
                rng.shuffle(perm)
                l = lg.relabel(perm)
                assert is_isomorphic(line_graph(krausz_root(l)), l), to_graph6(l)

    def test_line_graph_of_k10_minus_an_edge_rejected(self):
        l = line_graph(complete_graph(10))
        with pytest.raises(NotLineGraph):
            krausz_root(Graph.from_edges(l.n, l.edges()[1:]))

    def test_rejects_exactly_non_line_graphs(self):
        for n in range(0, 8):
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


def root_or_reject(l):
    try:
        return to_graph6(krausz_root(l))
    except NotLineGraph:
        return "reject"


def pinned_roots():
    """Lines the root digest below pins: the labelled root found for every
    labelled graph on at most 5 vertices, and for every graph g on at most
    6 vertices, g itself and two seeded relabellings of L(g).  The search
    order shows in the root's labels.  Ties between equal-sized cliques
    change the root of only a few labellings, such as the diamond plus an
    isolated vertex labelled Dwo, so every labelling of the small graphs
    is in.
    """
    for n in range(6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for bits in range(1 << len(pairs)):
            l = Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            yield f"{to_graph6(l)} {root_or_reject(l)}\n"
    rng = random.Random(2606)
    for n in range(7):
        for g in generate_nonisomorphic_graphs(n):
            fields = [to_graph6(g), root_or_reject(g)]
            lg = line_graph(g)
            for _ in range(2):
                perm = list(range(lg.n))
                rng.shuffle(perm)
                l = lg.relabel(perm)
                fields += [to_graph6(l), root_or_reject(l)]
            yield " ".join(fields) + "\n"


class TestPinned:
    PINNED_DIGEST = "35b1dee2a485b16ce8c38e0f8d38583a97c586afbde5f412feda6b31a3b9deb2"

    def test_roots_are_pinned(self):
        lines = list(pinned_roots())
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == self.PINNED_DIGEST


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
