import pytest

from bellgraphs.bell import FULL, UnlabeledGraph, at_least, build_bell, scramble_with_map
from bellgraphs.candidates import (
    TYPE_MERGE,
    TYPE_SPLIT_PAIR,
    TYPE_SPLIT_TRIPLE,
    neighbourhood_stats,
    pstar_candidates,
    psi_map,
    satisfies_property1,
    satisfies_property2,
)
from bellgraphs.graphs import complete_graph, cycle_graph, empty_graph
from bellgraphs.partitions import SetPartition, singleton_partition


def pstar_index(b):
    return b.index_of(singleton_partition(b.host.n))


class TestProperties:
    def test_pstar_passes_on_c4(self):
        b = build_bell(cycle_graph(4), FULL)
        u, perm = scramble_with_map(b, 0)
        image = perm[pstar_index(b)]
        assert satisfies_property1(u, image)
        assert satisfies_property2(u, image)

    def test_big_part_fails_property1(self):
        b = build_bell(empty_graph(5), FULL)
        u = b.as_unlabeled()
        i = b.index_of(SetPartition.from_text("0,1,2,3|4"))
        assert not satisfies_property1(u, i)

    def test_two_pair_parts_fail_property1(self):
        b = build_bell(empty_graph(4), FULL)
        u = b.as_unlabeled()
        i = b.index_of(SetPartition.from_text("0,1|2,3"))
        assert not satisfies_property1(u, i)

    def test_triple_plus_singleton_fails_property2(self):
        b = build_bell(empty_graph(4), FULL)
        u = b.as_unlabeled()
        i = b.index_of(SetPartition.from_text("0,1,2|3"))
        assert not satisfies_property2(u, i)

    def test_pstar_passes_on_c5(self):
        b = build_bell(cycle_graph(5), FULL)
        u = b.as_unlabeled()
        assert satisfies_property2(u, pstar_index(b))

    def test_vacuous_property2(self):
        # a 4-cycle of vertices: no triangles at all in any neighbourhood
        u = UnlabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert all(satisfies_property2(u, v) for v in range(4))


class TestStats:
    def test_full_empty3(self):
        b = build_bell(empty_graph(3), FULL)
        st = neighbourhood_stats(b.as_unlabeled(), pstar_index(b))
        assert (st.degree, st.n_stat, st.t_stat) == (3, 6, 1)

    def test_at_least_2_empty3(self):
        b = build_bell(empty_graph(3), at_least(2))
        st = neighbourhood_stats(b.as_unlabeled(), pstar_index(b))
        assert (st.degree, st.n_stat, st.t_stat) == (3, 6, 0)

    def test_single_vertex(self):
        b = build_bell(complete_graph(3), FULL)
        st = neighbourhood_stats(b.as_unlabeled(), 0)
        assert (st.degree, st.n_stat, st.t_stat) == (0, 0, 0)


class TestLadder:
    def test_clique_host_vacuous(self):
        b = build_bell(complete_graph(3), FULL)
        sets = pstar_candidates(b.as_unlabeled())
        assert sets.omega5 == (0,)

    def test_empty3_scrambled(self):
        b = build_bell(empty_graph(3), FULL)
        u, perm = scramble_with_map(b, 5)
        sets = pstar_candidates(u)
        assert perm[pstar_index(b)] in sets.omega5

    def test_c4_scrambled(self):
        b = build_bell(cycle_graph(4), FULL)
        u, perm = scramble_with_map(b, 11)
        sets = pstar_candidates(u)
        assert perm[pstar_index(b)] in sets.omega5

    def test_nesting(self):
        for host in [cycle_graph(4), cycle_graph(5), empty_graph(4)]:
            sets = pstar_candidates(build_bell(host, FULL).as_unlabeled())
            assert set(sets.omega5) <= set(sets.omega4) <= set(sets.omega3)
            assert sets.omega5

    def test_empty_input(self):
        with pytest.raises(ValueError):
            pstar_candidates(UnlabeledGraph.from_edges(0, []))


class TestPsi:
    def test_merge_type(self):
        b = build_bell(empty_graph(3), FULL)
        p = pstar_index(b)
        q = b.index_of(SetPartition.from_text("0,1|2"))
        assert psi_map(b, p, q) == ((0, 1), TYPE_MERGE)

    def test_split_type(self):
        b = build_bell(empty_graph(3), FULL)
        p = b.index_of(SetPartition.from_text("0,1|2"))
        q = pstar_index(b)
        assert psi_map(b, p, q) == ((0, 1), TYPE_SPLIT_PAIR)

    def test_triple_split_type(self):
        b = build_bell(empty_graph(3), FULL)
        p = b.index_of(SetPartition.from_text("0,1,2"))
        q = b.index_of(SetPartition.from_text("0|1,2"))
        assert psi_map(b, p, q) == ((1, 2), TYPE_SPLIT_TRIPLE)

    def test_non_neighbour_rejected(self):
        b = build_bell(empty_graph(3), FULL)
        p = pstar_index(b)
        q = b.index_of(SetPartition.from_text("0,1,2"))
        with pytest.raises(ValueError):
            psi_map(b, p, q)

    def test_bijective_at_pstar(self):
        host = cycle_graph(5)
        b = build_bell(host, FULL)
        p = pstar_index(b)
        images = {psi_map(b, p, q)[0] for q in b.neighbors[p]}
        non_edges = {
            (u, v)
            for u in range(5)
            for v in range(u + 1, 5)
            if not host.has_edge(u, v)
        }
        assert images == non_edges
        assert len(b.neighbors[p]) == len(non_edges)

