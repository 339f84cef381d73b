import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellgraphs.graphs import (
    Graph,
    complete_graph,
    empty_graph,
    generate_nonisomorphic_graphs,
    path_graph,
)
from bellgraphs.partitions import (
    PartitionCapExceeded,
    SetPartition,
    are_adjacent,
    count_partitions,
    enumerate_partitions,
    is_independent_partition,
    make_partition,
    neighbors_of,
    singleton_partition,
)

from .test_graphs import small_graphs


def brute_set_partitions(n):
    """Independent recursive generator of all partitions of {0..n-1}."""
    if n == 0:
        yield []
        return
    for smaller in brute_set_partitions(n - 1):
        v = n - 1
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [v]] + smaller[i + 1 :]
        yield smaller + [[v]]


def bell_number(n):
    table = [1]
    for m in range(1, n + 1):
        from math import comb

        table.append(sum(comb(m - 1, k) * table[k] for k in range(m)))
    return table[n]


class TestSetPartition:
    def test_canonical_form(self):
        p = SetPartition.from_blocks([[2, 0], [1]])
        assert p.blocks == ((0, 2), (1,))
        assert p.part_count == 2
        assert p.block_of(2) == (0, 2)

    def test_text_roundtrip(self):
        p = SetPartition.from_blocks([[0, 2], [1], [3, 4]])
        assert p.to_text() == "0,2|1|3,4"
        assert SetPartition.from_text("0,2|1|3,4") == p
        assert SetPartition.from_text("") == SetPartition(())

    def test_one_shot_blocks(self):
        p = SetPartition.from_blocks(iter(b) for b in [[2, 0], [], [1]])
        assert p.blocks == ((0, 2), (1,))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            SetPartition.from_blocks([[0, 1], [1, 2]])

    def test_make_partition_checks_independence(self):
        with pytest.raises(ValueError):
            make_partition([[0, 1], [2]], path_graph(3))
        make_partition([[0, 2], [1]], path_graph(3))


class TestEnumerate:
    def test_path_example(self):
        got = {p.to_text() for p in enumerate_partitions(path_graph(3), 1, 3)}
        assert got == {"0|1|2", "0,2|1"}

    def test_bell_numbers(self):
        for n in range(1, 9):
            got = len(enumerate_partitions(empty_graph(n), 1, n))
            assert got == bell_number(n)

    def test_clique_forces_singletons(self):
        got = enumerate_partitions(complete_graph(3), 1, 3)
        assert got == [singleton_partition(3)]

    def test_matches_brute_force_filter(self):
        for g in [path_graph(4), complete_graph(4), empty_graph(4), Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])]:
            brute = {
                SetPartition.from_blocks(p)
                for p in brute_set_partitions(g.n)
                if is_independent_partition(g, SetPartition.from_blocks(p))
            }
            assert set(enumerate_partitions(g, 1, g.n)) == brute

    def test_part_bounds(self):
        parts = enumerate_partitions(empty_graph(4), 2, 3)
        assert all(2 <= p.part_count <= 3 for p in parts)
        assert len(parts) == 7 + 6

    def test_cap(self):
        with pytest.raises(PartitionCapExceeded):
            enumerate_partitions(empty_graph(8), 1, 8, cap=100)

    @given(small_graphs(max_n=5))
    @settings(max_examples=40)
    def test_validity_property(self, g):
        parts = enumerate_partitions(g, 1, g.n)
        assert len(set(parts)) == len(parts)
        assert all(is_independent_partition(g, p) for p in parts)


class TestCount:
    def test_matches_enumeration(self):
        for n in range(7):
            for g in generate_nonisomorphic_graphs(n):
                for lo in range(n + 2):
                    for hi in range(n + 2):
                        want = len(enumerate_partitions(g, lo, hi))
                        assert count_partitions(g, lo, hi) == want, (g, lo, hi)
                        for limit in {0, max(want - 1, 0), want, want + 1}:
                            got = count_partitions(g, lo, hi, limit)
                            assert got == want if want <= limit else got > limit

    def test_limit_stops_early(self):
        # 27,644,437 partitions in all; the count stops within one last vertex
        got = count_partitions(empty_graph(13), 1, 13, 10)
        assert 10 < got <= 10 + 13


class TestAdjacency:
    def test_merge_of_singletons(self):
        p = SetPartition.from_text("0|1|2")
        q = SetPartition.from_text("0,1|2")
        assert are_adjacent(p, q) and are_adjacent(q, p)

    def test_pair_swap_is_single_move(self):
        # moving vertex 0 out of {0,1} into {2} realizes this in one step
        p = SetPartition.from_text("0,1|2")
        q = SetPartition.from_text("0,2|1")
        assert are_adjacent(p, q)

    def test_two_vertex_change_not_adjacent(self):
        p = SetPartition.from_text("0,1|2,3")
        q = SetPartition.from_text("0,2|1,3")
        assert not are_adjacent(p, q)

    def test_grow_block(self):
        assert are_adjacent(SetPartition.from_text("0,1|2"), SetPartition.from_text("0,1,2"))

    def test_irreflexive(self):
        p = SetPartition.from_text("0,1|2")
        assert not are_adjacent(p, p)

    def test_vertex_set_mismatch(self):
        with pytest.raises(ValueError):
            are_adjacent(SetPartition.from_text("0|1"), SetPartition.from_text("0|1|2"))

    @given(small_graphs(max_n=5), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_symmetric(self, g, pick):
        parts = enumerate_partitions(g, 1, g.n)
        if len(parts) < 2:
            return
        p = parts[pick % len(parts)]
        q = parts[(pick * 7 + 1) % len(parts)]
        if p != q:
            assert are_adjacent(p, q) == are_adjacent(q, p)


def moves(g, p, lo, hi):
    """neighbors_of on p's key, as payloads."""
    return [SetPartition.from_masks(q) for q in neighbors_of(g, p.masks, lo, hi)]


class TestMasks:
    def test_key_is_ascending_block_masks(self):
        p = SetPartition.from_text("0,2|1|3,4")
        assert p.masks == (0b00010, 0b00101, 0b11000)

    def test_roundtrip(self):
        for p in enumerate_partitions(path_graph(5), 1, 5):
            assert SetPartition.from_masks(p.masks) == p
        assert SetPartition.from_masks(()) == SetPartition(())

    def test_overlapping_masks_rejected(self):
        with pytest.raises(ValueError):
            SetPartition.from_masks((0b011, 0b110))


class TestNeighbors:
    def test_empty3_singletons(self):
        got = moves(empty_graph(3), singleton_partition(3), 1, 3)
        assert sorted(p.to_text() for p in got) == ["0,1|2", "0,2|1", "0|1,2"]

    def test_clique_no_moves(self):
        assert neighbors_of(complete_graph(3), singleton_partition(3).masks, 1, 3) == []

    def test_pair_block_example(self):
        got = moves(empty_graph(3), SetPartition.from_text("0,1|2"), 1, 3)
        assert sorted(p.to_text() for p in got) == ["0,1,2", "0,2|1", "0|1,2", "0|1|2"]

    def test_split_routes_collapse(self):
        # splitting either element of a 2-block lands on the same partition
        got = neighbors_of(empty_graph(4), SetPartition.from_text("0,1|2|3").masks, 1, 4)
        assert got.count(singleton_partition(4).masks) == 1

    def test_oracle_equivalence(self):
        # each move once: a repeated key would be a repeated neighbour index
        for n in range(6):
            for g in generate_nonisomorphic_graphs(n):
                for lo, hi in {(0 if n == 0 else 1, n), (2, 3), (1, 2), (n - 1, n)}:
                    parts = enumerate_partitions(g, lo, hi)
                    for p in parts:
                        got = neighbors_of(g, p.masks, lo, hi)
                        assert len(got) == len(set(got))
                        assert {SetPartition.from_masks(q) for q in got} == {
                            q for q in parts if are_adjacent(p, q)}

    def test_bounds_respected(self):
        p = SetPartition.from_text("0,1|2|3")
        for q in moves(empty_graph(4), p, 3, 3):
            assert q.part_count == 3
