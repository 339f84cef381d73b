import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellgraphs.bell import (
    FULL,
    EmptyInput,
    UnlabeledGraph,
    at_least,
    at_most,
    build_bell,
    scramble,
    scramble_with_map,
)
from bellgraphs.candidates import (
    TYPE_MERGE,
    TYPE_SPLIT_PAIR,
    TYPE_SPLIT_TRIPLE,
    closed_triangles,
    neighbourhood_stats,
    pstar_candidates,
    psi_map,
    satisfies_property1,
    satisfies_property2,
)
from bellgraphs.graphs import (
    complete_graph,
    cycle_graph,
    empty_graph,
    generate_nonisomorphic_graphs,
    to_graph6,
)
from bellgraphs.partitions import SetPartition, singleton_partition


def pstar_index(b):
    return b.index_of(singleton_partition(b.host.n))


# Pairwise references for the set-operation kernels: each pair or triple of
# neighbours is tested by walking one corner's whole adjacency row.


def ref_nonadjacent_pairs(b, nb):
    for i, q1 in enumerate(nb):
        for q2 in nb[i + 1 :]:
            if q2 not in b.adj[q1]:
                yield q1, q2


def ref_triangles(b, nb):
    for i, q1 in enumerate(nb):
        for j in range(i + 1, len(nb)):
            q2 = nb[j]
            if q2 not in b.adj[q1]:
                continue
            for q3 in nb[j + 1 :]:
                if q3 in b.adj[q1] and q3 in b.adj[q2]:
                    yield q1, q2, q3


def ref_external_common(b, closed, qs):
    first, *rest = qs
    return [r for r in b.adj[first] if r not in closed and all(r in b.adj[q] for q in rest)]


def ref_closed(b, p):
    closed = set(b.adj[p])
    closed.add(p)
    return closed


def ref_property1(b, p, require_external):
    nset, closed = b.adj[p], ref_closed(b, p)
    for q1, q2 in ref_nonadjacent_pairs(b, sorted(nset)):
        external = ref_external_common(b, closed, (q1, q2))
        if len(external) > 1:
            return False
        if not external:
            if require_external:
                return False
            continue
        if len(b.adj[external[0]] & nset) != 2:
            return False
    return True


def ref_closed_triangles(b, p):
    nb, closed = sorted(b.adj[p]), ref_closed(b, p)
    return [tri for tri in ref_triangles(b, nb) if ref_external_common(b, closed, tri)]


def ref_property2(b, p):
    nb = sorted(b.adj[p])
    for tri in ref_closed_triangles(b, p):
        for q in nb:
            if q not in tri and sum(1 for t in tri if t in b.adj[q]) not in (0, 2):
                return False
    return True


def ref_stats(b, p):
    nb = sorted(b.adj[p])
    inner = sum(len(b.adj[q] & b.adj[p]) for q in nb) // 2
    return len(nb), len(nb) + inner, len(ref_closed_triangles(b, p))


def small_bell_inputs():
    """Two scrambles of the full and every at-least-k Bell graph of every
    host on at most 5 vertices."""
    for n in range(6):
        for g in generate_nonisomorphic_graphs(n):
            for variant in [FULL, *(at_least(k) for k in range(2, n + 2))]:
                b = build_bell(g, variant)
                for seed in (0, 1):
                    yield f"{to_graph6(g)} {variant.label()} {seed}", scramble(b, seed)


class TestKernelsAgainstReference:
    def test_every_vertex_of_small_inputs(self):
        checked = 0
        for label, u in small_bell_inputs():
            for p in range(u.m):
                for require_external in (True, False):
                    assert satisfies_property1(u, p, require_external=require_external) == (
                        ref_property1(u, p, require_external)
                    ), (label, p, require_external)
                triangles = ref_closed_triangles(u, p)
                assert sorted(closed_triangles(u, p)) == triangles, (label, p)
                assert satisfies_property2(u, p) == ref_property2(u, p), (label, p)
                st = neighbourhood_stats(u, p)
                assert (st.degree, st.n_stat, st.t_stat) == ref_stats(u, p), (label, p)
                assert len(st.triangles) == st.t_stat
                assert satisfies_property2(u, p, st.triangles) == ref_property2(u, p)
                checked += 1
        assert checked == 3466

    def test_ladder_matches_reference_scan(self):
        for label, u in small_bell_inputs():
            if u.m == 0:
                continue
            for require_external in (True, False):
                order = sorted(range(u.m), key=lambda v: (-len(u.adj[v]), v))
                omega3 = []
                for v in order:
                    if omega3 and len(u.adj[v]) < len(u.adj[omega3[0]]):
                        break
                    if ref_property1(u, v, require_external) and ref_property2(u, v):
                        omega3.append(v)
                sets = pstar_candidates(u, require_external=require_external)
                assert sets.omega3 == tuple(sorted(omega3)), (label, require_external)
                assert set(sets.stats) == set(omega3)
                for v in omega3:
                    assert sets.stats[v] == neighbourhood_stats(u, v)


def has_lower_degree_neighbour(u, p):
    return any(len(u.adj[q]) < len(u.adj[p]) for q in u.adj[p])


def small_bell_graphs_all_variants():
    """The full, every at-most-k and every at-least-k Bell graph of every
    host on at most 5 vertices, unscrambled."""
    for n in range(6):
        for g in generate_nonisomorphic_graphs(n):
            # at-most-n and at-least-1 are the full graph again
            variants = [FULL, *(at_most(k) for k in range(1, n)),
                        *(at_least(k) for k in range(2, n + 1))]
            for variant in variants:
                yield f"{to_graph6(g)} {variant.label()}", build_bell(g, variant).as_unlabeled()


@st.composite
def random_graphs(draw):
    m = draw(st.integers(0, 14))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return UnlabeledGraph.from_edges(m, edges)


class TestDegreeLemma:
    """Strict property 1 at p implies that no neighbour of p has a lower
    degree; the ladder scan skips vertices on the strength of it."""

    def test_every_vertex_of_small_bell_graphs(self):
        passed = skipped = 0
        for label, u in small_bell_graphs_all_variants():
            for p in range(u.m):
                lower = has_lower_degree_neighbour(u, p)
                if satisfies_property1(u, p):
                    assert not lower, (label, p)
                    passed += 1
                skipped += lower
        # both sides of the implication are exercised
        assert passed > 0 and skipped > 0

    @given(random_graphs())
    @settings(max_examples=300, deadline=None)
    def test_random_graphs(self, u):
        for p in range(u.m):
            if satisfies_property1(u, p):
                assert not has_lower_degree_neighbour(u, p), p

    def test_weak_property1_can_pass_with_lower_degree_neighbour(self):
        # a path a-p-b-c: p's neighbours a and b are non-adjacent with no
        # outside common neighbour, which only the weak reading allows
        u = UnlabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert satisfies_property1(u, 1, require_external=False)
        assert has_lower_degree_neighbour(u, 1)
        assert not satisfies_property1(u, 1)

    def test_scan_counts(self):
        for label, u in small_bell_inputs():
            if u.m == 0:
                continue
            strict = pstar_candidates(u)
            weak = pstar_candidates(u, require_external=False)
            assert 0 < strict.evaluated <= strict.scanned <= u.m, label
            assert weak.evaluated == weak.scanned, label


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
        with pytest.raises(EmptyInput):
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

