import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellgraphs.bell import FULL, at_least, at_most, build_bell, scramble
from bellgraphs.graphs import (
    Graph,
    Graph6Error,
    canonical_code,
    canonical_code_of_sets,
    canonical_code_report,
    chromatic_number,
    claw_closure,
    complement,
    complete_bipartite,
    complete_graph,
    count_triangles,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_graph6,
    generate_nonisomorphic_graphs,
    graph6_decode,
    graph6_encode,
    is_isomorphic,
    line_graph,
    normalize_ddagger,
    path_graph,
    star_graph,
    strip_universal,
    to_graph6,
    universal_vertices,
)


def perm_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Brute-force oracle for isomorphism, n <= 7."""
    if g1.n != g2.n:
        return False
    return any(g1.relabel(p).adj == g2.adj for p in itertools.permutations(range(g1.n))) or g1.n == 0


@st.composite
def small_graphs(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    bits = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if (mask >> idx) & 1:
                edges.append((i, j))
            idx += 1
    return Graph.from_edges(n, edges)


class TestBasics:
    def test_validation_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_validation_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(1, (0b1,))

    def test_edges_roundtrip(self):
        g = cycle_graph(5)
        assert Graph.from_edges(5, g.edges()) == g
        assert g.edge_count() == 5
        assert g.degree(0) == 2


class TestComplement:
    def test_k3_to_empty(self):
        assert complement(complete_graph(3)) == empty_graph(3)

    def test_empty_to_complete(self):
        assert complement(empty_graph(4)) == complete_graph(4)

    def test_c5_self_complementary(self):
        assert is_isomorphic(complement(cycle_graph(5)), cycle_graph(5))

    @given(small_graphs())
    @settings(max_examples=60)
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestUniversalAndStrip:
    def test_universal_examples(self):
        assert universal_vertices(complete_graph(4)) == (0, 1, 2, 3)
        assert universal_vertices(star_graph(3)) == (0,)
        assert universal_vertices(cycle_graph(4)) == ()

    def test_strip_examples(self):
        assert strip_universal(complete_graph(4)) == empty_graph(0)
        assert strip_universal(star_graph(3)) == empty_graph(3)
        assert strip_universal(cycle_graph(5)) == cycle_graph(5)

    @given(small_graphs())
    @settings(max_examples=60)
    def test_strip_idempotent(self, g):
        s = strip_universal(g)
        assert strip_universal(s) == s


class TestClawClosure:
    def test_empty3(self):
        want = disjoint_union(complete_graph(3), complete_graph(1))
        assert is_isomorphic(claw_closure(empty_graph(3)), want)

    def test_c5_fixed(self):
        assert is_isomorphic(claw_closure(cycle_graph(5)), cycle_graph(5))

    def test_star(self):
        want = disjoint_union(complete_graph(3), complete_graph(1))
        assert is_isomorphic(claw_closure(star_graph(3)), want)

    def test_ddagger_example(self):
        g = disjoint_union(complete_graph(3), complete_graph(1))
        assert is_isomorphic(normalize_ddagger(g), star_graph(3))
        assert normalize_ddagger(complete_graph(1)) == empty_graph(0)

    @given(small_graphs())
    @settings(max_examples=40)
    def test_idempotent(self, g):
        c = claw_closure(g)
        assert is_isomorphic(claw_closure(c), c)


class TestChromatic:
    def test_examples(self):
        assert chromatic_number(complete_graph(4)) == 4
        assert chromatic_number(cycle_graph(6)) == 2
        assert chromatic_number(cycle_graph(5)) == 3
        assert chromatic_number(empty_graph(0)) == 0

    def test_cliques(self):
        for n in range(1, 8):
            assert chromatic_number(complete_graph(n)) == n

    @given(small_graphs())
    @settings(max_examples=40)
    def test_degree_bound(self, g):
        if g.n:
            assert chromatic_number(g) <= g.max_degree() + 1


class TestLineGraph:
    def test_claw_is_triangle(self):
        assert is_isomorphic(line_graph(star_graph(3)), complete_graph(3))

    def test_k1(self):
        assert line_graph(complete_graph(1)) == empty_graph(0)

    def test_p4(self):
        assert is_isomorphic(line_graph(path_graph(4)), path_graph(3))

    @given(small_graphs())
    @settings(max_examples=40)
    def test_sizes_and_degrees(self, g):
        lg = line_graph(g)
        assert lg.n == g.edge_count()
        for idx, (u, v) in enumerate(g.edges()):
            assert lg.degree(idx) == g.degree(u) + g.degree(v) - 2


class TestTriangles:
    def test_examples(self):
        assert count_triangles(complete_graph(3)) == 1
        assert count_triangles(cycle_graph(5)) == 0
        assert count_triangles(complete_graph(4)) == 4
        assert count_triangles(complete_bipartite(3, 3)) == 0


class TestIsomorphism:
    def test_degree_sequence_difference(self):
        assert not is_isomorphic(star_graph(3), disjoint_union(complete_graph(3), complete_graph(1)))

    def test_relabeling(self):
        g = path_graph(3)
        assert is_isomorphic(g, g.relabel((2, 0, 1)))

    def test_exhaustive_against_permutation_search(self):
        for n in range(0, 5):
            reps = list(generate_nonisomorphic_graphs(n))
            for i, g1 in enumerate(reps):
                for g2 in reps[i:]:
                    codes_equal = canonical_code(g1) == canonical_code(g2)
                    assert codes_equal == perm_isomorphic(g1, g2)

    @given(small_graphs(max_n=5), st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_code_invariant_under_relabeling(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_code(g.relabel(perm)) == canonical_code(g)


def pinned_code_inputs():
    """Codes the digest below pins: every graph on at most 6 vertices under
    a seeded relabeling, then scrambled Bell graphs of edgeless hosts."""
    rng = random.Random(20140101)
    for n in range(7):
        for g in generate_nonisomorphic_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            yield canonical_code(g.relabel(perm))
    for n in (4, 5, 6):
        for variant in (FULL, at_most(3), at_least(4)):
            b = build_bell(empty_graph(n), variant)
            for seed in (0, 1, 2):
                yield scramble(b, seed).canonical_code()


def complete_multipartite(parts):
    return complement(disjoint_union(*(complete_graph(p) for p in parts)))


def integer_partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in integer_partitions(n - first, first):
            yield (first, *rest)


def all_variants(n):
    return [FULL, *(at_most(k) for k in range(1, n)), *(at_least(k) for k in range(2, n + 1))]


@st.composite
def bell_inputs(draw, max_n=5):
    g = draw(small_graphs(max_n=max_n))
    variant = draw(st.sampled_from(all_variants(g.n)))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2))
    return build_bell(g, variant), seeds


class TestCanonicalSearch:
    # Computed with the unpruned search this one replaced; every cached code
    # and the classify constants rely on codes never changing.
    PINNED_DIGEST = "42ca2c61176a79fc105d5e7fd5e9675a11e25d15b99d82ccedf9b4915d207331"
    EDGELESS6_FULL_DIGEST = "eb7dbfd7c99fe7994f5d867081b7392347f1b02aaf926bd9bbd2c7cbf518dd95"

    def test_codes_are_pinned(self):
        codes = list(pinned_code_inputs())
        assert len(codes) == 236
        assert hashlib.sha256(b"".join(codes)).hexdigest() == self.PINNED_DIGEST

    def test_edgeless6_full_few_leaves(self):
        u = scramble(build_bell(empty_graph(6), FULL), 7)
        start = time.perf_counter()
        report = canonical_code_report(u.m, u.adj)
        elapsed = time.perf_counter() - start
        assert u.m == 203
        assert hashlib.sha256(report.code).hexdigest() == self.EDGELESS6_FULL_DIGEST
        assert report.leaves <= 50
        assert report.pruned > 0
        assert elapsed < 2.0

    def test_generators_are_automorphisms(self):
        inputs = [scramble(build_bell(empty_graph(5), v), 3) for v in all_variants(5)]
        inputs += [scramble(build_bell(complete_multipartite((2, 2, 1)), FULL), 4)]
        found = 0
        for u in inputs:
            report = canonical_code_report(u.m, u.adj)
            assert report.code == canonical_code_of_sets(u.m, u.adj)
            for gen in report.generators:
                assert sorted(gen) == list(range(u.m))
                assert gen != tuple(range(u.m))
                for v in range(u.m):
                    assert {gen[w] for w in u.adj[v]} == u.adj[gen[v]]
            found += len(report.generators)
        assert found > 0

    def test_asymmetric_graph_keeps_no_orbits(self):
        # the smallest asymmetric graphs have 6 vertices; one of them
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (3, 5)])
        report = canonical_code_report(g.n, tuple(frozenset(g.neighbors(v)) for v in range(g.n)))
        assert report.generators == () and report.pruned == 0

    def test_symmetric_bell_graphs_against_networkx(self):
        nx = pytest.importorskip("networkx")
        hosts = [g for n in range(1, 5) for g in generate_nonisomorphic_graphs(n)]
        hosts += [complete_multipartite(p) for n in (5, 6) for p in integer_partitions(n)]
        pairs = []
        for g in hosts:
            for variant in all_variants(g.n):
                b = build_bell(g, variant)
                c1, c2 = (scramble(b, seed).canonical_code() for seed in (1, 2))
                assert c1 == c2, (g, variant)
                pairs.append((c1, b))
        # isomorphism classes by networkx, comparing within degree sequences
        reps: dict[tuple[int, ...], list[tuple[int, object]]] = {}
        classes = []
        for _, b in pairs:
            h = nx.Graph()
            h.add_nodes_from(range(b.m))
            h.add_edges_from(b.edges())
            bucket = reps.setdefault(tuple(sorted(b.degree(i) for i in range(b.m))), [])
            found = next((c for c, rep in bucket if nx.is_isomorphic(rep, h)), None)
            if found is None:
                found = sum(map(len, reps.values()))
                bucket.append((found, h))
            classes.append(found)
        codes = [c for c, _ in pairs]
        assert len(set(codes)) == len(set(classes)) == len(set(zip(codes, classes)))

    def test_orbits_refinement_cannot_separate(self):
        # Shrikhande and the 4x4 rook's graph are both strongly regular with
        # parameters (16, 6, 2, 2): refinement after individualizing one
        # vertex cannot tell their vertices apart, so a node branching on
        # their union has children in two orbits with one invariant, and
        # automorphisms found below the first orbit must not skip the
        # second.  With a path in front, that node sits below the root.
        def torus(steps):
            return Graph.from_edges(16, {
                tuple(sorted((4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)))
                for a in range(4) for b in range(4) for da, db in steps
            })

        shrikhande = torus([(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)])
        rook = torus([(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)])
        assert not is_isomorphic(shrikhande, rook)
        rng = random.Random(2)
        for g in (disjoint_union(shrikhande, rook), disjoint_union(path_graph(3), shrikhande, rook)):
            codes = set()
            for _ in range(6):
                perm = list(range(g.n))
                rng.shuffle(perm)
                codes.add(canonical_code(g.relabel(perm)))
            assert len(codes) == 1

    @given(bell_inputs())
    @settings(max_examples=40, deadline=None)
    def test_bell_code_invariant_under_relabeling(self, drawn):
        b, (s1, s2) = drawn
        assert scramble(b, s1).canonical_code() == scramble(b, s2).canonical_code()


class TestGeneration:
    def test_counts(self):
        assert [len(list(generate_nonisomorphic_graphs(n))) for n in range(7)] == [
            1, 1, 2, 4, 11, 34, 156,
        ]

    def test_cap(self):
        with pytest.raises(ValueError):
            list(generate_nonisomorphic_graphs(9))

    def test_pairwise_distinct(self):
        reps = list(generate_nonisomorphic_graphs(4))
        codes = {canonical_code(g) for g in reps}
        assert len(codes) == len(reps)


class TestGraph6:
    def test_spec_examples(self):
        assert from_graph6("B?") == empty_graph(3)
        assert from_graph6("Bw") == complete_graph(3)
        assert to_graph6(empty_graph(3)) == "B?"
        assert to_graph6(complete_graph(3)) == "Bw"

    def test_roundtrip_exhaustive(self):
        for g in generate_nonisomorphic_graphs(5):
            assert from_graph6(to_graph6(g)) == g

    def test_networkx_oracle(self):
        nx = pytest.importorskip("networkx")
        for g in generate_nonisomorphic_graphs(5):
            h = nx.from_graph6_bytes(to_graph6(g).encode())
            assert set(h.nodes) == set(range(g.n))
            assert {tuple(sorted(e)) for e in h.edges} == set(g.edges())
        for h in [nx.cycle_graph(7), nx.complete_graph(6), nx.path_graph(9)]:
            text = nx.to_graph6_bytes(h, header=False).decode().strip()
            g = from_graph6(text)
            assert {tuple(sorted(e)) for e in h.edges} == set(g.edges())

    def test_large_n_header(self):
        n, edges = graph6_decode(graph6_encode(100, lambda i, j: j == i + 1))
        assert n == 100
        assert edges == [(i, i + 1) for i in range(99)]

    def test_malformed(self):
        with pytest.raises(Graph6Error):
            graph6_decode("B")  # truncated payload
        with pytest.raises(Graph6Error):
            graph6_decode("Bww")  # overlong payload
        with pytest.raises(Graph6Error):
            graph6_decode("B\x1c")  # character below the alphabet
