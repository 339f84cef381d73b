import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellgraphs.bell import FULL, UnlabeledGraph, at_most, build_bell, scramble
from bellgraphs.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    is_isomorphic,
    matching_graph,
    path_graph,
)
from bellgraphs.lower import (
    REGIME_K_EQ_CHI_PLUS_1,
    REGIME_K_GT_CHI_PLUS_1,
    NoCertifiedCandidate,
    PreconditionViolated,
    _all_common_inside,
    _double_closed,
    candidate_graph,
    detect_k_regime,
    fat_partition_with_trace,
    find_fat_partition,
    is_double_closed,
    neighborhood_components,
    reconstruct_from_bk,
    reconstruct_from_bk_report,
    reconstruction_candidates,
    verify_fat_partition,
)
from bellgraphs.partitions import SetPartition
from bellgraphs.suites import run_suite


def _union_find_components(u, p):
    """Reference components of p's open neighbourhood by union-find, each
    sorted, ordered by minimum."""
    nset = u.adj[p]
    root = {q: q for q in nset}

    def find(q):
        while root[q] != q:
            q = root[q]
        return q

    for q in nset:
        for w in u.adj[q] & nset:
            root[find(q)] = find(w)
    groups: dict[int, list[int]] = {}
    for q in nset:
        groups.setdefault(find(q), []).append(q)
    return sorted(sorted(g) for g in groups.values())


def _pairwise_candidate_graph(u, p, regime):
    """Candidate graph built pair by pair from the single-pair tests."""
    comps = neighborhood_components(u, p)
    closed = set(u.adj[p]) | {p}
    edges = []
    for i, j in itertools.combinations(range(len(comps)), 2):
        pairs = [(a, c) for a in comps[i] for c in comps[j]]
        if regime == REGIME_K_EQ_CHI_PLUS_1:
            hit = any(_all_common_inside(u, closed, a, c) for a, c in pairs)
        else:
            hit = not any(_double_closed(u, closed, a, c) for a, c in pairs)
        if hit:
            edges.append((i, j))
    return Graph.from_edges(len(comps), edges)


def _pairwise_regime(u, cands):
    for p in cands:
        closed = set(u.adj[p]) | {p}
        for q1, q2 in itertools.combinations(sorted(u.adj[p]), 2):
            if q2 not in u.adj[q1] and _double_closed(u, closed, q1, q2):
                return REGIME_K_GT_CHI_PLUS_1
    return REGIME_K_EQ_CHI_PLUS_1


# (host, k) pairs the walk must answer with the host: every bound above the
# chromatic number, up to the full Bell graph
RECONSTRUCT_GRID = (
    [(empty_graph(n), k) for n in range(4, 9) for k in range(2, n + 2)]
    + [(matching_graph(8, e), k) for e in (1, 2) for k in range(3, 10)]
)

# Bell graphs on which each stage is compared with its pairwise reference
REFERENCE_CASES = (
    [(empty_graph(n), k) for n in (5, 6, 7) for k in (2, 3, 4)]
    + [(matching_graph(8, 1), k) for k in (3, 4)]
    + [(cycle_graph(8), 3), (path_graph(5), 3)]
)


class TestFatPartition:
    def test_empty_hosts(self):
        assert find_fat_partition(empty_graph(9)).blocks == (tuple(range(9)),)
        assert find_fat_partition(empty_graph(4)).blocks == (tuple(range(4)),)

    def test_perfect_matching_14(self):
        p = find_fat_partition(matching_graph(14, 7))
        assert verify_fat_partition(matching_graph(14, 7), p)
        assert sorted(len(b) for b in p.blocks) == [7, 7]

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            find_fat_partition(cycle_graph(8))
        with pytest.raises(PreconditionViolated):
            find_fat_partition(empty_graph(3))

    def test_trace_strictly_improves(self):
        for edges in range(0, 7):
            g = matching_graph(13, edges)
            p, trace = fat_partition_with_trace(g)
            assert verify_fat_partition(g, p)
            for before, after in zip(trace, trace[1:]):
                assert after > before

    def test_checker_rejects_bad_partitions(self):
        g = empty_graph(8)
        assert not verify_fat_partition(g, SetPartition.from_text("0,1,2|3,4,5,6,7"))
        assert not verify_fat_partition(g, SetPartition.from_text("0,1,2,3|4,5,6,7"))


class TestCandidates:
    def test_b2_empty4_all_candidates(self):
        b = build_bell(empty_graph(4), at_most(2))
        c_max, cands = reconstruction_candidates(b.as_unlabeled())
        assert c_max == 4
        assert cands == list(range(8))

    def test_single_vertex(self):
        b = build_bell(complete_graph(3), FULL)
        c_max, cands = reconstruction_candidates(b.as_unlabeled())
        assert (c_max, cands) == (0, [0])

    def test_components_cover_neighbourhood(self):
        b = build_bell(path_graph(4), at_most(3))
        u = b.as_unlabeled()
        for p in range(u.m):
            comps = neighborhood_components(u, p)
            assert sorted(v for comp in comps for v in comp) == sorted(u.adj[p])

    def test_components_sorted_and_ordered_by_minimum(self):
        # the candidate graph's vertex numbering follows this order, and with
        # it the labelling of the result
        for host, k in [(path_graph(4), 3), (empty_graph(6), 3), (matching_graph(8, 1), 3)]:
            u = scramble(build_bell(host, at_most(k)), 0)
            for p in range(u.m):
                comps = neighborhood_components(u, p)
                assert all(comp == sorted(comp) for comp in comps)
                assert [comp[0] for comp in comps] == sorted(comp[0] for comp in comps)
                assert comps == _union_find_components(u, p)

    def test_component_bound(self):
        for host in [empty_graph(5), cycle_graph(5), path_graph(5)]:
            for k in (2, 3, 4):
                u = build_bell(host, at_most(k)).as_unlabeled()
                for p in range(u.m):
                    assert len(neighborhood_components(u, p)) <= host.n


class TestDoubleClosed:
    def _split_pair(self, b, part_text, u, v):
        part = SetPartition.from_text(part_text)
        p = b.index_of(part)
        blocks = [tuple(x for x in bl if x != u) for bl in part.blocks]
        blocks = [bl for bl in blocks if bl] + [(u,)]
        qu = b.index_of(SetPartition.from_blocks(blocks))
        blocks = [tuple(x for x in bl if x != v) for bl in part.blocks]
        blocks = [bl for bl in blocks if bl] + [(v,)]
        qv = b.index_of(SetPartition.from_blocks(blocks))
        return p, qu, qv

    def test_fat_two_part_k4_true(self):
        b = build_bell(empty_graph(8), at_most(4))
        p, qu, qv = self._split_pair(b, "0,1,2,3|4,5,6,7", 0, 1)
        assert is_double_closed(b.as_unlabeled(), p, qu, qv)

    def test_fat_two_part_k3_false(self):
        b = build_bell(empty_graph(8), at_most(3))
        p, qu, qv = self._split_pair(b, "0,1,2,3|4,5,6,7", 0, 1)
        assert not is_double_closed(b.as_unlabeled(), p, qu, qv)

    def test_edge_endpoints_false(self):
        host = complete_bipartite(4, 4)
        b = build_bell(host, at_most(4))
        p, qu, qv = self._split_pair(b, "0,1,2,3|4,5,6,7", 0, 4)
        assert host.has_edge(0, 4)
        assert not is_double_closed(b.as_unlabeled(), p, qu, qv)

    def test_preconditions(self):
        b = build_bell(empty_graph(4), at_most(2))
        u = b.as_unlabeled()
        q = sorted(u.adj[0])[0]
        with pytest.raises(ValueError):
            is_double_closed(u, 0, q, q)


class TestRegime:
    def test_examples(self):
        assert detect_k_regime(build_bell(empty_graph(4), at_most(2)).as_unlabeled()) \
            == REGIME_K_EQ_CHI_PLUS_1
        assert detect_k_regime(build_bell(empty_graph(4), at_most(3)).as_unlabeled()) \
            == REGIME_K_GT_CHI_PLUS_1
        assert detect_k_regime(build_bell(cycle_graph(8), at_most(3)).as_unlabeled()) \
            == REGIME_K_EQ_CHI_PLUS_1

    def test_against_ground_truth(self):
        from bellgraphs.graphs import chromatic_number

        # matching(10, 2) has non-candidate vertices carrying double-closed
        # pairs even at k = chi + 1 (two singletons beside one fat part), so
        # it guards the candidates-only restriction of the scan
        hosts = [empty_graph(5), empty_graph(6), matching_graph(10, 2)]
        for host in hosts:
            chi = chromatic_number(host)
            for k in range(chi + 1, min(chi + 3, host.n) + 1):
                u = build_bell(host, at_most(k)).as_unlabeled()
                want = (
                    REGIME_K_EQ_CHI_PLUS_1 if k == chi + 1 else REGIME_K_GT_CHI_PLUS_1
                )
                assert detect_k_regime(u) == want, (host.n, k)


class TestAgainstPairwiseReference:
    @pytest.mark.parametrize(
        "host,k", REFERENCE_CASES,
        ids=[f"n{host.n}-e{host.edge_count()}-k{k}" for host, k in REFERENCE_CASES],
    )
    def test_stages_match_pairwise_tests(self, host, k):
        u = build_bell(host, at_most(k)).as_unlabeled()
        _, cands = reconstruction_candidates(u)
        assert detect_k_regime(u, cands) == _pairwise_regime(u, cands)
        for p in cands:
            for regime in (REGIME_K_EQ_CHI_PLUS_1, REGIME_K_GT_CHI_PLUS_1):
                assert candidate_graph(u, p, regime) == _pairwise_candidate_graph(u, p, regime)

    def test_random_graphs(self):
        # the equivalences are structural, so they hold on any graph; dense
        # random graphs reach matched counts other than 2, which the Bell
        # graphs above do not
        rng = random.Random(7)
        for _ in range(40):
            m = rng.randint(6, 16)
            prob = rng.choice((0.3, 0.5, 0.7))
            u = UnlabeledGraph.from_edges(
                m, [e for e in itertools.combinations(range(m), 2) if rng.random() < prob]
            )
            assert detect_k_regime(u, list(range(m))) == _pairwise_regime(u, range(m))
            for p in range(m):
                assert neighborhood_components(u, p) == _union_find_components(u, p)
                for regime in (REGIME_K_EQ_CHI_PLUS_1, REGIME_K_GT_CHI_PLUS_1):
                    assert candidate_graph(u, p, regime) == _pairwise_candidate_graph(u, p, regime)


class TestCandidateGraph:
    def test_b2_empty4_single_part(self):
        b = build_bell(empty_graph(4), at_most(2))
        p = b.index_of(SetPartition.from_text("0,1,2,3"))
        g = candidate_graph(b.as_unlabeled(), p, REGIME_K_EQ_CHI_PLUS_1)
        assert g == empty_graph(4)

    def test_b3_empty8_fat(self):
        b = build_bell(empty_graph(8), at_most(3))
        u = b.as_unlabeled()
        p = b.index_of(SetPartition.from_text("0,1,2,3,4,5,6,7"))
        assert candidate_graph(u, p, REGIME_K_GT_CHI_PLUS_1) == empty_graph(8)

    def test_b3_empty8_pile_at_k_minus_1_is_complete(self):
        b = build_bell(empty_graph(8), at_most(3))
        u = b.as_unlabeled()
        p = b.index_of(SetPartition.from_text("0,1,2,3|4,5,6,7"))
        assert candidate_graph(u, p, REGIME_K_GT_CHI_PLUS_1) == complete_graph(8)


class TestReconstruct:
    def test_empty_hosts(self):
        for n in (4, 5):
            for k in (2, 3):
                b = build_bell(empty_graph(n), at_most(k))
                got = reconstruct_from_bk(scramble(b, 0))
                assert is_isomorphic(got, empty_graph(n))

    @pytest.mark.parametrize(
        "host,k", RECONSTRUCT_GRID,
        ids=[f"n{host.n}-e{host.edge_count()}-k{k}" for host, k in RECONSTRUCT_GRID],
    )
    def test_grid(self, host, k):
        got = reconstruct_from_bk(scramble(build_bell(host, at_most(k)), 5))
        assert is_isomorphic(got, host)

    @given(st.integers(4, 8), st.integers(2, 10), st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_edgeless_property(self, n, k, seed):
        host = empty_graph(n)
        assert is_isomorphic(reconstruct_from_bk(scramble(build_bell(host, at_most(k)), seed)), host)

    def test_report(self):
        u = scramble(build_bell(empty_graph(6), at_most(4)), 2)
        report = reconstruct_from_bk_report(u)
        _, cands = reconstruction_candidates(u)
        assert report.bound == 4 and report.component_count == 6
        assert report.rule == REGIME_K_EQ_CHI_PLUS_1  # not the regime, which is k > chi + 1
        assert [a.passed for a in report.tried] == [False] * (len(report.tried) - 1) + [True]
        assert (report.tried[-1].pivot, report.tried[-1].rule) == (report.pivot, report.rule)
        assert report.pivot in cands and report.result.edge_count() == 0

    def test_outside_hypothesis_raises(self):
        # one edge on 4 vertices at k = 3: no candidate's partition count is m
        u = scramble(build_bell(matching_graph(4, 1), at_most(3)), 0)
        _, cands = reconstruction_candidates(u)
        with pytest.raises(NoCertifiedCandidate) as info:
            reconstruct_from_bk(u)
        tried = info.value.tried
        assert [(a.pivot, a.rule) for a in tried] == [
            (p, rule) for p in cands for rule in (REGIME_K_EQ_CHI_PLUS_1, REGIME_K_GT_CHI_PLUS_1)
        ]
        assert not any(a.passed for a in tried)

    def test_matching_host(self):
        host = matching_graph(13, 2)
        b = build_bell(host, at_most(3))
        got = reconstruct_from_bk(scramble(b, 1))
        assert is_isomorphic(got, host)

    def test_seed_invariance(self):
        from bellgraphs.graphs import canonical_code

        b = build_bell(empty_graph(5), at_most(3))
        codes = {canonical_code(reconstruct_from_bk(scramble(b, s))) for s in range(3)}
        assert len(codes) == 1

    def test_c8_exploratory(self):
        b = build_bell(cycle_graph(8), at_most(3))
        got = reconstruct_from_bk(scramble(b, 0))
        assert is_isomorphic(got, cycle_graph(8))


class TestSuite:
    def test_lower_recon_suite_passes(self):
        report = run_suite("lower-recon", 8, 1)
        failed = [item.to_json() for item in report.items if item.status == "fail"]
        assert failed == []
