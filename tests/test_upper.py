import hashlib
from collections import Counter

import pytest

from bellgraphs import candidates, upper
from bellgraphs.bell import FULL, UnlabeledGraph, at_least, build_bell, scramble
from bellgraphs.graphs import (
    claw_closure,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    generate_nonisomorphic_graphs,
    is_isomorphic,
    path_graph,
    star_graph,
    strip_universal,
    to_graph6,
)
from bellgraphs.lineroot import NotLineGraph
from bellgraphs.partitions import singleton_partition
from bellgraphs.upper import (
    REGIME_CLIQUE,
    REGIME_EMPTY,
    REGIME_K5_MINUS,
    REGIME_LOW,
    REGIME_N_MINUS_1,
    REGIME_SINGLE_VERTEX,
    EmptyInput,
    NoCandidate,
    k5_minus,
    phi,
    reconstruct_prime,
    reconstruct_prime_report,
    reconstruct_upper_auto,
)


def pinned_reports():
    """Lines the upper digest below pins: for every host on at most 5
    vertices, its full and at-least-k Bell graphs for k = 2..n, each under
    two seeded scrambles, the report's regime, pivot, result, possibilities
    and omega ladder."""
    for n in range(6):
        for g in generate_nonisomorphic_graphs(n):
            for variant in [FULL, *(at_least(k) for k in range(2, n + 1))]:
                b = build_bell(g, variant)
                for seed in (0, 1):
                    r = reconstruct_upper_auto(scramble(b, seed))
                    result = to_graph6(r.result) if r.result is not None else "-"
                    options = ",".join(
                        f"{to_graph6(p.graph)}:{p.k_condition}" for p in r.possibilities
                    )
                    sets = r.candidate_sets
                    ladder = (
                        "-" if sets is None
                        else "/".join(",".join(map(str, o)) for o in
                                      (sets.omega3, sets.omega4, sets.omega5))
                    )
                    yield (f"{to_graph6(g)} {variant.label()} {seed} {r.regime} "
                           f"{r.pivot} {result} [{options}] {ladder}\n")


class TestPinned:
    PINNED_DIGEST = "4e962bcb6779efd88048343a6b19610d033b36ddc15dbd491e81f4cb0c738f41"

    def test_reports_are_pinned(self):
        lines = list(pinned_reports())
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == self.PINNED_DIGEST


def count_calls(monkeypatch, *targets):
    """Wrap each (module, attr) at its module attribute, as the benchmark's
    tracer does, and count the calls made through it."""
    calls = Counter()

    def wrap(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    for module, attr in targets:
        key = f"{module.__name__}.{attr}"
        monkeypatch.setattr(module, attr, wrap(key, getattr(module, attr)))
    return calls


class TestStatsComputedOnce:
    TARGETS = (
        (candidates, "neighbourhood_stats"),
        (candidates, "satisfies_property2"),
        (upper, "neighbourhood_stats"),
    )

    def test_once_per_omega3_vertex_and_not_in_phi(self, monkeypatch):
        calls = count_calls(monkeypatch, *self.TARGETS)
        cases = [(cycle_graph(5), FULL), (star_graph(3), FULL), (empty_graph(5), at_least(2)),
                 (cycle_graph(6), at_least(3))]
        for host, variant in cases:
            for seed in (0, 1):
                calls.clear()
                r = reconstruct_prime_report(scramble(build_bell(host, variant), seed))
                assert r.regime == REGIME_LOW
                assert calls["bellgraphs.candidates.neighbourhood_stats"] == len(
                    r.candidate_sets.omega3)
                assert calls["bellgraphs.candidates.satisfies_property2"] == len(
                    r.candidate_sets.omega3)
                assert calls["bellgraphs.upper.neighbourhood_stats"] == 0

    def test_universal_pivot_computes_its_own(self, monkeypatch):
        calls = count_calls(monkeypatch, *self.TARGETS)
        r = reconstruct_upper_auto(scramble(build_bell(cycle_graph(5), at_least(4)), 0))
        assert r.regime == REGIME_N_MINUS_1
        assert calls == {"bellgraphs.upper.neighbourhood_stats": 1}


class TestDegreeGate:
    def test_property1_runs_only_without_lower_degree_neighbour(self, monkeypatch):
        # wrapped at the module attribute, as the benchmark's tracer does
        seen = []
        original = candidates.satisfies_property1

        def recording(b, p, **kwargs):
            seen.append(p)
            return original(b, p, **kwargs)

        monkeypatch.setattr(candidates, "satisfies_property1", recording)
        u = scramble(build_bell(cycle_graph(6), FULL), 3)
        r = reconstruct_upper_auto(u)
        assert r.regime == REGIME_LOW
        degs = [len(row) for row in u.adj]
        for p in seen:
            assert min(degs[q] for q in u.adj[p]) >= degs[p], p
        assert len(seen) == r.candidate_sets.evaluated
        assert len(seen) < sum(d >= degs[r.pivot] for d in degs)


class TestPhi:
    def test_at_least_2_of_empty3_gives_claw_closure(self):
        b = build_bell(empty_graph(3), at_least(2))
        u = b.as_unlabeled()
        p = b.index_of(singleton_partition(3))
        want = disjoint_union(complete_graph(3), complete_graph(1))
        assert is_isomorphic(phi(u, p), want)

    def test_full_of_empty3_gives_host(self):
        b = build_bell(empty_graph(3), FULL)
        u = b.as_unlabeled()
        p = b.index_of(singleton_partition(3))
        assert is_isomorphic(phi(u, p), empty_graph(3))

    def test_claw_neighbourhood_raises(self):
        # p is vertex 0, its neighbourhood induces a claw (not a line graph)
        u = UnlabeledGraph.from_edges(
            5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
        )
        with pytest.raises(NotLineGraph):
            phi(u, 0)


class TestReconstructPrime:
    def test_spec_examples(self):
        cases = [
            (cycle_graph(4), FULL),
            (star_graph(3), FULL),
            (cycle_graph(5), at_least(2)),
        ]
        for host, variant in cases:
            b = build_bell(host, variant)
            for seed in (0, 1):
                got = reconstruct_prime(scramble(b, seed))
                assert is_isomorphic(got, strip_universal(host)), to_graph6(host)

    def test_small_inputs_via_lookup(self):
        one = UnlabeledGraph.from_edges(1, [])
        assert reconstruct_prime(one) == empty_graph(0)
        two = UnlabeledGraph.from_edges(2, [(0, 1)])
        assert reconstruct_prime(two) == empty_graph(2)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            reconstruct_prime(UnlabeledGraph.from_edges(0, []))

    def test_bad_two_vertex_input(self):
        with pytest.raises(NoCandidate):
            reconstruct_prime(UnlabeledGraph.from_edges(2, []))

    def test_report_carries_candidates(self):
        b = build_bell(cycle_graph(4), FULL)
        report = reconstruct_prime_report(scramble(b, 0))
        assert report.regime == REGIME_LOW
        assert report.pivot in report.candidate_sets.omega5

    def test_seed_invariance(self):
        b = build_bell(cycle_graph(5), FULL)
        codes = set()
        from bellgraphs.graphs import canonical_code

        for seed in range(3):
            codes.add(canonical_code(reconstruct_prime(scramble(b, seed))))
        assert len(codes) == 1


class TestUpperAuto:
    def test_empty_regime(self):
        r = reconstruct_upper_auto(UnlabeledGraph.from_edges(0, []))
        assert r.regime == REGIME_EMPTY

    def test_single_vertex_regime(self):
        r = reconstruct_upper_auto(UnlabeledGraph.from_edges(1, []))
        assert r.regime == REGIME_SINGLE_VERTEX

    def test_clique_input_possibilities(self):
        r = reconstruct_upper_auto(UnlabeledGraph.from_edges(4, complete_graph(4).edges()))
        assert r.regime == REGIME_CLIQUE
        got = {(to_graph6(p.graph), p.k_condition) for p in r.possibilities}
        k3k1 = disjoint_union(complete_graph(3), complete_graph(1))
        assert got == {
            (to_graph6(k3k1), "k <= n-1"),
            (to_graph6(empty_graph(3)), "k = n-1"),
        }

    def test_k5_minus_input_possibilities(self):
        u = UnlabeledGraph.from_edges(5, k5_minus().edges())
        r = reconstruct_upper_auto(u)
        assert r.regime == REGIME_K5_MINUS
        assert {p.k_condition for p in r.possibilities} == {"k <= n-2", "k = n-1"}

    def test_c5_low_regime(self):
        b = build_bell(cycle_graph(5), at_least(2))
        r = reconstruct_upper_auto(scramble(b, 1))
        assert r.regime == REGIME_LOW
        assert is_isomorphic(r.result, cycle_graph(5))

    def test_c5_penultimate_regime(self):
        b = build_bell(cycle_graph(5), at_least(4))
        r = reconstruct_upper_auto(scramble(b, 1))
        assert r.regime == REGIME_N_MINUS_1
        assert is_isomorphic(r.result, claw_closure(cycle_graph(5)))

    def test_all_hosts_n4_all_k(self):
        for g in generate_nonisomorphic_graphs(4):
            for k in range(1, 6):
                b = build_bell(g, at_least(k))
                u = scramble(b, 0)
                r = reconstruct_upper_auto(u)
                if b.m == 0:
                    assert r.regime == REGIME_EMPTY
                elif b.m == 1:
                    assert r.regime == REGIME_SINGLE_VERTEX
                elif r.regime == REGIME_LOW:
                    assert k <= g.n - 2
                    assert is_isomorphic(r.result, strip_universal(g))
                elif r.regime == REGIME_N_MINUS_1:
                    assert k == g.n - 1
                    assert is_isomorphic(r.result, claw_closure(g))
                else:
                    assert r.regime in (REGIME_CLIQUE, REGIME_K5_MINUS)
                    ok = any(
                        is_isomorphic(p.graph, strip_universal(g))
                        for p in r.possibilities
                    )
                    assert ok, (to_graph6(g), k)
