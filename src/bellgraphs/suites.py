"""Exhaustive verification suites binding every structural claim the
reconstruction algorithms rely on to an oracle-backed check at desk scale.

Each suite walks an exhaustive corpus of small host graphs (plus a few
fixed larger instances), evaluates one family of claims, and reports one
pass/fail item per (host, variant, seed, check) with a minimal
reproduction payload on failure.  Reports are deterministic given
(n_max, seeds).
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator

from . import candidates as cand
from . import lower, upper
from .bell import (
    FULL,
    BellGraph,
    BellVariant,
    UnlabeledGraph,
    at_least,
    at_most,
    build_bell,
    induced_graph,
    scramble,
    scramble_with_map,
)
from .classify import classify_pair, oracle_isomorphic
from .graphs import (
    Graph,
    canonical_code,
    chromatic_number,
    claw_closure,
    complement,
    complete_bipartite,
    complete_graph,
    connected_components,
    count_triangles,
    cycle_graph,
    disjoint_union,
    empty_graph,
    generate_nonisomorphic_graphs,
    is_isomorphic,
    line_graph,
    matching_graph,
    normalize_ddagger,
    strip_universal,
    to_graph6,
)
from .lineroot import NotLineGraph, krausz_root
from .partitions import (
    SetPartition,
    are_adjacent,
    enumerate_partitions,
    is_independent_partition,
    neighbors_of,
    singleton_partition,
)

SUITE_NAMES = (
    "core",
    "partitions",
    "bell",
    "omega",
    "lineroot",
    "full-recon",
    "upper-auto",
    "lower-recon",
    "classify",
)


@dataclass
class SuiteItem:
    check: str
    host: str
    variant: str = "-"
    seed: int | None = None
    status: str = "pass"
    detail: dict | None = None

    def to_json(self) -> dict:
        out = {
            "check": self.check,
            "host": self.host,
            "variant": self.variant,
            "seed": self.seed,
            "status": self.status,
        }
        if self.detail is not None:
            out["detail"] = self.detail
        return out


@dataclass
class SuiteReport:
    suite: str
    n_max: int
    seeds: int
    items: list[SuiteItem] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(item.status != "fail" for item in self.items)

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "info": 0}
        for item in self.items:
            out[item.status] = out.get(item.status, 0) + 1
        return out

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "n_max": self.n_max,
            "seeds": self.seeds,
            "passed": self.passed,
            "counts": self.counts(),
            "items": [item.to_json() for item in self.items],
        }


def _item(check: str, host: str, ok: bool, variant: str = "-", seed: int | None = None,
          detail: dict | None = None) -> SuiteItem:
    return SuiteItem(
        check=check,
        host=host,
        variant=variant,
        seed=seed,
        status="pass" if ok else "fail",
        detail=None if ok else (detail or {}),
    )


def _hosts(n_lo: int, n_hi: int) -> Iterator[Graph]:
    for n in range(n_lo, n_hi + 1):
        yield from generate_nonisomorphic_graphs(n)


def _perm_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Explicit permutation search; the independent oracle for canonical codes."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    for perm in itertools.permutations(range(g1.n)):
        if g1.relabel(perm).adj == g2.adj:
            return True
    return g1.n == 0


@lru_cache(maxsize=None)
def _bell_number(n: int) -> int:
    """Independent recurrence: B(n+1) = sum C(n, k) B(k)."""
    if n == 0:
        return 1
    return sum(comb(n - 1, k) * _bell_number(k) for k in range(n))


@lru_cache(maxsize=None)
def _graphs_with_m_edges(m: int) -> tuple[Graph, ...]:
    """All graphs with exactly m edges and no isolated vertices, up to iso."""
    if m == 0:
        return (empty_graph(0),)
    seen: dict[bytes, Graph] = {}
    for base in _graphs_with_m_edges(m - 1):
        n = base.n
        extensions: list[Graph] = []
        for u in range(n):
            for v in range(u + 1, n):
                if not base.has_edge(u, v):
                    extensions.append(Graph.from_edges(n, base.edges() + [(u, v)]))
        for u in range(n):
            extensions.append(Graph.from_edges(n + 1, base.edges() + [(u, n)]))
        extensions.append(Graph.from_edges(n + 2, base.edges() + [(n, n + 1)]))
        for g in extensions:
            code = canonical_code(g)
            if code not in seen:
                seen[code] = g
    return tuple(seen.values())


@lru_cache(maxsize=None)
def _line_graph_codes(m: int) -> frozenset[bytes]:
    return frozenset(canonical_code(line_graph(h)) for h in _graphs_with_m_edges(m))


def _moved_vertices(p: SetPartition, q: SetPartition) -> list[int]:
    """Vertices v such that q arises from p by moving v."""

    def minus(s: SetPartition, v: int) -> tuple[tuple[int, ...], ...]:
        return tuple(
            sorted(tuple(x for x in b if x != v) for b in s.blocks if tuple(b) != (v,))
        )

    changed: set[int] = set()
    in_q = set(q.blocks)
    for b in p.blocks:
        if b not in in_q:
            changed.update(b)
    return [v for v in sorted(changed) if minus(p, v) == minus(q, v)]


# ---------------------------------------------------------------------------
# core


def _suite_core(n_max: int, seeds: int) -> list[SuiteItem]:
    items = []
    for g in _hosts(0, n_max):
        host = to_graph6(g)
        items.append(_item("complement-involution", host, complement(complement(g)) == g))
        s = strip_universal(g)
        items.append(_item("strip-idempotent", host, strip_universal(s) == s))
        c = claw_closure(g)
        items.append(_item("claw-idempotent", host, is_isomorphic(claw_closure(c), c)))
        lg = line_graph(g)
        ok = lg.n == g.edge_count()
        for idx, (u, v) in enumerate(g.edges()):
            ok = ok and lg.degree(idx) == g.degree(u) + g.degree(v) - 2
        items.append(_item("line-graph-shape", host, ok))
        if g.n >= 1:
            items.append(
                _item("chromatic-bound", host, 1 <= chromatic_number(g) <= g.max_degree() + 1)
            )
    for n in range(0, min(n_max, 6) + 1):
        items.append(_item("chromatic-clique", to_graph6(complete_graph(n)),
                           chromatic_number(complete_graph(n)) == n))
    for n in range(0, min(n_max, 5) + 1):
        reps = list(generate_nonisomorphic_graphs(n))
        ok = True
        bad: dict | None = None
        for i, g1 in enumerate(reps):
            for g2 in reps[i:]:
                agree = (canonical_code(g1) == canonical_code(g2)) == _perm_isomorphic(g1, g2)
                if not agree:
                    ok, bad = False, {"g1": to_graph6(g1), "g2": to_graph6(g2)}
                    break
            perm = tuple(reversed(range(n)))
            if canonical_code(g1.relabel(perm)) != canonical_code(g1):
                ok, bad = False, {"g1": to_graph6(g1), "relabel": "reversed"}
            if not ok:
                break
        items.append(_item("canonical-vs-permutation", f"n={n}", ok, detail=bad))
    return items


# ---------------------------------------------------------------------------
# partitions


def _suite_partitions(n_max: int, seeds: int) -> list[SuiteItem]:
    items = []
    for g in _hosts(1, n_max):
        host = to_graph6(g)
        parts = enumerate_partitions(g, 1, g.n)
        ok = all(is_independent_partition(g, p) for p in parts)
        ok = ok and len(set(parts)) == len(parts)
        items.append(_item("enumeration-validity", host, ok))
        oracle_ok = True
        detail = None
        for p in parts:
            via_filter = {q for q in parts if are_adjacent(p, q)}
            keys = neighbors_of(g, p.masks, 1, g.n)
            via_moves = {SetPartition.from_masks(q) for q in keys}
            if via_filter != via_moves or len(keys) != len(set(keys)):
                oracle_ok = False
                detail = {"partition": p.to_text(), "moves": len(keys), "want": len(via_filter)}
                break
        items.append(_item("neighbour-oracle", host, oracle_ok, detail=detail))
        if g.n <= 4:
            sym_ok = all(
                are_adjacent(p, q) == are_adjacent(q, p) and not are_adjacent(p, p)
                for p in parts
                for q in parts
                if p != q
            )
            items.append(_item("adjacency-symmetric-irreflexive", host, sym_ok))
    for n in range(1, min(n_max, 8) + 1):
        count = len(enumerate_partitions(empty_graph(n), 1, n))
        items.append(
            _item("bell-number", f"empty_{n}", count == _bell_number(n),
                  detail={"got": count, "want": _bell_number(n)})
        )
    for g in _hosts(2, min(n_max, 5)):
        host = to_graph6(g)
        ok = True
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.has_edge(u, v):
                    continue
                blocks = [(u, v)] + [(w,) for w in range(g.n) if w not in (u, v)]
                nbs = neighbors_of(g, SetPartition.from_blocks(blocks).masks, 1, g.n)
                ok = ok and nbs.count(singleton_partition(g.n).masks) == 1
        items.append(_item("degenerate-split-identity", host, ok))
    return items


# ---------------------------------------------------------------------------
# bell


def _variants_for(n: int) -> list[BellVariant]:
    out: list[BellVariant] = [FULL]
    out.extend(at_most(k) for k in range(1, n + 1))
    out.extend(at_least(k) for k in range(2, n + 2))
    return out


def _suite_bell(n_max: int, seeds: int) -> list[SuiteItem]:
    items = []
    for g in _hosts(0, n_max):
        host = to_graph6(g)
        for variant in _variants_for(g.n):
            b = build_bell(g, variant)
            lo, hi = variant.part_bounds(g.n)
            parts = b.vertices
            want_edges = {
                (i, j)
                for i in range(len(parts))
                for j in range(i + 1, len(parts))
                if are_adjacent(parts[i], parts[j])
            }
            items.append(
                _item("edges-match-move-filter", host, set(b.edges()) == want_edges,
                      variant=variant.label())
            )
        full = build_bell(g, FULL)
        capped = build_bell(g, at_most(max(g.n, 1)))
        items.append(
            _item("full-equals-atmost-n", host,
                  full.vertices == capped.vertices and full.neighbors == capped.neighbors)
        )
        items.append(_item("atleast-above-n-empty", host, build_bell(g, at_least(g.n + 1)).m == 0))
        for seed in range(seeds):
            b = build_bell(g, FULL)
            u1, u2 = scramble(b, seed), scramble(b, seed)
            ok = tuple(u1.adj) == tuple(u2.adj)
            ok = ok and u1.degree_multiset() == tuple(sorted(b.degree(i) for i in range(b.m)))
            ok = ok and u1.canonical_code() == b.as_unlabeled().canonical_code()
            items.append(_item("scramble-contract", host, ok, seed=seed))
    for g in _hosts(0, min(n_max, 5)):
        host = to_graph6(g)
        plus = Graph.from_edges(g.n + 1, g.edges() + [(v, g.n) for v in range(g.n)])
        ok = True
        for k in range(1, g.n + 1):
            a = build_bell(g, at_least(k)).as_unlabeled().canonical_code()
            bb = build_bell(plus, at_least(k + 1)).as_unlabeled().canonical_code()
            if a != bb:
                ok = False
                break
        items.append(_item("universal-vertex-shift", host, ok))
    return items


# ---------------------------------------------------------------------------
# omega


def _psi_images(b: BellGraph, p: int) -> dict[int, tuple[tuple[int, int], int]]:
    return {q: cand.psi_map(b, p, q) for q in b.neighbors[p]}


def _triple_shape(edges: list[tuple[int, int]]) -> str:
    verts = {v for e in edges for v in e}
    if len(verts) == 3:
        return "triangle"
    if len(verts) == 4:
        return "claw"
    return "other"


def _check_omega_case(
    g: Graph, variant: BellVariant, items: list[SuiteItem]
) -> None:
    host = to_graph6(g)
    vlabel = variant.label()
    n = g.n
    b = build_bell(g, variant)
    u = b.as_unlabeled()
    k_eff = 1 if variant.kind == "full" else (variant.k or 1)

    # shape lemmas: structural failures of properties 1/2, every vertex
    shape_ok = True
    shape_detail: dict | None = None
    for i, p in enumerate(b.vertices):
        memo: dict[int, bool] = {}

        def prop(which: int, i=i, memo=memo) -> bool:
            if which not in memo:
                fn = cand.satisfies_property1 if which == 1 else cand.satisfies_property2
                memo[which] = fn(u, i)
            return memo[which]

        sizes = sorted(len(bl) for bl in p.blocks)
        checks: list[tuple[str, bool]] = []
        if sizes and sizes[-1] >= 4:
            checks.append(("part-ge-4", not prop(1)))
        twos = [bl for bl in p.blocks if len(bl) == 2]
        ones = [bl for bl in p.blocks if len(bl) == 1]
        threes = [bl for bl in p.blocks if len(bl) == 3]
        for a_bl, b_bl in itertools.combinations(twos, 2):
            cross = sum(1 for x in a_bl for y in b_bl if g.has_edge(x, y))
            if cross == 0:
                checks.append(("two-2-parts-no-edges", not prop(1)))
        # The 2-1 lemmas' witness is a move that lowers the part count, and
        # an at-least-k partition with exactly k parts has no such move in
        # the graph; ladder-structure below makes the same exception.
        escape = variant.kind == "at_least" and p.part_count == k_eff
        for pair_bl in () if escape else twos:
            for single_bl in ones:
                w = single_bl[0]
                cross = sum(1 for x in pair_bl if g.has_edge(x, w))
                if cross == 0:
                    checks.append(("2-1-no-edges", not prop(1)))
                elif cross == 1 and g.degree(w) != n - 2:
                    checks.append(("2-1-one-edge-low-degree", not (prop(1) and prop(2))))
        for triple_bl in threes:
            for single_bl in ones:
                w = single_bl[0]
                if any(not g.has_edge(x, w) for x in triple_bl):
                    checks.append(("3-1-nonedge", not prop(2)))
        for name, ok in checks:
            if not ok:
                shape_ok = False
                shape_detail = {"vertex": i, "partition": p.to_text(), "lemma": name}
                break
        if not shape_ok:
            break
    items.append(_item("shape-lemmas", host, shape_ok, variant=vlabel, detail=shape_detail))

    # degree lemma behind the ladder's skip: a vertex with strict property 1
    # has no neighbour of lower degree; checked here without the ladder
    deg_ok = True
    deg_detail: dict | None = None
    for i in range(b.m):
        d = b.degree(i)
        lower_nb = [j for j in range(b.m) if b.has_edge(i, j) and b.degree(j) < d]
        if lower_nb and cand.satisfies_property1(u, i):
            deg_ok = False
            deg_detail = {"vertex": i, "partition": b.vertices[i].to_text(),
                          "lower_degree_neighbour": lower_nb[0]}
            break
    items.append(_item("degree-bound", host, deg_ok, variant=vlabel, detail=deg_detail))

    if k_eff >= n:
        return
    pstar_idx = b.index_of(singleton_partition(n))
    comp_g = complement(g)
    comp_edges = {tuple(e) for e in comp_g.edges()}
    line_code = canonical_code(line_graph(comp_g))

    # psi at the all-singletons partition is a bijection onto the non-edges
    images = _psi_images(b, pstar_idx)
    ok = len(images) == len(comp_edges) and {e for e, _ in images.values()} == comp_edges
    items.append(_item("psi-bijective-at-singletons", host, ok, variant=vlabel))

    ladder = cand.pstar_candidates(u, require_external=(k_eff <= n - 2))
    tag = "strict" if k_eff <= n - 2 else "weak"

    if k_eff <= n - 2:
        items.append(
            _item("singletons-in-omega5", host, pstar_idx in ladder.omega5, variant=vlabel,
                  detail={"omega5": list(ladder.omega5), "pstar": pstar_idx})
        )
    else:
        items.append(
            _item("singletons-in-omega4-weak", host, pstar_idx in ladder.omega4, variant=vlabel,
                  detail={"omega4": list(ladder.omega4), "pstar": pstar_idx})
        )

    # structure of ladder vertices (with the bounded-variant escape clause)
    struct_ok = True
    struct_detail: dict | None = None
    for i in ladder.omega3:
        p = b.vertices[i]
        sizes = [len(bl) for bl in p.blocks]
        reasons: list[bool] = [max(sizes, default=0) <= 3]
        for bl in p.blocks:
            if len(bl) == 3:
                reasons.append(all(g.degree(v) == n - 3 for v in bl))
        twos = [bl for bl in p.blocks if len(bl) == 2]
        for a_bl, b_bl in itertools.combinations(twos, 2):
            reasons.append(all(g.has_edge(x, y) for x in a_bl for y in b_bl))
        escape = variant.kind == "at_least" and p.part_count == k_eff
        for pair_bl in twos:
            for single_bl in (bl for bl in p.blocks if len(bl) == 1):
                w = single_bl[0]
                both = all(g.has_edge(x, w) for x in pair_bl)
                reasons.append(both or g.degree(w) == n - 2 or escape)
        if not all(reasons):
            struct_ok = False
            struct_detail = {"vertex": i, "partition": p.to_text()}
            break
    items.append(_item(f"ladder-structure-{tag}", host, struct_ok, variant=vlabel,
                       detail=struct_detail))

    # psi injective on omega3
    inj_ok = True
    inj_detail: dict | None = None
    for i in ladder.omega3:
        try:
            imgs = _psi_images(b, i)
        except ValueError as exc:
            inj_ok, inj_detail = False, {"vertex": i, "error": str(exc)}
            break
        if len({e for e, _ in imgs.values()}) != len(imgs):
            inj_ok, inj_detail = False, {"vertex": i}
            break
    items.append(_item(f"psi-injective-{tag}", host, inj_ok, variant=vlabel, detail=inj_detail))

    # omega4 members look exactly like the line graph of the complement
    lg_ok = True
    lg_detail: dict | None = None
    for i in ladder.omega4:
        nb = sorted(u.adj[i])
        sub = induced_graph(u, nb)
        if canonical_code(sub) != line_code:
            lg_ok, lg_detail = False, {"vertex": i, "reason": "not-line-graph-of-complement"}
            break
        imgs = _psi_images(b, i)
        if {e for e, _ in imgs.values()} != comp_edges:
            lg_ok, lg_detail = False, {"vertex": i, "reason": "psi-not-onto"}
            break
        for q1, q2 in itertools.combinations(nb, 2):
            incident = bool(set(imgs[q1][0]) & set(imgs[q2][0]))
            if incident != u.has_edge(q1, q2):
                lg_ok, lg_detail = False, {"vertex": i, "pair": [q1, q2]}
                break
        if not lg_ok:
            break
    items.append(_item(f"neighbourhood-line-graph-{tag}", host, lg_ok, variant=vlabel,
                       detail=lg_detail))

    # distance-2 closure of neighbourhood triangles, enumerated pair by pair
    # here rather than by the candidates kernel under test
    tri_ok = True
    tri_detail: dict | None = None
    for i in ladder.omega4:
        nb = sorted(u.adj[i])
        imgs = _psi_images(b, i)
        for tri in itertools.combinations(nb, 3):
            if not all(u.has_edge(q, r) for q, r in itertools.combinations(tri, 2)):
                continue
            shape = _triple_shape([imgs[q][0] for q in tri])
            external = any(
                r != i and not u.has_edge(r, i) and all(u.has_edge(r, q) for q in tri)
                for r in range(u.m)
            )
            if shape == "claw" and external:
                tri_ok = False
                tri_detail = {"vertex": i, "triangle": list(tri), "reason": "claw-closed"}
                break
            if shape == "other":
                tri_ok, tri_detail = False, {"vertex": i, "triangle": list(tri)}
                break
            if (
                shape == "triangle"
                and i == pstar_idx
                and k_eff <= n - 2
                and not external
            ):
                tri_ok = False
                tri_detail = {"vertex": i, "triangle": list(tri), "reason": "triangle-open"}
                break
        if not tri_ok:
            break
    items.append(_item(f"triangle-closure-{tag}", host, tri_ok, variant=vlabel,
                       detail=tri_detail))

    if k_eff <= n - 2:
        stats = cand.neighbourhood_stats(u, pstar_idx)
        items.append(
            _item("t-stat-counts-complement-triangles", host,
                  stats.t_stat == count_triangles(comp_g), variant=vlabel,
                  detail={"t_stat": stats.t_stat, "triangles": count_triangles(comp_g)})
        )


def _suite_omega(n_max: int, seeds: int) -> list[SuiteItem]:
    items: list[SuiteItem] = []
    for g in _hosts(1, n_max):
        variants: list[BellVariant] = [FULL]
        variants.extend(at_least(k) for k in range(2, g.n))
        for variant in variants:
            _check_omega_case(g, variant, items)
    return items


# ---------------------------------------------------------------------------
# lineroot


def _suite_lineroot(n_max: int, seeds: int) -> list[SuiteItem]:
    items = []
    for g in _hosts(0, n_max):
        host = to_graph6(g)
        nontrivial = sum(1 for comp in connected_components(g) if len(comp) > 1)
        lg = line_graph(g)
        for seed in range(seeds):
            perm = list(range(lg.n))
            random.Random(seed).shuffle(perm)
            l = lg.relabel(perm)
            try:
                root = krausz_root(l)
            except NotLineGraph:
                items.append(_item("root-roundtrip", host, False, seed=seed,
                                   detail={"line_graph": to_graph6(l)}))
                continue
            ok = is_isomorphic(line_graph(root), l)
            ok = ok and is_isomorphic(normalize_ddagger(root), normalize_ddagger(g))
            ok = ok and len(connected_components(normalize_ddagger(root))) == nontrivial
            items.append(_item("root-roundtrip", host, ok, seed=seed))
    for l in _hosts(0, min(n_max, 6)):
        host = to_graph6(l)
        expected = canonical_code(l) in _line_graph_codes(l.n)
        try:
            root = krausz_root(l)
            got = True
            ok = is_isomorphic(line_graph(root), l)
        except NotLineGraph:
            got, ok = False, True
        items.append(
            _item("recognition-matches-oracle", host, ok and got == expected,
                  detail={"krausz": got, "oracle": expected})
        )
    return items


# ---------------------------------------------------------------------------
# full-recon / upper-auto


def _suite_full_recon(n_max: int, seeds: int) -> list[SuiteItem]:
    items = []
    for g in _hosts(1, n_max):
        host = to_graph6(g)
        want = strip_universal(g)
        b = build_bell(g, FULL)
        for seed in range(seeds):
            got = upper.reconstruct_prime(scramble(b, seed))
            items.append(
                _item("full-reconstruction", host, is_isomorphic(got, want), seed=seed,
                      detail={"got": to_graph6(got), "want": to_graph6(want)})
            )
    return items


def _possibility_applies(p: upper.Possibility, k: int, n: int) -> bool:
    cond = p.k_condition
    if cond == "k <= n":
        return k <= n
    if cond == "k <= n-1":
        return k <= n - 1
    if cond == "k <= n-2":
        return k <= n - 2
    if cond == "k = n-1":
        return k == n - 1
    raise ValueError(cond)


def _suite_upper_auto(n_max: int, seeds: int) -> list[SuiteItem]:
    items = []
    for g in _hosts(2, n_max):
        host = to_graph6(g)
        n = g.n
        for k in range(1, n + 2):
            b = build_bell(g, at_least(k))
            for seed in range(seeds):
                u = scramble(b, seed)
                report = upper.reconstruct_upper_auto(u)
                label = f"atleast-{k}"
                truth = strip_universal(g)
                if b.m == 0:
                    ok = report.regime == upper.REGIME_EMPTY
                elif b.m == 1:
                    ok = report.regime == upper.REGIME_SINGLE_VERTEX
                elif u.is_clique():
                    ok = report.regime == upper.REGIME_CLIQUE and any(
                        _possibility_applies(p, k, n) and is_isomorphic(p.graph, truth)
                        for p in report.possibilities
                    )
                elif u.canonical_code() == upper._K5_MINUS_CODE:
                    ok = report.regime == upper.REGIME_K5_MINUS and any(
                        _possibility_applies(p, k, n) and is_isomorphic(p.graph, truth)
                        for p in report.possibilities
                    )
                elif k <= n - 2:
                    ok = report.regime == upper.REGIME_LOW and report.result is not None
                    ok = ok and is_isomorphic(report.result, truth)
                elif k == n - 1:
                    ok = report.regime == upper.REGIME_N_MINUS_1 and report.result is not None
                    ok = ok and is_isomorphic(report.result, claw_closure(g))
                else:
                    ok = False
                items.append(
                    _item("upper-auto", host, ok, variant=label, seed=seed,
                          detail={"regime": report.regime, "k": k})
                )
    return items


# ---------------------------------------------------------------------------
# lower-recon


def _lower_fixed_hosts(n_max: int) -> list[tuple[str, Graph, list[int]]]:
    cases: list[tuple[str, Graph, list[int]]] = []
    for n in range(4, min(n_max, 10) + 1):
        cases.append((f"empty_{n}", empty_graph(n), list(range(2, n + 2))))
    if n_max >= 13:
        cases.append(("matching_13_6", matching_graph(13, 6), [3]))
    return cases


def _component_classes_ok(b: BellGraph, fat: SetPartition, k: int) -> bool:
    """Each component of the fat vertex's neighbourhood is one move class."""
    u = b.as_unlabeled()
    idx = b.index_of(fat)
    comps = lower.neighborhood_components(u, idx)
    if len(comps) != b.host.n:
        return False
    seen_vertices: set[int] = set()
    for comp in comps:
        movers: set[int] | None = None
        for q in comp:
            mv = set(_moved_vertices(fat, b.vertices[q]))
            movers = mv if movers is None else movers & mv
        if movers is None or len(movers) != 1:
            return False
        seen_vertices.update(movers)
    return seen_vertices == set(range(b.host.n))


def _suite_lower_lemmas(n_max: int) -> list[SuiteItem]:
    items = []
    # component bound and candidate structure on the exhaustive corpus
    for g in _hosts(1, min(n_max, 6)):
        host = to_graph6(g)
        chi = chromatic_number(g)
        for k in range(max(chi, 1), g.n + 1):
            b = build_bell(g, at_most(k))
            if b.m == 0:
                continue
            u = b.as_unlabeled()
            label = f"atmost-{k}"
            bound_ok = all(
                len(lower.neighborhood_components(u, p)) <= g.n for p in range(b.m)
            )
            items.append(_item("component-count-bound", host, bound_ok, variant=label))
            if k <= chi:
                continue
            _, cands = lower.reconstruction_candidates(u)
            struct_ok = True
            detail: dict | None = None
            for p in cands:
                part = b.vertices[p]
                sizes = sorted(len(bl) for bl in part.blocks)
                if part.part_count < k and any(s in (2, 3) for s in sizes):
                    struct_ok = False
                    detail = {"vertex": p, "partition": part.to_text(), "rule": "no-2-3-parts"}
                    break
                ones = [bl for bl in part.blocks if len(bl) == 1]
                small = [bl for bl in part.blocks if len(bl) <= 2]
                for a_bl in ones:
                    for b_bl in small:
                        if a_bl == b_bl:
                            continue
                        if not any(g.has_edge(a_bl[0], y) for y in b_bl):
                            struct_ok = False
                            detail = {"vertex": p, "partition": part.to_text(),
                                      "rule": "singleton-small-edge"}
                            break
                    if not struct_ok:
                        break
                if not struct_ok:
                    break
            if 9 * g.max_degree() < g.n - 3:
                items.append(_item("candidate-structure", host, struct_ok, variant=label,
                                   detail=detail))
            else:
                # the structure is claimed only under the theorem's hypothesis
                # 9 * max degree < n - 3; outside it the row is informational
                items.append(SuiteItem(
                    check="candidate-structure",
                    host=host,
                    variant=label,
                    status="info",
                    detail={"in_hypothesis": False, "holds": struct_ok, **(detail or {})},
                ))
    # fat partitions give exactly one component per host vertex
    fat_hosts: list[tuple[Graph, SetPartition]] = [
        (empty_graph(n), lower.find_fat_partition(empty_graph(n)))
        for n in range(4, min(n_max, 6) + 1)
    ]
    if n_max >= 8:
        g = complete_bipartite(4, 4)
        fat_hosts.append((g, SetPartition.from_blocks([range(4), range(4, 8)])))
    if n_max >= 9:
        g = complete_bipartite(4, 5)
        fat_hosts.append((g, SetPartition.from_blocks([range(4), range(4, 9)])))
    for g, fat in fat_hosts:
        host = to_graph6(g)
        chi = chromatic_number(g)
        for k in (chi + 1, chi + 2):
            if k > g.n:
                continue
            b = build_bell(g, at_most(k))
            c_max, _ = lower.reconstruction_candidates(b.as_unlabeled())
            ok = c_max == g.n and _component_classes_ok(b, fat, k)
            items.append(_item("fat-vertex-components", host, ok, variant=f"atmost-{k}"))
    # split-closure equivalences on hosts with two size->=4 parts
    split_hosts: list[Graph] = []
    if n_max >= 8:
        split_hosts += [empty_graph(8), complete_bipartite(4, 4)]
    if n_max >= 9:
        split_hosts += [empty_graph(9), complete_bipartite(4, 5)]
    for g in split_hosts:
        host = to_graph6(g)
        for k in (2, 3, 4):
            if k <= chromatic_number(g) - 1:
                continue
            b = build_bell(g, at_most(k))
            u = b.as_unlabeled()
            ok = True
            detail = None
            for idx, part in enumerate(b.vertices):
                if part.part_count > k - 1:
                    continue
                big = [bl for bl in part.blocks if len(bl) >= 4]
                for a_bl, b_bl in itertools.combinations_with_replacement(big, 2):
                    for x in a_bl:
                        for y in b_bl:
                            if y <= x and a_bl == b_bl:
                                continue
                            qx = b.index_of(_split(part, x))
                            qy = b.index_of(_split(part, y))
                            closed = set(u.adj[idx])
                            closed.add(idx)
                            dc = lower._double_closed(u, closed, qx, qy)
                            want_dc = (not g.has_edge(x, y)) and part.part_count <= k - 2
                            inside = lower._all_common_inside(u, closed, qx, qy)
                            want_inside = g.has_edge(x, y) and part.part_count == k - 1
                            if dc != want_dc or inside != want_inside:
                                ok = False
                                detail = {"partition": part.to_text(), "pair": [x, y]}
                                break
                        if not ok:
                            break
                    if not ok:
                        break
                if not ok:
                    break
            items.append(_item("split-closure-equivalence", host, ok, variant=f"atmost-{k}",
                               detail=detail))
    return items


def _split(p: SetPartition, v: int) -> SetPartition:
    blocks = [tuple(x for x in bl if x != v) for bl in p.blocks if bl != (v,)]
    blocks = [bl for bl in blocks if bl]
    blocks.append((v,))
    return SetPartition(tuple(sorted(blocks)))


def _suite_lower_recon(n_max: int, seeds: int) -> list[SuiteItem]:
    items = _suite_lower_lemmas(n_max)
    for name, g, ks in _lower_fixed_hosts(n_max):
        for k in ks:
            b = build_bell(g, at_most(k))
            for seed in range(seeds):
                got = lower.reconstruct_from_bk(scramble(b, seed))
                items.append(
                    _item("lower-reconstruction", name, is_isomorphic(got, g),
                          variant=f"atmost-{k}", seed=seed,
                          detail={"got": to_graph6(got)})
                )
    if n_max >= 8:
        g = cycle_graph(8)
        b = build_bell(g, at_most(3))
        got = lower.reconstruct_from_bk(scramble(b, 0))
        items.append(
            SuiteItem(
                check="lower-reconstruction-exploratory",
                host="cycle_8",
                variant="atmost-3",
                seed=0,
                status="info",
                detail={"recovered_host": bool(is_isomorphic(got, g)), "got": to_graph6(got)},
            )
        )
    return items


# ---------------------------------------------------------------------------
# classify


def _classify_tuples(n_max: int) -> list[tuple[Graph, int]]:
    out = []
    for g in _hosts(1, n_max):
        for k in range(1, g.n + 2):
            out.append((g, k))
    return out


def _suite_classify(n_max: int, seeds: int) -> list[SuiteItem]:
    items = []
    tuples = _classify_tuples(n_max)
    for g1, k1 in tuples:
        ok = True
        detail = None
        for g2, k2 in tuples:
            verdict, _conds = classify_pair(g1, k1, g2, k2)
            if verdict != oracle_isomorphic(g1, k1, g2, k2):
                ok = False
                detail = {"g2": to_graph6(g2), "k2": k2, "classify": verdict}
                break
        items.append(_item("classify-matches-oracle", to_graph6(g1), ok,
                           variant=f"atleast-{k1}", detail=detail))
    for g in _hosts(1, n_max):
        host = to_graph6(g)
        chi = chromatic_number(g)
        ok = True
        for k1 in range(chi + 1, g.n + 1):
            for k2 in range(k1 + 1, g.n + 1):
                if oracle_isomorphic(g, k1, g, k2):
                    ok = False
        items.append(_item("distinct-sizes-between-chi-and-n", host, ok))
    rng = random.Random(seeds)
    ok = True
    detail = None
    base_hosts = [g for g in _hosts(1, min(n_max, 4))]
    for _ in range(50):
        base = rng.choice(base_hosts)
        pad1, pad2 = rng.randint(0, 2), rng.randint(0, 2)
        k0 = rng.randint(1, base.n)
        g1, g2 = base, base
        for _i in range(pad1):
            g1 = Graph.from_edges(g1.n + 1, g1.edges() + [(v, g1.n) for v in range(g1.n)])
        for _i in range(pad2):
            g2 = Graph.from_edges(g2.n + 1, g2.edges() + [(v, g2.n) for v in range(g2.n)])
        if not oracle_isomorphic(g1, k0 + pad1, g2, k0 + pad2):
            ok = False
            detail = {"base": to_graph6(base), "k0": k0, "pads": [pad1, pad2]}
            break
    items.append(_item("padding-preserves-upper-bell", "-", ok, detail=detail))
    return items


# ---------------------------------------------------------------------------
# entry points


_SUITES = {
    "core": _suite_core,
    "partitions": _suite_partitions,
    "bell": _suite_bell,
    "omega": _suite_omega,
    "lineroot": _suite_lineroot,
    "full-recon": _suite_full_recon,
    "upper-auto": _suite_upper_auto,
    "lower-recon": _suite_lower_recon,
    "classify": _suite_classify,
}

_SUITE_CAPS = {
    "core": 6,
    "partitions": 8,
    "bell": 6,
    "omega": 6,
    "lineroot": 6,
    "full-recon": 6,
    "upper-auto": 6,
    "lower-recon": 13,
    "classify": 5,
}


def run_suite(suite: str, n_max: int, seeds: int = 1) -> SuiteReport:
    """Run one named verification suite over hosts of at most n_max vertices."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    if n_max < 0 or n_max > _SUITE_CAPS[suite]:
        raise ValueError(f"suite {suite} supports 0 <= n_max <= {_SUITE_CAPS[suite]}")
    if seeds < 1:
        raise ValueError("need at least one seed")
    items = _SUITES[suite](n_max, seeds)
    return SuiteReport(suite=suite, n_max=n_max, seeds=seeds, items=items)


@dataclass
class SearchReport:
    n_max: int
    pairs_checked: int
    agreements: int
    counterexamples: list[dict]

    def to_json(self) -> dict:
        return {
            "n_max": self.n_max,
            "pairs_checked": self.pairs_checked,
            "agreements": self.agreements,
            "counterexample_count": len(self.counterexamples),
            "counterexamples": self.counterexamples,
        }


def conjecture_search(n_max: int) -> SearchReport:
    """Sweep all bounded-variant pairs with part bound above the chromatic
    number and compare actual isomorphism against the conjectured predicate:
    hosts equal after universal-vertex removal, and either both bounds reach
    the vertex count or the bound deficits agree.  Reports only; no claim
    beyond the sweep."""
    if not 1 <= n_max <= 6:
        raise ValueError("conjecture sweep supports 1 <= n_max <= 6")

    @lru_cache(maxsize=None)
    def bk_code(g: Graph, k: int) -> bytes:
        return build_bell(g, at_most(k)).as_unlabeled().canonical_code()

    tuples: list[tuple[Graph, int, bytes]] = []
    for g in _hosts(1, n_max):
        chi = chromatic_number(g)
        code = canonical_code(strip_universal(g))
        for k in range(chi + 1, g.n + 2):
            tuples.append((g, k, code))
    checked = agreements = 0
    counterexamples: list[dict] = []
    for i, (g1, k1, code1) in enumerate(tuples):
        for g2, k2, code2 in tuples[i:]:
            checked += 1
            actual = bk_code(g1, k1) == bk_code(g2, k2)
            predicted = code1 == code2 and (
                (k1 >= g1.n and k2 >= g2.n) or g1.n - k1 == g2.n - k2
            )
            if actual == predicted:
                agreements += 1
            elif len(counterexamples) < 25:
                counterexamples.append(
                    {
                        "g1": to_graph6(g1), "k1": k1,
                        "g2": to_graph6(g2), "k2": k2,
                        "actual": actual, "predicted": predicted,
                    }
                )
    return SearchReport(
        n_max=n_max,
        pairs_checked=checked,
        agreements=agreements,
        counterexamples=counterexamples,
    )
