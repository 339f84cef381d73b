"""Reconstruction from Bell graphs bounded above in part count.

The pipeline: find the vertices whose open neighbourhood has the maximal
number of connected components (one component per host vertex when a
partition into chromatic-number-many parts of size at least 4 exists),
then walk them in order.  At each one, build a candidate host graph by
inspecting common neighbourhoods at distance two, first under the rule for
a part bound one above the chromatic number and then under the rule for a
larger bound.  The first candidate H that passes a certificate is the
answer: its independent-set partitions into at most J parts number exactly
the input's order, for some bound J.  A complete candidate never passes,
since its one partition is the input's order only on a single-vertex
input, whose candidate has no vertices at all.  If none passes, the input
is outside what the walk can recover and a typed error lists every
candidate tried.  The certificate is a necessary condition, not an
isomorphism proof: a graph with the same partition count as the host
passes it too.

Also here: `detect_k_regime`, which tells the two regimes apart by
double-closed neighbour pairs and which the walk does not need; and the
constructive finder for a partition into exactly chromatic-number-many
independent parts, each of size at least 4, which exists whenever the
maximum degree is below n/9 - 1/3.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bell import EmptyInput, UnlabeledGraph
from .graphs import Graph, chromatic_number, optimal_colouring
from .partitions import SetPartition, count_partitions

REGIME_K_EQ_CHI_PLUS_1 = "k_eq_chi_plus_1"
REGIME_K_GT_CHI_PLUS_1 = "k_gt_chi_plus_1"


class Stuck(RuntimeError):
    """No improving move although a small part remains (never expected)."""


class PreconditionViolated(ValueError):
    """Maximum degree is not below n/9 - 1/3."""


# ---------------------------------------------------------------------------
# Fat partition finder


def _partition_masks(parts: list[list[int]]) -> list[int]:
    return [sum(1 << v for v in part) for part in parts]


def _potential(parts: list[list[int]]) -> tuple[int, int]:
    m = min(len(p) for p in parts)
    c = sum(1 for p in parts if len(p) == m)
    return m, -c


def _improve_once(g: Graph, parts: list[list[int]]) -> bool:
    """Apply one strictly improving move; False when all parts have size >= 4.

    Moves, in order: pull a vertex with no neighbours in a minimal part out
    of a part of size >= m+2; swap m non-neighbours out of a part of size
    >= 2m+1 against a minimal part attached by a single edge; and the
    part-count-reducing transfer over a size-m+1 part, which cannot fire
    when the part count equals the chromatic number.
    """
    sizes = [len(p) for p in parts]
    m = min(sizes)
    if m >= 4:
        return False
    masks = _partition_masks(parts)
    minimal = [i for i, s in enumerate(sizes) if s == m]

    # move 1: a vertex of a size >= m+2 part with no neighbours in A
    for ai in minimal:
        amask = masks[ai]
        for bi, bpart in enumerate(parts):
            if bi == ai or sizes[bi] < m + 2:
                continue
            for b in bpart:
                if not g.adj[b] & amask:
                    bpart.remove(b)
                    parts[ai].append(b)
                    parts[ai].sort()
                    return True

    # move 2: the m-vertex swap against a part of size >= 2m+1
    for ai in minimal:
        apart = parts[ai]
        for bi, bpart in enumerate(parts):
            if bi == ai or sizes[bi] != m + 1:
                continue
            bmask = masks[bi]
            crossing = [(a, g.adj[a] & bmask) for a in apart]
            touched = [a for a, hit in crossing if hit]
            if len(touched) != 1:
                continue
            a = touched[0]
            if (g.adj[a] & bmask).bit_count() != 1:
                continue
            for ci, cpart in enumerate(parts):
                if ci in (ai, bi) or sizes[ci] < 2 * m + 1:
                    continue
                free = [c for c in cpart if not g.has_edge(a, c)]
                if len(free) < m:
                    continue
                chosen = free[:m]
                new_a = sorted([a] + chosen)
                new_b = sorted(bpart + [x for x in apart if x != a])
                new_c = sorted(x for x in cpart if x not in chosen)
                parts[ai] = new_a
                parts[bi] = new_b
                parts[ci] = new_c
                return True

    # move 3: the size-m+1 transfer (merge A minus a into B, a into C); a
    # success here would yield one part fewer than the chromatic number,
    # so reaching it means the starting colouring was not optimal.
    for ai in minimal:
        apart = parts[ai]
        for bi, bpart in enumerate(parts):
            if bi == ai or sizes[bi] != m + 1:
                continue
            bmask = masks[bi]
            touched = [a for a in apart if g.adj[a] & bmask]
            if len(touched) != 1 or (g.adj[touched[0]] & bmask).bit_count() != 1:
                continue
            a = touched[0]
            for ci, cpart in enumerate(parts):
                if ci in (ai, bi):
                    continue
                if not g.adj[a] & masks[ci]:
                    raise AssertionError(
                        "transfer over a size-m+1 part would reduce the part "
                        "count below the chromatic number"
                    )
    raise Stuck(f"no improving move with a part of size {m} remaining")


def fat_partition_with_trace(g: Graph) -> tuple[SetPartition, list[tuple[int, int]]]:
    """find_fat_partition plus the (min size, count) trace of the loop."""
    n = g.n
    if n == 0 or not 9 * g.max_degree() < n - 3:
        raise PreconditionViolated(
            f"max degree {g.max_degree()} not below n/9 - 1/3 for n={n}"
        )
    colouring = optimal_colouring(g)
    chi = max(colouring) + 1
    parts: list[list[int]] = [[] for _ in range(chi)]
    for v, c in enumerate(colouring):
        parts[c].append(v)
    trace = [_potential(parts)]
    while _improve_once(g, parts):
        trace.append(_potential(parts))
    return SetPartition.from_blocks(parts), trace


def find_fat_partition(g: Graph) -> SetPartition:
    """A partition into exactly chromatic-number-many independent parts,
    each of size at least 4.  Requires max degree below n/9 - 1/3."""
    return fat_partition_with_trace(g)[0]


def verify_fat_partition(g: Graph, p: SetPartition) -> bool:
    """Independent checker: chi parts, each independent of size >= 4."""
    if p.vertices() != tuple(range(g.n)):
        return False
    if p.part_count != chromatic_number(g):
        return False
    for block in p.blocks:
        if len(block) < 4:
            return False
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                if g.has_edge(u, v):
                    return False
    return True


# ---------------------------------------------------------------------------
# Reconstruction candidates and double closure


def neighborhood_components(b: UnlabeledGraph, p: int) -> list[list[int]]:
    """Components of the induced open neighbourhood, each sorted, ordered
    by minimum."""
    adj = b.adj
    remaining = set(adj[p])
    comps: list[list[int]] = []
    while remaining:
        v = remaining.pop()
        comp = [v]
        frontier = adj[v] & remaining
        while frontier:
            remaining -= frontier
            comp += frontier
            reached: set[int] = set()
            for w in frontier:
                reached |= adj[w] & remaining
            frontier = reached
        comp.sort()
        comps.append(comp)
    # disjoint sorted lists compare by their first element, the minimum
    comps.sort()
    return comps


def reconstruction_candidates(b: UnlabeledGraph) -> tuple[int, list[int]]:
    """Maximal component count of an open neighbourhood, and its argmax set."""
    if b.m == 0:
        raise EmptyInput("no vertices")
    best = -1
    arg: list[int] = []
    for p in range(b.m):
        c = len(neighborhood_components(b, p))
        if c > best:
            best, arg = c, [p]
        elif c == best:
            arg.append(p)
    return best, arg


# _double_closed and _all_common_inside test one pair of neighbours from
# the adjacency lists; detect_k_regime and candidate_graph answer the same
# questions through _outside_sets, and the suites and tests compare the two.


def _double_closed(
    b: UnlabeledGraph, closed: set[int], q1: int, q2: int
) -> bool:
    a1, a2 = b.adj[q1], b.adj[q2]
    if q2 in a1:
        return False
    if len(a2) < len(a1):
        a1, a2 = a2, a1
    s = [r for r in a1 if r in a2 and r not in closed]
    if len(s) < 2:
        return False
    sset = set(s)
    matched = sum(1 for r in s if not b.adj[r].isdisjoint(sset))
    return matched == 2


def is_double_closed(b: UnlabeledGraph, p: int, q1: int, q2: int) -> bool:
    """q1, q2 are non-adjacent neighbours of p whose common neighbourhood
    outside the closed neighbourhood of p has exactly two vertices with a
    neighbour inside that set (one internally matched pair)."""
    if q1 == q2:
        raise ValueError("q1 and q2 must be distinct")
    if q1 not in b.adj[p] or q2 not in b.adj[p]:
        raise ValueError("q1 and q2 must be neighbours of p")
    closed = set(b.adj[p])
    closed.add(p)
    return _double_closed(b, closed, q1, q2)


def _all_common_inside(b: UnlabeledGraph, closed: set[int], q1: int, q2: int) -> bool:
    a1, a2 = b.adj[q1], b.adj[q2]
    if len(a2) < len(a1):
        a1, a2 = a2, a1
    for r in a1:
        if r in a2 and r not in closed:
            return False
    return True


def _outside_sets(b: UnlabeledGraph, p: int) -> dict[int, frozenset[int]]:
    """Each neighbour q of p mapped to its neighbours outside N[p].

    Two neighbours' common neighbours outside N[p] are then the
    intersection of their sets: the pairwise tests above become single
    set operations.
    """
    adj = b.adj
    closed = adj[p] | {p}
    return {q: adj[q] - closed for q in adj[p]}


def _matched_pair(adj: tuple[frozenset[int], ...], s: frozenset[int]) -> bool:
    """Exactly two vertices of s have a neighbour inside s."""
    return sum(1 for r in s if not adj[r].isdisjoint(s)) == 2


def detect_k_regime(b: UnlabeledGraph, candidates: list[int] | None = None) -> str:
    """Part bound exceeds the chromatic number by more than one exactly
    when some reconstruction candidate has a double-closed pair of
    neighbours.

    The scan is restricted to reconstruction candidates: a vertex whose
    part count equals the bound can carry a double-closed pair even at the
    smaller bound (a singleton pair plus one fat part does it), but such
    vertices never have the maximal component count.
    """
    if candidates is None:
        candidates = reconstruction_candidates(b)[1]
    adj = b.adj
    for p in candidates:
        out = _outside_sets(b, p)
        # a double-closed pair has at least two common outside neighbours
        nb = [q for q, o in out.items() if len(o) >= 2]
        for i, q1 in enumerate(nb):
            o1, a1 = out[q1], adj[q1]
            for q2 in nb[i + 1 :]:
                if q2 in a1:
                    continue
                s = o1 & out[q2]
                if len(s) >= 2 and _matched_pair(adj, s):
                    return REGIME_K_GT_CHI_PLUS_1
    return REGIME_K_EQ_CHI_PLUS_1


def candidate_graph(b: UnlabeledGraph, p: int, regime: str) -> Graph:
    """Candidate host graph at p: one vertex per neighbourhood component.

    With the part bound one above the chromatic number, an edge means some
    cross-component pair has every common neighbour inside the closed
    neighbourhood; beyond that bound, an edge means no cross-component
    pair is double-closed.  Neighbours in distinct components are never
    adjacent, so each pair test is one intersection of outside sets.
    """
    comps = neighborhood_components(b, p)
    out = _outside_sets(b, p)
    adj = b.adj
    sets = [[out[q] for q in comp] for comp in comps]

    if regime == REGIME_K_EQ_CHI_PLUS_1:
        def joined(us: list[frozenset[int]], vs: list[frozenset[int]]) -> bool:
            return any(ou.isdisjoint(ov) for ou in us for ov in vs)
    else:
        def joined(us: list[frozenset[int]], vs: list[frozenset[int]]) -> bool:
            return not any(
                len(s := ou & ov) >= 2 and _matched_pair(adj, s)
                for ou in us
                for ov in vs
            )

    n = len(comps)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if joined(sets[i], sets[j])]
    return Graph.from_edges(n, edges)


def certified_bound(h: Graph, m: int) -> int | None:
    """The part bound J whose at-most-J partition count of h is m, if any.

    The count grows strictly with J from the chromatic number up to the
    vertex count, so it is added up one part count at a time and stops as
    soon as it passes m.
    """
    total = 0
    for j in range(1, h.n + 1):
        total += count_partitions(h, j, j, m - total)
        if total >= m:
            return j if total == m else None
    return None


@dataclass(frozen=True)
class Attempt:
    """One candidate graph the walk built, and whether it passed the
    certificate."""

    pivot: int
    rule: str
    edge_count: int
    passed: bool


@dataclass(frozen=True)
class LowerReport:
    """The accepted candidate, where it came from, and everything tried.

    `rule` is the candidate-graph rule that produced the answer, not the
    true regime: on edgeless hosts the k = chi + 1 rule passes at every
    bound.  `bound` is the part bound the certificate matched.
    """

    rule: str
    component_count: int
    pivot: int
    bound: int
    result: Graph
    tried: tuple[Attempt, ...]


class NoCertifiedCandidate(RuntimeError):
    """No candidate graph passed the certificate; `tried` lists them all."""

    def __init__(self, tried: tuple[Attempt, ...]) -> None:
        super().__init__(f"none of {len(tried)} candidate graphs passed the certificate")
        self.tried = tried


def reconstruct_from_bk_report(b: UnlabeledGraph) -> LowerReport:
    """Full pipeline with diagnostics; see reconstruct_from_bk."""
    c_max, cands = reconstruction_candidates(b)
    tried: list[Attempt] = []
    for p in cands:
        for rule in (REGIME_K_EQ_CHI_PLUS_1, REGIME_K_GT_CHI_PLUS_1):
            h = candidate_graph(b, p, rule)
            bound = certified_bound(h, b.m)
            tried.append(Attempt(p, rule, h.edge_count(), bound is not None))
            if bound is not None:
                return LowerReport(rule, c_max, p, bound, h, tuple(tried))
    raise NoCertifiedCandidate(tuple(tried))


def reconstruct_from_bk(b: UnlabeledGraph) -> Graph:
    """Recover the host graph from its at-most-k Bell graph.

    Walks the vertices of maximal component count in order and returns the
    first candidate graph whose independent-set partitions
    into at most J parts number exactly the input's order, for some J.
    That is a necessary condition, not an isomorphism proof.  Raises
    NoCertifiedCandidate when no candidate passes.  The answer is the host
    when its max degree is below n/9 - 1/3 and the part bound exceeds its
    chromatic number.
    """
    return reconstruct_from_bk_report(b).result
