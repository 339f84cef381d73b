"""Recognition of pivot partitions in an unlabeled Bell-type graph.

The all-singletons partition cannot be pinned down exactly without labels,
but a ladder of local conditions isolates a set of vertices (omega5) whose
neighbourhood structure matches it well enough to drive reconstruction:
two structural properties, then successive argmax filters on degree, on
vertex-plus-edge count of the open neighbourhood, and on the number of
neighbourhood triangles closed by an outside vertex.

Every test is a few frozenset operations on the adjacency rows.  A vertex
p is a common neighbour of every pair in N(p) and lies outside N(p), so
the outside common neighbours of a set of neighbours of p are the
intersection of their rows minus N(p), less p itself.  The neighbourhood
triangles closed from outside are enumerated once per ladder vertex, by
``closed_triangles`` inside ``neighbourhood_stats``; property 2 reads
them from the stats rather than enumerating its own.

Degree lemma.  If p satisfies strict property 1 (``require_external=True``),
then every neighbour q of p has deg(q) >= deg(p).  Proof: let d = deg(p).
Besides p, q has |adj[q] & N(p)| neighbours inside N(p).  Each of the
d - 1 - |adj[q] & N(p)| neighbours q' of p not adjacent to q forms a
non-adjacent pair (q, q'), whose one outside common neighbour r lies
outside N[p] and is adjacent to q.  That r touches exactly two vertices of
N(p), namely q and q', so distinct q' give distinct r.  Hence q has at
least 1 + |adj[q] & N(p)| + (d - 1 - |adj[q] & N(p)|) = d neighbours.  The
ladder scan uses the contrapositive to drop a vertex with a lower-degree
neighbour before running property 1 on it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

from .bell import BellGraph, EmptyInput, UnlabeledGraph

Triangle = tuple[int, int, int]


@dataclass(frozen=True)
class NeighbourhoodStats:
    degree: int
    n_stat: int  # vertices plus edges of the open neighbourhood
    t_stat: int  # neighbourhood triangles with a common neighbour outside
    # those triangles, each as an increasing triple
    triangles: tuple[Triangle, ...] = field(repr=False)


@dataclass(frozen=True)
class CandidateSets:
    omega3: tuple[int, ...]
    omega4: tuple[int, ...]
    omega5: tuple[int, ...]
    # neighbourhood stats of every omega3 vertex
    stats: dict[int, NeighbourhoodStats] = field(default_factory=dict, compare=False, repr=False)
    # vertices the degree scan visited, and those of them that reached property 1
    scanned: int = field(default=0, compare=False)
    evaluated: int = field(default=0, compare=False)


def satisfies_property1(b: UnlabeledGraph, p: int, *, require_external: bool = True) -> bool:
    """Every non-adjacent pair of neighbours of p closes through exactly one
    outside vertex, and that vertex touches no third neighbour of p.

    With ``require_external=False`` a pair with no outside common neighbour
    is allowed (at-most-one reading); the default demands exactly one.
    """
    adj = b.adj
    nset = adj[p]
    rest = set(nset)
    for q1 in nset:
        rest.discard(q1)
        a1 = adj[q1]
        for q2 in rest - a1:
            # outside common neighbours of the pair, plus p itself
            external = (a1 & adj[q2]) - nset
            if len(external) != 2:
                if len(external) > 2 or require_external:
                    return False
                continue
            for r in external:
                if r != p and len(adj[r] & nset) != 2:
                    return False
    return True


def closed_triangles(b: UnlabeledGraph, p: int) -> tuple[Triangle, ...]:
    """Triangles of N(p) whose corners have a common neighbour outside N[p]."""
    adj = b.adj
    nset = adj[p]
    out = []
    for q1 in nset:
        a1 = adj[q1]
        for q2 in a1 & nset:
            if q2 < q1:
                continue
            c12 = a1 & adj[q2]
            for q3 in c12 & nset:
                # c12 & adj[q3] - N(p) always holds p
                if q3 > q2 and len((c12 & adj[q3]) - nset) > 1:
                    out.append((q1, q2, q3))
    return tuple(out)


def satisfies_property2(
    b: UnlabeledGraph, p: int, triangles: tuple[Triangle, ...] | None = None
) -> bool:
    """For every neighbourhood triangle closed by an outside vertex, every
    other neighbour of p touches exactly zero or two of its corners.

    ``triangles`` is ``closed_triangles(b, p)`` when the caller has it.  A
    corner touches the other two, so the condition says no neighbour of p
    lies in an odd number of the corners' rows.
    """
    if triangles is None:
        triangles = closed_triangles(b, p)
    adj = b.adj
    nset = adj[p]
    return all(nset.isdisjoint(adj[t1] ^ adj[t2] ^ adj[t3]) for t1, t2, t3 in triangles)


def neighbourhood_stats(b: UnlabeledGraph, p: int) -> NeighbourhoodStats:
    adj = b.adj
    nset = adj[p]
    inner = sum(len(adj[q] & nset) for q in nset) // 2
    triangles = closed_triangles(b, p)
    return NeighbourhoodStats(len(nset), len(nset) + inner, len(triangles), triangles)


def pstar_candidates(b: UnlabeledGraph, *, require_external: bool = True) -> CandidateSets:
    """The omega ladder.  omega3 keeps the property-1-and-2 vertices of
    maximal degree; omega4 and omega5 are the successive argmax refinements
    by n_stat and t_stat.  Ties are kept.

    Vertices are scanned one degree class at a time, in decreasing degree,
    and the scan stops after the first class that holds a passer.  Under
    strict property 1 a vertex whose row is not inside the set of vertices
    of its degree or more is skipped before property 1 runs.  It has a
    neighbour of lower degree, so by the degree lemma property 1 would
    reject it.  Lemma: a strict property-1 vertex p has no neighbour of
    degree below deg(p).  Proof: a neighbour q of p is adjacent to p, to
    |adj[q] & N(p)| vertices of N(p), and, for each neighbour q' of p not
    adjacent to q, to the one outside common neighbour of the pair (q, q');
    that vertex touches only q and q' in N(p), so these are all distinct,
    and deg(q) >= 1 + |adj[q] & N(p)| + (deg(p) - 1 - |adj[q] & N(p)|) =
    deg(p).

    The stats of a property-1 passer are computed once and serve both
    property 2 and the argmax filters.

    Raises ``EmptyInput`` on a graph with no vertices.
    """
    if b.m == 0:
        raise EmptyInput("no vertices")
    adj = b.adj
    degs = [len(a) for a in adj]
    # a stable sort keeps equal degrees in increasing vertex order
    order = sorted(range(b.m), key=degs.__getitem__, reverse=True)
    stats: dict[int, NeighbourhoodStats] = {}
    at_least_d: set[int] = set()  # every vertex of degree >= the class's
    scanned = evaluated = 0
    for _, group in groupby(order, key=degs.__getitem__):
        if stats:
            break
        members = list(group)
        at_least_d.update(members)
        scanned += len(members)
        for v in members:
            # a neighbour outside at_least_d has lower degree than v
            if require_external and not adj[v] <= at_least_d:
                continue
            evaluated += 1
            if not satisfies_property1(b, v, require_external=require_external):
                continue
            st = neighbourhood_stats(b, v)
            if satisfies_property2(b, v, st.triangles):
                stats[v] = st
    if not stats:
        return CandidateSets((), (), (), scanned=scanned, evaluated=evaluated)
    omega3 = list(stats)
    best_n = max(stats[v].n_stat for v in omega3)
    omega4 = [v for v in omega3 if stats[v].n_stat == best_n]
    best_t = max(stats[v].t_stat for v in omega4)
    omega5 = [v for v in omega4 if stats[v].t_stat == best_t]
    return CandidateSets(
        tuple(sorted(omega3)), tuple(sorted(omega4)), tuple(sorted(omega5)), stats,
        scanned, evaluated,
    )


# Neighbour types for the labeled map onto non-edges of the host.
TYPE_MERGE = 1
TYPE_SPLIT_PAIR = 2
TYPE_PAIR_TO_SINGLETON_FULL = 3
TYPE_PAIR_TO_SINGLETON = 4
TYPE_SPLIT_TRIPLE = 5


def psi_map(b: BellGraph, p: int, q: int) -> tuple[tuple[int, int], int]:
    """Non-edge of the host assigned to the neighbour q of p, plus its type.

    Raises ValueError when q's shape matches none of the five move shapes,
    which signals that p is not a ladder vertex (or a caller error).
    """
    if q not in b.neighbors[p]:
        raise ValueError("q is not a neighbour of p")
    P, Q = b.vertices[p], b.vertices[q]
    in_q, in_p = set(Q.blocks), set(P.blocks)
    only_p = sorted((bl for bl in P.blocks if bl not in in_q), key=len)
    only_q = sorted((bl for bl in Q.blocks if bl not in in_p), key=len)
    host = b.host
    n = host.n

    if len(only_p) == 2 and len(only_q) == 1:
        (a, bb), (merged,) = only_p, only_q
        if len(a) == 1 and len(bb) == 1 and len(merged) == 2:
            return (merged[0], merged[1]), TYPE_MERGE
    if len(only_p) == 1 and len(only_q) == 2:
        (whole,), (single, pair) = only_p, only_q
        if len(whole) == 2 and len(single) == 1 and len(pair) == 1:
            return (whole[0], whole[1]), TYPE_SPLIT_PAIR
        if len(whole) == 3 and len(single) == 1 and len(pair) == 2:
            return (pair[0], pair[1]), TYPE_SPLIT_TRIPLE
    if len(only_p) == 2 and len(only_q) == 2:
        pair_p = [bl for bl in only_p if len(bl) == 2]
        single_p = [bl for bl in only_p if len(bl) == 1]
        pair_q = [bl for bl in only_q if len(bl) == 2]
        single_q = [bl for bl in only_q if len(bl) == 1]
        if len(pair_p) == 1 and len(single_p) == 1 and len(pair_q) == 1 and len(single_q) == 1:
            (u, v) = pair_p[0]
            (w,) = single_p[0]
            if single_q[0][0] in (u, v) and w in pair_q[0]:
                moved = pair_q[0][0] if pair_q[0][1] == w else pair_q[0][1]
                if moved in (u, v) and single_q[0][0] != moved:
                    kind = (
                        TYPE_PAIR_TO_SINGLETON_FULL
                        if host.degree(w) == n - 2
                        else TYPE_PAIR_TO_SINGLETON
                    )
                    return tuple(sorted((moved, w))), kind  # type: ignore[return-value]
    raise ValueError(f"neighbour shape matches no type: {P.to_text()} -> {Q.to_text()}")

