"""Recognition of pivot partitions in an unlabeled Bell-type graph.

The all-singletons partition cannot be pinned down exactly without labels,
but a ladder of local conditions isolates a set of vertices (omega5) whose
neighbourhood structure matches it well enough to drive reconstruction:
two structural properties, then successive argmax filters on degree, on
vertex-plus-edge count of the open neighbourhood, and on the number of
neighbourhood triangles closed by an outside vertex.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bell import BellGraph, UnlabeledGraph


@dataclass(frozen=True)
class NeighbourhoodStats:
    degree: int
    n_stat: int  # vertices plus edges of the open neighbourhood
    t_stat: int  # neighbourhood triangles with a common neighbour outside


@dataclass(frozen=True)
class CandidateSets:
    omega3: tuple[int, ...]
    omega4: tuple[int, ...]
    omega5: tuple[int, ...]


def _nonadjacent_pairs(b: UnlabeledGraph, nb: list[int]) -> Iterator[tuple[int, int]]:
    for i, q1 in enumerate(nb):
        a1 = b.adj[q1]
        for q2 in nb[i + 1 :]:
            if q2 not in a1:
                yield q1, q2


def satisfies_property1(b: UnlabeledGraph, p: int, *, require_external: bool = True) -> bool:
    """Every non-adjacent pair of neighbours of p closes through exactly one
    outside vertex, and that vertex touches no third neighbour of p.

    With ``require_external=False`` a pair with no outside common neighbour
    is allowed (at-most-one reading); the default demands exactly one.
    """
    nb = sorted(b.adj[p])
    nset = b.adj[p]
    closed = set(nset)
    closed.add(p)
    for q1, q2 in _nonadjacent_pairs(b, nb):
        a2 = b.adj[q2]
        external = [r for r in b.adj[q1] if r in a2 and r not in closed]
        if len(external) > 1:
            return False
        if not external:
            if require_external:
                return False
            continue
        r = external[0]
        if len(b.adj[r] & nset) != 2:
            return False
    return True


def _triangles(b: UnlabeledGraph, nb: list[int]) -> Iterator[tuple[int, int, int]]:
    for i, q1 in enumerate(nb):
        a1 = b.adj[q1]
        for j in range(i + 1, len(nb)):
            q2 = nb[j]
            if q2 not in a1:
                continue
            a2 = b.adj[q2]
            for q3 in nb[j + 1 :]:
                if q3 in a1 and q3 in a2:
                    yield q1, q2, q3


def _external_common(b: UnlabeledGraph, closed: set[int], qs: tuple[int, ...]) -> list[int]:
    first, *rest = qs
    out = []
    for r in b.adj[first]:
        if r in closed:
            continue
        if all(r in b.adj[q] for q in rest):
            out.append(r)
    return out


def satisfies_property2(b: UnlabeledGraph, p: int) -> bool:
    """For every neighbourhood triangle closed by an outside vertex, every
    other neighbour of p touches exactly zero or two of its corners."""
    nb = sorted(b.adj[p])
    closed = set(b.adj[p])
    closed.add(p)
    for tri in _triangles(b, nb):
        if not _external_common(b, closed, tri):
            continue
        tset = set(tri)
        for q in nb:
            if q in tset:
                continue
            touches = sum(1 for t in tri if t in b.adj[q])
            if touches not in (0, 2):
                return False
    return True


def neighbourhood_stats(b: UnlabeledGraph, p: int) -> NeighbourhoodStats:
    nb = sorted(b.adj[p])
    nset = b.adj[p]
    closed = set(nset)
    closed.add(p)
    inner = sum(len(b.adj[q] & nset) for q in nb) // 2
    t_stat = sum(1 for tri in _triangles(b, nb) if _external_common(b, closed, tri))
    return NeighbourhoodStats(len(nb), len(nb) + inner, t_stat)


def pstar_candidates(b: UnlabeledGraph, *, require_external: bool = True) -> CandidateSets:
    """The omega ladder.  omega3 keeps the property-1-and-2 vertices of
    maximal degree; omega4 and omega5 are the successive argmax refinements
    by n_stat and t_stat.  Ties are kept.

    Vertices are scanned in decreasing degree order, so properties are only
    ever evaluated down to the first passing degree class.
    """
    if b.m == 0:
        raise ValueError("empty graph has no candidates")
    order = sorted(range(b.m), key=lambda v: (-len(b.adj[v]), v))
    omega3: list[int] = []
    best_degree = -1
    for v in order:
        d = len(b.adj[v])
        if omega3 and d < best_degree:
            break
        if satisfies_property1(b, v, require_external=require_external) and satisfies_property2(b, v):
            omega3.append(v)
            best_degree = d
    if not omega3:
        return CandidateSets((), (), ())
    stats = {v: neighbourhood_stats(b, v) for v in omega3}
    best_n = max(stats[v].n_stat for v in omega3)
    omega4 = [v for v in omega3 if stats[v].n_stat == best_n]
    best_t = max(stats[v].t_stat for v in omega4)
    omega5 = [v for v in omega4 if stats[v].t_stat == best_t]
    return CandidateSets(tuple(sorted(omega3)), tuple(sorted(omega4)), tuple(sorted(omega5)))


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

