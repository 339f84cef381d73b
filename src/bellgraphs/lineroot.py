"""Line-graph recognition and root recovery via Krausz decompositions.

A graph is a line graph exactly when its edge set partitions into cliques
with every vertex in at most two of them (Krausz, 1943).  The search below
finds such a decomposition by plain backtracking: it covers the least
uncovered edge with each usable clique through it, largest first, and
undoes the choice when the rest cannot be covered.  Nothing is memoized,
because whether a set of uncovered edges can still be covered also depends
on how many cliques each vertex already lies in.

The search works on bitmask rows.  ``uncovered[w]`` is w's adjacency row
with its covered edges cleared, so the least uncovered edge (u, v) is the
first non-zero row u and its lowest bit v.  A clique is a vertex mask; a
vertex w extends it when w's uncovered row contains the whole clique.  A
mask of saturated vertices, those already in two cliques, keeps them out
of every later clique.  A root graph is rebuilt from the decomposition;
callers that need a canonical root apply graphs.normalize_ddagger, which
quotients out the triangle/claw ambiguity and forgotten isolated vertices.
"""
from __future__ import annotations

from .graphs import Graph, _bits

__all__ = ["NotLineGraph", "krausz_root"]


class NotLineGraph(ValueError):
    """No Krausz decomposition exists: the input is not a line graph."""


def krausz_root(l: Graph) -> Graph:
    """A graph whose line graph is isomorphic to l (equal, in fact, up to
    the induced edge labeling).  Raises NotLineGraph when none exists.

    When several roots exist (triangle versus claw components) the first
    one found is returned; callers normalize with normalize_ddagger.
    """
    uncovered = list(l.adj)
    cliques: list[int] = []

    # touched: vertices in at least one chosen clique; saturated: in two.
    # No clique takes a saturated vertex, so touched & clique is the set
    # the clique saturates.
    def solve(touched: int, saturated: int) -> bool:
        u = next((w for w, row in enumerate(uncovered) if row), None)
        if u is None:
            return True
        # Rows are symmetric, so an uncovered edge from u to a lower vertex
        # would have made that vertex's row non-zero: v > u, and (u, v) is
        # the least uncovered edge.
        v = (uncovered[u] & -uncovered[u]).bit_length() - 1
        if saturated & (1 << u | 1 << v):
            return False
        options: list[int] = []

        def extend(base: int, rest: int) -> None:
            options.append(base)
            for w in _bits(rest):
                rest ^= 1 << w
                if uncovered[w] & base == base:
                    extend(base | 1 << w, rest)

        extend(1 << u | 1 << v, uncovered[u] & uncovered[v] & ~saturated)
        options.sort(key=int.bit_count, reverse=True)
        for clique in options:
            cliques.append(clique)
            for w in _bits(clique):
                uncovered[w] &= ~clique
            if solve(touched | clique, saturated | (touched & clique)):
                return True
            for w in _bits(clique):
                uncovered[w] |= clique ^ (1 << w)
            cliques.pop()
        return False

    if not solve(0, 0):
        raise NotLineGraph(f"no Krausz decomposition for {l!r}")

    # Attach singleton cliques so every vertex lies in exactly two, then
    # read the root off: one root vertex per clique, one root edge per
    # vertex of l.
    membership: list[list[int]] = [[] for _ in range(l.n)]
    for idx, clique in enumerate(cliques):
        for w in _bits(clique):
            membership[w].append(idx)
    next_id = len(cliques)
    root_edges = []
    for w in range(l.n):
        ids = membership[w]
        while len(ids) < 2:
            ids.append(next_id)
            next_id += 1
        root_edges.append((ids[0], ids[1]))
    return Graph.from_edges(next_id, root_edges)
