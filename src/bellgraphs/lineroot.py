"""Line-graph recognition and root recovery via Krausz decompositions.

A graph is a line graph exactly when its edge set partitions into cliques
with every vertex in at most two of them (Krausz, 1943).  The search below
finds such a decomposition by plain backtracking: it covers the least
uncovered edge with each usable clique through it, largest first, and
undoes the choice when the rest cannot be covered.  Nothing is memoized,
because whether a set of uncovered edges can still be covered also depends
on how many cliques each vertex already lies in.  A root graph is rebuilt
from the decomposition; callers that need a canonical root apply
graphs.normalize_ddagger, which quotients out the triangle/claw ambiguity
and forgotten isolated vertices.
"""
from __future__ import annotations

from .graphs import Graph

__all__ = ["NotLineGraph", "krausz_root"]


class NotLineGraph(ValueError):
    """No Krausz decomposition exists: the input is not a line graph."""


def _candidate_cliques(
    l: Graph,
    u: int,
    v: int,
    load: list[int],
    uncovered: set[tuple[int, int]],
) -> list[tuple[int, ...]]:
    """All cliques through edge (u, v) usable in the current cover state."""
    pool = [
        w
        for w in range(l.n)
        if w not in (u, v)
        and load[w] < 2
        and l.has_edge(w, u)
        and l.has_edge(w, v)
        and (min(w, u), max(w, u)) in uncovered
        and (min(w, v), max(w, v)) in uncovered
    ]
    cliques: list[tuple[int, ...]] = []

    def extend(base: list[int], rest: list[int]) -> None:
        cliques.append(tuple(base))
        for i, w in enumerate(rest):
            if all(
                l.has_edge(w, x) and (min(w, x), max(w, x)) in uncovered for x in base
            ):
                extend(base + [w], rest[i + 1 :])

    extend([u, v], pool)
    return cliques


def krausz_root(l: Graph) -> Graph:
    """A graph whose line graph is isomorphic to l (equal, in fact, up to
    the induced edge labeling).  Raises NotLineGraph when none exists.

    When several roots exist (triangle versus claw components) the first
    one found is returned; callers normalize with normalize_ddagger.
    """
    uncovered = set(l.edges())
    load = [0] * l.n
    cliques: list[tuple[int, ...]] = []

    def solve() -> bool:
        if not uncovered:
            return True
        u, v = min(uncovered)
        if load[u] >= 2 or load[v] >= 2:
            return False
        options = _candidate_cliques(l, u, v, load, uncovered)
        options.sort(key=len, reverse=True)
        for clique in options:
            internal = [
                (min(a, b), max(a, b))
                for i, a in enumerate(clique)
                for b in clique[i + 1 :]
            ]
            cliques.append(clique)
            for e in internal:
                uncovered.remove(e)
            for w in clique:
                load[w] += 1
            if solve():
                return True
            for w in clique:
                load[w] -= 1
            for e in internal:
                uncovered.add(e)
            cliques.pop()
        return False

    if not solve():
        raise NotLineGraph(f"no Krausz decomposition for {l!r}")

    # Attach singleton cliques so every vertex lies in exactly two, then
    # read the root off: one root vertex per clique, one root edge per
    # vertex of l.
    membership: list[list[int]] = [[] for _ in range(l.n)]
    for idx, clique in enumerate(cliques):
        for w in clique:
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
