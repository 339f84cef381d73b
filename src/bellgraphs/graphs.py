"""Bit-packed simple graphs and an exact small-graph toolkit.

Vertices are 0..n-1 with n <= 64; adjacency is one int bitmask per vertex.
Values are immutable and hashable, so they can be shared freely and used as
cache keys.  The operations here are the exact primitives the rest of the
package builds on: complements, universal-vertex stripping, line graphs,
exact chromatic numbers, canonical codes for isomorphism testing,
exhaustive generation of small graphs, and graph6 text I/O.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

MAX_VERTICES = 64
GENERATION_CAP = 8


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertex set {0..n-1}.

    ``adj[v]`` is the neighbourhood of ``v`` as a bitmask.  No self-loops,
    adjacency symmetric; both are validated at construction.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside [0, {MAX_VERTICES}]")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} mentions vertices >= {self.n}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for u in range(self.n):
            for v in _bits(self.adj[u]):
                if not (self.adj[v] >> u) & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.adj), default=0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image of the graph under the bijection v -> perm[v]."""
        rows = [0] * self.n
        for u in range(self.n):
            for v in _bits(self.adj[u]):
                rows[perm[u]] |= 1 << perm[v]
        return Graph(self.n, tuple(rows))

    def is_complete(self) -> bool:
        return self.edge_count() == self.n * (self.n - 1) // 2


# ---------------------------------------------------------------------------
# Named constructors


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> Graph:
    return complete_bipartite(1, leaves)


def matching_graph(n: int, edges: int) -> Graph:
    """``edges`` disjoint edges on n vertices, the rest isolated."""
    if 2 * edges > n:
        raise ValueError("not enough vertices for that many disjoint edges")
    return Graph.from_edges(n, [(2 * i, 2 * i + 1) for i in range(edges)])


def disjoint_union(*graphs: Graph) -> Graph:
    rows: list[int] = []
    offset = 0
    for g in graphs:
        rows.extend(row << offset for row in g.adj)
        offset += g.n
    return Graph(offset, tuple(rows))


# ---------------------------------------------------------------------------
# Elementary derived graphs


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ row ^ (1 << v)) for v, row in enumerate(g.adj)))


def universal_vertices(g: Graph) -> tuple[int, ...]:
    """Vertices adjacent to every other vertex."""
    return tuple(v for v in range(g.n) if g.degree(v) == g.n - 1)


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Induced subgraph, reindexed densely in the order given."""
    pos = {v: i for i, v in enumerate(vertices)}
    rows = [0] * len(vertices)
    for v in vertices:
        for w in _bits(g.adj[v]):
            if w in pos:
                rows[pos[v]] |= 1 << pos[w]
    return Graph(len(vertices), tuple(rows))


def strip_universal(g: Graph) -> Graph:
    """Remove every universal vertex, reindexing densely.  Idempotent."""
    universal = set(universal_vertices(g))
    return induced_subgraph(g, [v for v in range(g.n) if v not in universal])


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in _bits(g.adj[v]):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _is_triangle_component(g: Graph, comp: list[int]) -> bool:
    return len(comp) == 3 and all(g.degree(v) == 2 for v in comp)


def is_claw_component(g: Graph, comp: list[int]) -> bool:
    degs = sorted(g.degree(v) for v in comp)
    return len(comp) == 4 and degs == [1, 1, 1, 3]


def normalize_ddagger(g: Graph) -> Graph:
    """Drop isolated vertices and swap each triangle component for a claw.

    This is the canonical representative of the root ambiguity of a line
    graph: triangles and claws have the same line graph, and isolated
    vertices leave no trace in it.  Idempotent.
    """
    kept: list[int] = []
    triangles = 0
    for comp in connected_components(g):
        if len(comp) == 1:
            continue
        if _is_triangle_component(g, comp):
            triangles += 1
        else:
            kept.extend(comp)
    base = induced_subgraph(g, kept)
    out_n = base.n + 4 * triangles
    edges = base.edges()
    for t in range(triangles):
        centre = base.n + 4 * t
        edges.extend((centre, centre + i) for i in (1, 2, 3))
    return Graph.from_edges(out_n, edges)


def claw_closure(g: Graph) -> Graph:
    """Replace independent triples of degree-(n-3) vertices by the claw form.

    Computed through the complement: complement, ddagger-normalize, and
    complement back.  Idempotent up to isomorphism.
    """
    return complement(normalize_ddagger(complement(g)))


def line_graph(g: Graph) -> Graph:
    """One vertex per edge (sorted edge order); adjacency = shared endpoint."""
    es = g.edges()
    m = len(es)
    out = [
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if set(es[i]) & set(es[j])
    ]
    return Graph.from_edges(m, out)


def count_triangles(g: Graph) -> int:
    total = 0
    for u in range(g.n):
        for v in _bits(g.adj[u]):
            if v <= u:
                continue
            above = ~((1 << (v + 1)) - 1)
            total += (g.adj[u] & g.adj[v] & above).bit_count()
    return total


# ---------------------------------------------------------------------------
# Exact colouring


def _max_clique_mask(g: Graph) -> int:
    """Bitmask of one maximum clique (branch and bound with pivoting)."""
    best = {"mask": 0, "size": 0}

    def expand(r_mask: int, r_size: int, p_mask: int) -> None:
        if r_size + p_mask.bit_count() <= best["size"]:
            return
        if not p_mask:
            if r_size > best["size"]:
                best["mask"], best["size"] = r_mask, r_size
            return
        pivot = max(_bits(p_mask), key=lambda v: (g.adj[v] & p_mask).bit_count())
        candidates = p_mask & ~g.adj[pivot]
        for v in _bits(candidates):
            expand(r_mask | (1 << v), r_size + 1, p_mask & g.adj[v])
            p_mask ^= 1 << v

    expand(0, 0, (1 << g.n) - 1)
    return best["mask"]


def _try_colouring(g: Graph, k: int, order: Sequence[int]) -> tuple[int, ...] | None:
    n = g.n
    colours = [-1] * n

    def place(idx: int, used: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        banned = 0
        for w in _bits(g.adj[v]):
            if colours[w] >= 0:
                banned |= 1 << colours[w]
        limit = min(k, used + 1)
        for c in range(limit):
            if (banned >> c) & 1:
                continue
            colours[v] = c
            if place(idx + 1, max(used, c + 1)):
                return True
            colours[v] = -1
        return False

    if place(0, 0):
        return tuple(colours)
    return None


def optimal_colouring(g: Graph) -> tuple[int, ...]:
    """A proper colouring with exactly chromatic_number(g) colours."""
    if g.n == 0:
        return ()
    lower = _max_clique_mask(g).bit_count()
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    for k in range(max(lower, 1), g.n + 1):
        col = _try_colouring(g, k, order)
        if col is not None:
            return col
    raise AssertionError("unreachable: every graph is n-colourable")


def chromatic_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    return max(optimal_colouring(g)) + 1


# ---------------------------------------------------------------------------
# Canonical codes and isomorphism


def _refine(adjsets: Sequence[frozenset[int]], cells: list[list[int]]) -> list[list[int]]:
    """Stable ordered refinement by neighbour counts into current cells."""
    n = sum(len(c) for c in cells)
    cell_id = [0] * n
    while True:
        for idx, cell in enumerate(cells):
            for v in cell:
                cell_id[v] = idx
        k = len(cells)
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                counts = [0] * k
                for w in adjsets[v]:
                    counts[cell_id[w]] += 1
                groups.setdefault(tuple(counts), []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(groups):
                    new_cells.append(groups[key])
        cells = new_cells
        if not changed:
            return cells


def _cell_invariant(
    adjsets: Sequence[frozenset[int]], cells: list[list[int]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cell sizes and the quotient matrix of an equitable ordered partition.

    Row i counts the neighbours of cell i's first vertex in every cell; on an
    equitable partition all vertices of a cell give the same row.
    """
    k = len(cells)
    cell_id = [0] * len(adjsets)
    for idx, cell in enumerate(cells):
        for v in cell:
            cell_id[v] = idx
    quotient = [0] * (k * k)
    for idx, cell in enumerate(cells):
        base = idx * k
        for w in adjsets[cell[0]]:
            quotient[base + cell_id[w]] += 1
    return tuple(len(c) for c in cells), tuple(quotient)


def _leaf_code(adjsets: Sequence[frozenset[int]], perm: list[int]) -> bytes:
    """Upper triangle of the adjacency matrix in the order ``perm``, packed."""
    n = len(perm)
    bits = bytearray((n * (n - 1) // 2 + 7) // 8)
    pos = 0
    for i in range(n):
        ai = adjsets[perm[i]]
        for j in range(i + 1, n):
            if perm[j] in ai:
                bits[pos >> 3] |= 0x80 >> (pos & 7)
            pos += 1
    return bytes(bits)


def _twin_representatives(adjsets: Sequence[frozenset[int]], cell: list[int]) -> list[int]:
    """One vertex per twin class of the cell, the first in cell order.

    Swapping two twins is an automorphism fixing the current cells, so
    their subtrees agree.
    """
    reps: list[int] = []
    for v in cell:
        av = adjsets[v]
        if not any(av.difference((u,)) == adjsets[u].difference((v,)) for u in reps):
            reps.append(v)
    return reps


def _orbit_root(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _join_orbits(parent: list[int], gen: Sequence[int]) -> None:
    """Merge the cycles of ``gen`` into the union-find ``parent``, whose
    roots stay the least vertex of their orbit."""
    for v, w in enumerate(gen):
        a, b = _orbit_root(parent, v), _orbit_root(parent, w)
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b


@dataclass
class CanonicalReport:
    """One canonical-form search: the code and the work it took.

    ``leaves`` counts the discrete partitions reached; ``pruned`` counts the
    branch children left unrefined or unsearched because a found
    automorphism maps them onto an earlier child; ``generators`` holds the
    automorphisms found, each as the tuple of vertex images.
    """

    code: bytes
    leaves: int
    pruned: int
    generators: tuple[tuple[int, ...], ...]


def canonical_code_report(n: int, adjsets: Sequence[frozenset[int]]) -> CanonicalReport:
    """The search of ``canonical_code_of_sets``, with what it did."""
    header = b"G%d:" % n
    if n == 0:
        return CanonicalReport(header, 0, 0, ())
    generators: list[tuple[int, ...]] = []
    # vertices individualized on the way to the current node, and for each
    # node on that path its orbits (None while no automorphism fixes it)
    path: list[int] = []
    orbits: list[list[int] | None] = []
    # (code, ordering, path) of the first leaf and of the least leaf so far
    first = best = (b"", [0], ())
    leaves = pruned = 0

    def visit_leaf(perm: list[int]) -> int:
        """Record the leaf; return the depth of the node to resume at."""
        nonlocal first, best, leaves
        leaves += 1
        code = _leaf_code(adjsets, perm)
        if leaves == 1:
            first = best = (code, perm, tuple(path))
            return len(path)
        if code == first[0]:
            _, ref_perm, ref_path = first
        elif code == best[0]:
            _, ref_perm, ref_path = best
        else:
            if code < best[0]:
                best = (code, perm, tuple(path))
            return len(path)
        gen = [0] * n
        for a, b in zip(ref_perm, perm):
            gen[a] = b
        generators.append(tuple(gen))
        # An individualized vertex keeps its position in the leaf ordering.
        # So where the two paths part, the automorphism fixes every vertex
        # individualized above and maps the earlier leaf's branch, already
        # searched, onto this one, whose rest is therefore its image.
        parted = 0
        while path[parted] == ref_path[parted]:
            parted += 1
        for depth in range(parted + 1):
            if orbits[depth] is None:
                orbits[depth] = list(range(n))
            _join_orbits(orbits[depth], gen)
        return parted

    def search(cells: list[list[int]]) -> int:
        """Search the subtree; return the depth of the node to resume at."""
        nonlocal pruned
        target = None
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target = idx
                break
        if target is None:
            return visit_leaf([c[0] for c in cells])
        depth = len(path)
        uf: list[int] | None = None
        for g in generators:
            if all(g[v] == v for v in path):
                if uf is None:
                    uf = list(range(n))
                _join_orbits(uf, g)
        orbits.append(uf)
        children = []
        for v in _twin_representatives(adjsets, cells[target]):
            if uf is not None and _orbit_root(uf, v) != v:
                pruned += 1
                continue
            rest = [w for w in cells[target] if w != v]
            refined = _refine(adjsets, cells[:target] + [[v], rest] + cells[target + 1 :])
            children.append((_cell_invariant(adjsets, refined), v, refined))
        minimal = min(inv for inv, _, _ in children)
        resume = depth
        for inv, v, refined in children:
            if inv != minimal:
                continue
            uf = orbits[depth]
            if uf is not None and _orbit_root(uf, v) != v:
                pruned += 1
                continue
            path.append(v)
            resume = search(refined)
            path.pop()
            if resume < depth:
                break
        orbits.pop()
        return min(resume, depth)

    search(_refine(adjsets, [sorted(range(n))]))
    return CanonicalReport(header + best[0], leaves, pruned, tuple(generators))


def canonical_code_of_sets(n: int, adjsets: Sequence[frozenset[int]]) -> bytes:
    """Canonical form: equal codes exactly for isomorphic graphs.

    Individualization-refinement search.  Each node is an equitable ordered
    partition of the vertices; a child individualizes one vertex of the
    first non-singleton cell and refines.  Only the children with the least
    cell invariant among their siblings are searched, and the code is the
    least packed adjacency matrix over the leaves (discrete partitions)
    reached.

    Refinement, the cell invariant and the leaf code all commute with
    relabeling.  So an automorphism that fixes a node's individualized
    vertices maps the subtree of one child onto the subtree of another,
    leaf for leaf with equal codes, and searching only one of the two
    leaves the least matrix, and so the code, unchanged.  Two rules use
    this:

    * Twin merging: of vertices whose neighbourhoods agree apart from each
      other, only the first in the cell is branched on, since swapping two
      twins is such an automorphism.
    * Orbit pruning: two leaves with equal codes give an automorphism, the
      map between their vertex orderings.  Each node keeps the orbits of
      the automorphisms found so far that fix its individualized vertices
      and skips a child whose orbit holds an earlier vertex of the cell;
      cells stay ascending, so that vertex's subtree was searched or
      skipped by the same argument.  Where the new leaf's path parts from
      the earlier leaf's, the automorphism maps the earlier, already
      searched branch onto the current one, so the rest of the current
      branch is skipped as well.

    A graph whose search finds no automorphism keeps no orbits at all.
    Orbit pruning follows McKay and Piperno, "Practical graph isomorphism,
    II", J. Symbolic Comput. 60 (2014), arXiv:1301.1493; unlike nauty, no
    invariant is compared across branches, which keeps the code equal to
    that of the unpruned search.  ``canonical_code_report`` runs the same
    search and also returns what it did.
    """
    return canonical_code_report(n, adjsets).code


def _adjsets(g: Graph) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(_bits(row)) for row in g.adj)


def canonical_code(g: Graph) -> bytes:
    return canonical_code_of_sets(g.n, _adjsets(g))


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    return canonical_code(g1) == canonical_code(g2)


# ---------------------------------------------------------------------------
# Exhaustive generation


@lru_cache(maxsize=None)
def _all_graphs(n: int) -> tuple[Graph, ...]:
    if n == 0:
        return (empty_graph(0),)
    out: list[Graph] = []
    seen: set[bytes] = set()
    for base in _all_graphs(n - 1):
        for mask in range(1 << (n - 1)):
            rows = [row | ((mask >> v & 1) << (n - 1)) for v, row in enumerate(base.adj)]
            rows.append(mask)
            g = Graph(n, tuple(rows))
            code = canonical_code(g)
            if code not in seen:
                seen.add(code)
                out.append(g)
    return tuple(out)


def generate_nonisomorphic_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of graphs on n vertices."""
    if not 0 <= n <= GENERATION_CAP:
        raise ValueError(f"generation supported for 0 <= n <= {GENERATION_CAP}")
    yield from _all_graphs(n)


# ---------------------------------------------------------------------------
# graph6 text format


class Graph6Error(ValueError):
    pass


def _g6_encode_size(n: int) -> list[int]:
    if n < 0:
        raise Graph6Error("negative vertex count")
    if n <= 62:
        return [n + 63]
    if n <= 258047:
        return [126] + [((n >> s) & 63) + 63 for s in (12, 6, 0)]
    if n <= 68719476735:
        return [126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)]
    raise Graph6Error("vertex count too large for graph6")


def graph6_encode(n: int, has_edge: Callable[[int, int], bool]) -> str:
    """graph6 string for the graph given by ``has_edge`` on {0..n-1}."""
    out = _g6_encode_size(n)
    buf = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            buf = (buf << 1) | (1 if has_edge(i, j) else 0)
            filled += 1
            if filled == 6:
                out.append(buf + 63)
                buf, filled = 0, 0
    if filled:
        out.append((buf << (6 - filled)) + 63)
    return "".join(chr(c) for c in out)


def graph6_decode(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse a graph6 string into (n, edge list).  Strict on length."""
    data = [ord(c) - 63 for c in text.strip()]
    if not data:
        raise Graph6Error("empty graph6 string")
    if any(not 0 <= d <= 63 for d in data):
        raise Graph6Error("character outside graph6 alphabet")
    if data[0] != 63:
        n, body = data[0], data[1:]
    elif len(data) >= 2 and data[1] != 63:
        if len(data) < 4:
            raise Graph6Error("truncated graph6 size field")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        if len(data) < 8:
            raise Graph6Error("truncated graph6 size field")
        n = 0
        for d in data[2:8]:
            n = (n << 6) | d
        body = data[8:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise Graph6Error(f"expected {need} payload characters, got {len(body)}")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if (body[pos // 6] >> (5 - pos % 6)) & 1:
                edges.append((i, j))
            pos += 1
    return n, edges


def to_graph6(g: Graph) -> str:
    return graph6_encode(g.n, g.has_edge)


def from_graph6(text: str) -> Graph:
    n, edges = graph6_decode(text)
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph6 string describes {n} > {MAX_VERTICES} vertices")
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# DOT emission


def edges_to_dot(n: int, edges: Iterable[tuple[int, int]], name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    touched = set()
    for u, v in sorted(edges):
        touched.update((u, v))
        lines.append(f"  {u} -- {v};")
    for v in range(n):
        if v not in touched:
            lines.append(f"  {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_dot(g: Graph, name: str = "G") -> str:
    return edges_to_dot(g.n, g.edges(), name)
