"""The benchmark's four request streams: inputs, the timed call, and checkers.

A workload is set up from a seed: it generates its hosts and builds the
Bell graphs its requests are drawn from.  It then yields rounds.  A round
draws one request from every live cell, a cell being one input family such
as "random host on 9 vertices with 18 edges, at-least-4 variant".  The run
stops only at the end of a round, so every run sends the same mix whatever
its seed; the seed moves only the labelings that fill it.

No input is sent twice.  Every draw is compared against the digests of all
inputs sent so far.  A cell whose fresh draws keep colliding, such as a
Bell graph with only a few distinct labelings, retires from later rounds.

The answers are checked outside the timed region.  Host isomorphism is
decided by networkx, which shares no code with the package under test.
"""
from __future__ import annotations

import random
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from bellgraphs import bell, lower, upper
from bellgraphs.bell import FULL, BellGraph, BellVariant, UnlabeledGraph, at_least, at_most
from bellgraphs.graphs import (
    Graph,
    chromatic_number,
    claw_closure,
    complement,
    complete_graph,
    disjoint_union,
    empty_graph,
    generate_nonisomorphic_graphs,
    matching_graph,
    strip_universal,
    to_graph6,
)
from bellgraphs.partitions import are_adjacent, is_independent_partition

# Fresh draws tried before a cell is taken to have no unsent input left.
ATTEMPTS = 8
# Bell graphs this small have too few distinct labelings to last a run (a
# clique has one), and would retire after a random number of rounds.  They
# are sent in the first round only, so the mix of the later rounds does not
# depend on how many rounds a run gets through.
FIRST_ROUND_ONLY_M = 8


@dataclass
class Request:
    """One call of the timed function, with what its checker needs."""

    payload: Any
    expect: Any
    m: int
    key: Any  # identity of the input, for the repeat share


@dataclass
class Cell:
    """One input family; ``source`` is a Bell graph or a host sampler."""

    label: str
    source: Any
    expect: Any = None


def random_host(rng: random.Random, n: int, edges: int) -> Graph:
    """A uniformly random labeled graph on n vertices with exactly that many edges.

    Fixing the edge count rather than the density keeps the Bell-graph size
    of a cell within about 15% from seed to seed.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, rng.sample(pairs, edges))


def relabelled(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def to_nx(n: int, edges: Iterable[tuple[int, int]]) -> "nx.Graph":
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return h


def host_edges(g: Graph) -> list[tuple[int, int]]:
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1]


def isomorphic(g1: Graph, g2: Graph) -> bool:
    """Isomorphism by networkx, independent of the package's canonical codes."""
    import networkx as nx

    return nx.is_isomorphic(to_nx(g1.n, host_edges(g1)), to_nx(g2.n, host_edges(g2)))


def stirling2(n: int, k: int) -> int:
    """Partitions of n labeled items into exactly k blocks, by S(n,k) = k S(n-1,k) + S(n-1,k-1)."""
    row = [1] + [0] * k
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


def count_partitions(g: Graph, lo: int, hi: int) -> int:
    """Partitions of g's vertices into lo..hi independent blocks, counted by
    placing each vertex in turn into a block holding none of its neighbours."""
    blocks: list[int] = []

    def place(v: int) -> int:
        if len(blocks) + (g.n - v) < lo:
            return 0
        if v == g.n:
            return 1
        total = 0
        for i, block in enumerate(blocks):
            if not g.adj[v] & block:
                blocks[i] = block | 1 << v
                total += place(v + 1)
                blocks[i] = block
        if len(blocks) < hi:
            blocks.append(1 << v)
            total += place(v + 1)
            blocks.pop()
        return total

    return place(0)


def is_complete_multipartite(g: Graph) -> bool:
    """Non-adjacency is an equivalence relation (edgeless and complete hosts included)."""
    return all(
        not (g.adj[u] >> w & 1)
        for u in range(g.n)
        for v in range(g.n)
        if v != u and not (g.adj[u] >> v & 1)
        for w in range(g.n)
        if w not in (u, v) and not (g.adj[v] >> w & 1)
    )


def summary(values: list[int]) -> dict:
    if not values:
        return {"min": 0, "median": 0, "max": 0}
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


class Workload:
    """Set-up happens in the constructor; requests come from ``rounds``."""

    name = ""
    # Whole rounds processed by the traced run, so its counts repeat exactly.
    trace_rounds = 1
    # Set-ups averaged into one setup_s sample.  The core's speed flips
    # between two levels every second or so; a short set-up is averaged over
    # several runs of it so that its samples do not fall into two modes.
    setup_group = 1

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}/{seed}")
        # Host structures come from a generator that is the same for every
        # seed; the seed picks their labelings and the scrambles.  A host
        # drawn afresh per seed moves its cell's Bell-graph size by up to 15%,
        # which would swamp a comparison between two runs.
        self.structures = random.Random(f"{self.name}/structures")
        self.cells = self.make_cells()
        if len({cell.label for cell in self.cells}) != len(self.cells):
            raise ValueError(f"{self.name}: cell labels are not unique")
        self.sent: set = set()
        self.sizes: list[int] = []
        self.distinct: set = set()

    def make_cells(self) -> list[Cell]:
        raise NotImplementedError

    def random_host(self, n: int, edges: int) -> Graph:
        return relabelled(self.rng, random_host(self.structures, n, edges))

    def call(self, payload: Any) -> Any:
        """The timed call.  Reaches the package through module attributes,
        so the traced run's wrappers see it."""
        raise NotImplementedError

    def draw(self, cell: Cell) -> list[Request] | None:
        """Fresh requests from the cell, or None once it has none left."""
        raise NotImplementedError

    def check_one(self, req: Request, answer: Any) -> bool:
        raise NotImplementedError

    def rounds(self) -> Iterator[list[Request]]:
        live = list(self.cells)
        while live:
            batch: list[Request] = []
            for cell in list(live):
                drawn = self.draw(cell)
                if drawn is not None:
                    batch.extend(drawn)
                if drawn is None or (isinstance(cell.source, BellGraph)
                                     and cell.source.m <= FIRST_ROUND_ONLY_M):
                    live.remove(cell)
            if batch:
                yield batch

    def fresh_scramble(self, cell: Cell) -> Request | None:
        for _ in range(ATTEMPTS):
            u = bell.scramble(cell.source, self.rng.getrandbits(32))
            # Equal inputs hash equal; a collision of unequal ones only costs a redraw.
            key = hash(u.adj)
            if key not in self.sent:
                self.sent.add(key)
                return Request(u, cell.expect, u.m, key)
        return None

    def check(self, batch: list[Request], answers: list[Any]) -> list[bool]:
        """Per-request verdicts; an exception is a wrong answer.  Also records
        the input properties reported at the end of the run."""
        verdicts = []
        for req, answer in zip(batch, answers):
            self.record(req, answer)
            try:
                ok = not isinstance(answer, Exception) and self.check_one(req, answer)
            except Exception:  # a malformed answer the checker cannot read
                ok = False
            verdicts.append(ok)
        return verdicts

    def record(self, req: Request, answer: Any) -> None:
        self.sizes.append(self.size(req, answer))
        self.distinct.add(req.key)

    def size(self, req: Request, answer: Any) -> int:
        return req.m

    def properties(self, attempted: int) -> dict:
        return {
            "cells": len(self.cells),
            "m": summary(self.sizes),
            "repeat_share": 1 - len(self.distinct) / attempted if attempted else 0.0,
        }

    def extra_checks(self) -> dict:
        """Checks run once after the timed phase; see LowerRecon."""
        return {}


# ---------------------------------------------------------------------------
# upper-recon


def _possibility_applies(k_condition: str, k: int, n: int) -> bool:
    return {
        "k <= n": k <= n,
        "k <= n-1": k <= n - 1,
        "k <= n-2": k <= n - 2,
        "k = n-1": k == n - 1,
    }[k_condition]


class UpperRecon(Workload):
    name = "upper-recon"
    trace_rounds = 12
    # (n, edges) of the random hosts; densities 0.3 to 0.8.
    RANDOM_HOSTS = ((7, 6), (7, 10), (7, 17), (8, 11), (8, 14), (8, 22),
                    (9, 18), (9, 23), (9, 29), (10, 26), (10, 29), (10, 36))

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.regimes: Counter = Counter()

    def make_cells(self) -> list[Cell]:
        hosts = [(f"random-{n}-{e}", self.random_host(n, e)) for n, e in self.RANDOM_HOSTS]
        # K7 minus a triangle gives the K5-minus-an-edge shape for k <= 5 and a
        # clique at k = 6, the two degenerate regimes.
        triangle = disjoint_union(complete_graph(3), empty_graph(4))
        hosts.append(("k7-minus-triangle", relabelled(self.rng, complement(triangle))))
        cells = []
        for label, g in hosts:
            # at-least-k equals the full graph for every k up to chi
            for k in [1, *range(chromatic_number(g) + 1, g.n + 1)]:
                variant = FULL if k == 1 else at_least(k)
                cells.append(Cell(f"{label}/{variant.label()}", bell.build_bell(g, variant), (g, k)))
        # Large inputs from the edgeless host.
        for variant, k in ((FULL, 1), (at_least(5), 5)):
            cells.append(Cell(f"edgeless-8/{variant.label()}", bell.build_bell(empty_graph(8), variant),
                              (empty_graph(8), k)))
        return cells

    def call(self, payload: UnlabeledGraph) -> upper.ReconstructionReport:
        return upper.reconstruct_upper_auto(payload)

    def draw(self, cell: Cell) -> list[Request] | None:
        req = self.fresh_scramble(cell)
        return None if req is None else [req]

    def check_one(self, req: Request, report: upper.ReconstructionReport) -> bool:
        """The rules of the upper-auto verification suite, on edge counts
        rather than the package's own clique and K5-minus tests."""
        self.regimes[report.regime] += 1
        host, k = req.expect
        n, u = host.n, req.payload
        truth = strip_universal(host)
        m, edges = u.m, u.edge_count()

        def some_possibility(regime: str) -> bool:
            return report.regime == regime and any(
                _possibility_applies(p.k_condition, k, n) and isomorphic(p.graph, truth)
                for p in report.possibilities
            )

        if m == 1:
            return report.regime == upper.REGIME_SINGLE_VERTEX
        if edges == m * (m - 1) // 2:
            return some_possibility(upper.REGIME_CLIQUE)
        if m == 5 and edges == 9:
            return some_possibility(upper.REGIME_K5_MINUS)
        if report.result is None:
            return False
        if k <= n - 2:
            return report.regime == upper.REGIME_LOW and isomorphic(report.result, truth)
        if k == n - 1:
            return report.regime == upper.REGIME_N_MINUS_1 and isomorphic(report.result, claw_closure(host))
        return False

    def properties(self, attempted: int) -> dict:
        total = sum(self.regimes.values()) or 1
        return {**super().properties(attempted),
                "regime_share": {r: c / total for r, c in sorted(self.regimes.items())}}


# ---------------------------------------------------------------------------
# lower-recon


class LowerRecon(Workload):
    name = "lower-recon"
    trace_rounds = 3
    # (host, k) with k one or two above the chromatic number.
    EDGELESS = [(n, 2) for n in range(6, 12)] + [(n, 3) for n in (6, 7, 8)]
    MATCHINGS = [(8, e, k) for e in (1, 2) for k in (3, 4)]
    # k = chi + 3 on edgeless hosts: the package answers with an (n-1)-edge
    # graph instead of the host on every one of these.  Run once after the
    # timed phase and reported on its own, not as part of the timed stream.
    CHI_PLUS_3 = [(n, 4) for n in range(5, 9)]

    def make_cells(self) -> list[Cell]:
        def cell(label: str, g: Graph, k: int) -> Cell:
            return Cell(f"{label}/at_most-{k}", bell.build_bell(g, at_most(k)), g)

        cells = [cell(f"edgeless-{n}", empty_graph(n), k) for n, k in self.EDGELESS]
        cells += [cell(f"matching-{n}-{e}", relabelled(self.rng, matching_graph(n, e)), k)
                  for n, e, k in self.MATCHINGS]
        self.chi3_cells = [cell(f"edgeless-{n}", empty_graph(n), k) for n, k in self.CHI_PLUS_3]
        return cells

    def call(self, payload: UnlabeledGraph) -> Graph:
        return lower.reconstruct_from_bk(payload)

    def draw(self, cell: Cell) -> list[Request] | None:
        req = self.fresh_scramble(cell)
        return None if req is None else [req]

    def check_one(self, req: Request, answer: Graph) -> bool:
        return isomorphic(answer, req.expect)

    def extra_checks(self) -> dict:
        """The k = chi + 3 slice: count of wrong answers out of those attempted."""
        wrong = 0
        for cell in self.chi3_cells:
            (req,) = self.draw(cell)
            try:
                ok = self.check_one(req, self.call(req.payload))
            except Exception:
                ok = False
            wrong += not ok
        return {"chi3_slice_attempted": len(self.chi3_cells), "chi3_slice_wrong": wrong}


# ---------------------------------------------------------------------------
# build


# Host structures for the build cells; each cell draws a new one per round
# from its own generator, the same for every seed.
def _edgeless(n: int) -> Callable[[random.Random], Graph]:
    return lambda structures: empty_graph(n)


def _matching(n: int, e: int) -> Callable[[random.Random], Graph]:
    return lambda structures: matching_graph(n, e)


def _random(n: int, e: int) -> Callable[[random.Random], Graph]:
    return lambda structures: random_host(structures, n, e)


class Build(Workload):
    name = "build"
    trace_rounds = 4
    setup_group = 5
    # The edgeless hosts have one labeling per variant, so they are sent in
    # the first round only.
    FAMILIES: list[tuple[str, Callable[[random.Random], Graph], tuple[BellVariant, ...]]] = [
        ("random-7-6", _random(7, 6), (FULL, at_most(3), at_least(4))),
        ("random-7-10", _random(7, 10), (FULL, at_most(4))),
        ("random-8-11", _random(8, 11), (FULL, at_least(4))),
        ("random-8-22", _random(8, 22), (FULL,)),
        ("random-9-18", _random(9, 18), (FULL, at_most(4))),
        ("random-9-29", _random(9, 29), (FULL,)),
        ("random-10-29", _random(10, 29), (FULL, at_least(6))),
        ("random-10-36", _random(10, 36), (FULL,)),
        ("matching-8-2", _matching(8, 2), (at_most(3), at_least(6))),
        ("matching-9-2", _matching(9, 2), (at_most(3), at_least(7))),
        ("edgeless-8", _edgeless(8), (at_most(2), at_most(3), at_least(6), at_least(7))),
        ("edgeless-9", _edgeless(9), (at_most(2), at_most(3), at_least(7), at_least(8))),
    ]

    def make_cells(self) -> list[Cell]:
        return [Cell(f"{label}/{v.label()}", (family, random.Random(f"{self.name}/{label}/{v.label()}")), v)
                for label, family, variants in self.FAMILIES for v in variants]

    def call(self, payload: tuple[Graph, BellVariant, int]) -> tuple[BellGraph, UnlabeledGraph]:
        host, variant, seed = payload
        b = bell.build_bell(host, variant)
        return b, bell.scramble(b, seed)

    def draw(self, cell: Cell) -> list[Request] | None:
        for _ in range(ATTEMPTS):
            family, structures = cell.source
            host = relabelled(self.rng, family(structures))
            key = (host.adj, cell.expect)
            if key not in self.sent:
                self.sent.add(key)
                return [Request((host, cell.expect, self.rng.getrandbits(32)), None, 0, key)]
        return None

    def size(self, req: Request, answer: Any) -> int:
        return 0 if isinstance(answer, Exception) else answer[0].m

    def check_one(self, req: Request, answer: tuple[BellGraph, UnlabeledGraph]) -> bool:
        """The vertex count against the Stirling recurrence on edgeless hosts
        and against an independent count of partitions on the others; the
        neighbour lists of sampled vertices against partitions.are_adjacent
        over every vertex; and the scrambled copy's degree multiset."""
        host, variant, seed = req.payload
        b, u = answer
        lo, hi = variant.part_bounds(host.n)
        if host.edge_count() == 0:
            expected_m = sum(stirling2(host.n, j) for j in range(lo, hi + 1))
        else:
            expected_m = count_partitions(host, lo, hi)
        if b.m != expected_m or len(set(b.vertices)) != b.m:
            return False
        if u.degree_multiset() != tuple(sorted(len(nb) for nb in b.neighbors)):
            return False
        if b.m == 0:
            return True
        rng = random.Random(seed)
        for i in rng.choices(range(b.m), k=8):
            p = b.vertices[i]
            if not lo <= p.part_count <= hi or not is_independent_partition(host, p):
                return False
            # Partitions one move apart have at most four blocks that are not
            # in both; the filter skips only pairs that cannot be adjacent.
            blocks = set(p.blocks)
            moves = {j for j, q in enumerate(b.vertices)
                     if len(blocks.symmetric_difference(q.blocks)) <= 4 and are_adjacent(p, q)}
            if set(b.neighbors[i]) != moves or len(b.neighbors[i]) != len(moves):
                return False
        return True


# ---------------------------------------------------------------------------
# iso-oracle


class IsoOracle(Workload):
    name = "iso-oracle"
    trace_rounds = 1
    setup_group = 3
    N6_SAMPLE = 48

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.symmetric = 0
        self.cell_of = {cell.label: cell for cell in self.cells}
        # Isomorphism classes of the cells' Bell graphs, found by networkx
        # as the checker first meets each cell, and the code seen per class.
        self.class_of: dict[str, int] = {}
        self.representatives: dict[tuple, list[tuple[int, Any]]] = {}
        self.code_class: dict[bytes, int] = {}
        self.class_code: dict[int, bytes] = {}

    def make_cells(self) -> list[Cell]:
        hosts = [g for n in range(1, 6) for g in generate_nonisomorphic_graphs(n)]
        sample = [g for g in generate_nonisomorphic_graphs(6) if g.edge_count() > 0]
        hosts += self.structures.sample(sample, self.N6_SAMPLE)
        cells = []
        for g in hosts:
            if g.n == 6:
                variants = [FULL]
            else:
                chi = chromatic_number(g)
                variants = [FULL, *(at_most(k) for k in range(chi, g.n)),
                            *(at_least(k) for k in range(2, g.n + 1))]
            for v in variants:
                label = f"{to_graph6(g)}/{v.label()}"
                cells.append(Cell(label, bell.build_bell(g, v), label))
        # The edgeless 6-vertex host: its full and larger variants take 2 to
        # 13 s per code, so only at-least-5 is sent.
        label = "edgeless-6/at_least-5"
        cells.append(Cell(label, bell.build_bell(empty_graph(6), at_least(5)), label))
        self.rng.shuffle(cells)
        return cells

    def call(self, payload: UnlabeledGraph) -> bytes:
        return payload.canonical_code()

    def draw(self, cell: Cell) -> list[Request] | None:
        pair = [self.fresh_scramble(cell) for _ in range(2)]
        return None if None in pair else pair

    def iso_class(self, label: str) -> int:
        """The isomorphism class of the cell's Bell graph, by networkx."""
        import networkx as nx

        if label not in self.class_of:
            b = self.cell_of[label].source
            g = to_nx(b.m, b.edges())
            bucket = self.representatives.setdefault(tuple(sorted(len(nb) for nb in b.neighbors)), [])
            found = next((c for c, rep in bucket if nx.is_isomorphic(rep, g)), None)
            if found is None:
                found = sum(map(len, self.representatives.values()))
                bucket.append((found, g))
            self.class_of[label] = found
        return self.class_of[label]

    def check(self, batch: list[Request], answers: list[Any]) -> list[bool]:
        """Both labelings of a pair must get the same code, and over the run
        codes and isomorphism classes must correspond one to one: a code
        seen for one class is wrong for any other."""
        verdicts = []
        for i in range(0, len(batch), 2):
            a, b = answers[i], answers[i + 1]
            ok = isinstance(a, bytes) and a == b
            if ok:
                c = self.iso_class(batch[i].expect)
                ok = self.code_class.setdefault(a, c) == c and self.class_code.setdefault(c, a) == a
            verdicts += [ok, ok]
            self.record(batch[i], a)
            self.record(batch[i + 1], b)
            self.symmetric += 2 * is_complete_multipartite(self.cell_of[batch[i].expect].source.host)
        return verdicts

    def properties(self, attempted: int) -> dict:
        return {**super().properties(attempted),
                "symmetric_host_share": self.symmetric / attempted if attempted else 0.0}


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (UpperRecon, LowerRecon, Build, IsoOracle)}
