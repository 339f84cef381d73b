"""Decision procedure for when two at-least-k Bell graphs are isomorphic.

Eight conditions over the two (graph, bound) pairs decide equivalence
without building anything large; the direct oracle builds both Bell graphs
and compares canonical codes.  Both agree on every pair at desk scale,
which is what the classify verification suite checks exhaustively.
"""
from __future__ import annotations

from functools import lru_cache

from .bell import at_least, build_bell
from .graphs import (
    Graph,
    canonical_code,
    chromatic_number,
    claw_closure,
    complete_graph,
    disjoint_union,
    empty_graph,
    is_isomorphic,
    path_graph,
    strip_universal,
)
from .partitions import PartitionCapExceeded, count_partitions


@lru_cache(maxsize=None)
def _gprime_code(g: Graph) -> bytes:
    return canonical_code(strip_universal(g))


@lru_cache(maxsize=None)
def _claw_code(g: Graph) -> bytes:
    return canonical_code(claw_closure(g))


@lru_cache(maxsize=None)
def _chi(g: Graph) -> int:
    return chromatic_number(g)


@lru_cache(maxsize=None)
def _upper_bell_code(g: Graph, k: int, cap: int) -> bytes:
    return build_bell(g, at_least(k), cap=cap).as_unlabeled().canonical_code()


_EMPTY3_CODE = canonical_code(empty_graph(3))
_K3K1_CODE = canonical_code(disjoint_union(complete_graph(3), complete_graph(1)))
_P3K1_CODE = canonical_code(disjoint_union(path_graph(3), complete_graph(1)))


def classify_pair(
    g1: Graph, k1: int, g2: Graph, k2: int, cap: int = 500_000
) -> tuple[bool, list[int]]:
    """True plus the satisfied condition numbers when the two at-least-k
    Bell graphs are isomorphic; (False, []) otherwise.

    Condition 6 counts the Bell graph orders, so a cap applies there;
    everything else is small-graph arithmetic.
    """
    if k1 < 1 or k2 < 1:
        raise ValueError("part bounds must be at least 1")
    sides = ((g1, k1), (g2, k2))
    n1, n2 = g1.n, g2.n
    gp_iso = _gprime_code(g1) == _gprime_code(g2)
    satisfied: list[int] = []

    if all(k > g.n for g, k in sides):
        satisfied.append(1)
    if all(k == g.n or (k <= g.n and g.is_complete()) for g, k in sides):
        satisfied.append(2)
    if _claw_code(g1) == _claw_code(g2) and all(k == g.n - 1 for g, k in sides):
        satisfied.append(3)
    if (
        gp_iso
        and n1 - k1 == n2 - k2
        and all(_chi(g) + 1 <= k <= g.n - 2 for g, k in sides)
    ):
        satisfied.append(4)
    if gp_iso and all(k <= _chi(g) for g, k in sides):
        satisfied.append(5)
    # Condition 6 additionally needs the two Bell-graph orders to agree:
    # each side alone only certifies that its Bell graph is a clique, and
    # cliques of different orders are not isomorphic.
    orders = []
    for g, k in sides:
        if k > g.n - 1:
            break
        order = count_partitions(g, k, g.n, cap)
        if order > cap:
            raise PartitionCapExceeded(f"more than {cap} partitions for n={g.n}, k={k}")
        target = disjoint_union(complete_graph(order - 1), complete_graph(1))
        if _gprime_code(g) != canonical_code(target):
            break
        orders.append(order)
    if len(orders) == 2 and orders[0] == orders[1]:
        satisfied.append(6)
    if all(
        (k <= g.n - 1 and _gprime_code(g) == _K3K1_CODE)
        or (k == g.n - 1 and _gprime_code(g) == _EMPTY3_CODE)
        for g, k in sides
    ):
        satisfied.append(7)
    if all(
        (k <= g.n - 2 and _gprime_code(g) == _EMPTY3_CODE)
        or (k == g.n - 1 and _gprime_code(g) == _P3K1_CODE)
        for g, k in sides
    ):
        satisfied.append(8)

    return bool(satisfied), satisfied


def oracle_isomorphic(g1: Graph, k1: int, g2: Graph, k2: int, cap: int = 500_000) -> bool:
    """Ground truth: build both Bell graphs and compare canonical codes."""
    return _upper_bell_code(g1, k1, cap) == _upper_bell_code(g2, k2, cap)
