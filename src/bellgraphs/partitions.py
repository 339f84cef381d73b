"""Canonical independent-set partitions and the single-vertex-move relation.

A partition has two forms.  `SetPartition` is the payload: each block
ascending, blocks ordered by first element, so structural equality and
hashing are its identity and sorting by `blocks` gives the Bell graphs'
vertex order.  Its key, `SetPartition.masks`, is the ascending tuple of its
block bitmasks; the Bell graph build identifies partitions by key, and
`neighbors_of` moves vertices on keys by bit operations.  Two partitions
are adjacent when one is obtained from the other by changing the part of
exactly one vertex: moving it into another existing part, or splitting it
off as a new singleton.  `are_adjacent` decides that on payloads and is the
independent reference for `neighbors_of`.  `count_partitions` counts what
`enumerate_partitions` lists without building any of it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph


class PartitionCapExceeded(RuntimeError):
    """Enumeration produced more partitions than the configured cap."""


@dataclass(frozen=True)
class SetPartition:
    """A partition of a vertex set into blocks, in canonical form."""

    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        canon = sorted(t for t in (tuple(sorted(b)) for b in blocks) if t)
        flat = [v for b in canon for v in b]
        if len(set(flat)) != len(flat):
            raise ValueError("blocks are not pairwise disjoint")
        return cls(tuple(canon))

    @classmethod
    def from_masks(cls, masks: Iterable[int]) -> "SetPartition":
        """The partition whose blocks are the set bits of each mask."""
        return cls.from_blocks([v for v in range(m.bit_length()) if m >> v & 1] for m in masks)

    @property
    def masks(self) -> tuple[int, ...]:
        """The key: the ascending tuple of the block bitmasks."""
        return tuple(sorted([sum([1 << v for v in b]) for b in self.blocks]))

    @property
    def part_count(self) -> int:
        return len(self.blocks)

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(v for b in self.blocks for v in b))

    def block_of(self, v: int) -> tuple[int, ...]:
        for b in self.blocks:
            if v in b:
                return b
        raise KeyError(v)

    def to_text(self) -> str:
        return "|".join(",".join(str(v) for v in b) for b in self.blocks)

    @classmethod
    def from_text(cls, text: str) -> "SetPartition":
        text = text.strip()
        if not text:
            return cls(())
        blocks = [[int(v) for v in part.split(",")] for part in text.split("|")]
        return cls.from_blocks(blocks)


def is_independent_partition(g: Graph, p: SetPartition) -> bool:
    """Blocks disjoint, covering {0..n-1}, and each independent in g."""
    if p.vertices() != tuple(range(g.n)):
        return False
    for block in p.blocks:
        mask = 0
        for v in block:
            if g.adj[v] & mask:
                return False
            mask |= 1 << v
    return True


def make_partition(blocks: Iterable[Iterable[int]], g: Graph | None = None) -> SetPartition:
    p = SetPartition.from_blocks(blocks)
    if g is not None and not is_independent_partition(g, p):
        raise ValueError("not an independent-set partition of the given graph")
    return p


def singleton_partition(n: int) -> SetPartition:
    """The partition with every vertex in its own part."""
    return SetPartition(tuple((v,) for v in range(n)))


def enumerate_partitions(
    g: Graph, min_parts: int, max_parts: int, cap: int = 500_000
) -> list[SetPartition]:
    """All independent-set partitions of g with part count in the bounds.

    Restricted-growth enumeration: vertex v joins an existing block (when
    no neighbour is already there) or opens a new block, so every
    partition appears exactly once, already in canonical form.
    """
    n = g.n
    if n == 0:
        return [SetPartition(())] if min_parts <= 0 else []
    if min_parts > max_parts or max_parts < 1:
        return []
    adj = g.adj
    out: list[SetPartition] = []
    blocks: list[list[int]] = []
    masks: list[int] = []

    def rec(v: int) -> None:
        if v == n:
            if len(blocks) >= min_parts:
                out.append(SetPartition(tuple(tuple(b) for b in blocks)))
                if len(out) > cap:
                    raise PartitionCapExceeded(
                        f"more than {cap} partitions for n={n}, "
                        f"bounds [{min_parts}, {max_parts}]"
                    )
            return
        if len(blocks) + (n - v) < min_parts:
            return
        row = adj[v]
        bit = 1 << v
        for i in range(len(blocks)):
            if not masks[i] & row:
                blocks[i].append(v)
                masks[i] |= bit
                rec(v + 1)
                blocks[i].pop()
                masks[i] ^= bit
        if len(blocks) < max_parts:
            blocks.append([v])
            masks.append(bit)
            rec(v + 1)
            blocks.pop()
            masks.pop()

    rec(0)
    return out


class _LimitPassed(Exception):
    """Raised inside count_partitions once the count passes its limit."""


def count_partitions(
    g: Graph, min_parts: int, max_parts: int, limit: int | None = None
) -> int:
    """The number of independent-set partitions of g with part count in
    the bounds.

    The restricted growth of enumerate_partitions on block masks alone: no
    partition is built, and the last vertex adds its number of placements
    at once.  With a limit the count stops as soon as it passes the limit,
    so the result is above the limit exactly when the true count is.
    """
    n = g.n
    if n == 0:
        return 1 if min_parts <= 0 else 0
    if min_parts > max_parts or max_parts < 1:
        return 0
    adj = g.adj
    last = n - 1
    masks = [0] * n
    count = 0
    stop = -1 if limit is None else limit

    def place(v: int, used: int) -> None:
        nonlocal count
        if used + n - v < min_parts:
            return
        row = adj[v]
        if v == last:
            if used >= min_parts:
                for i in range(used):
                    if not masks[i] & row:
                        count += 1
            if used < max_parts:
                count += 1
            if count > stop >= 0:
                raise _LimitPassed
            return
        bit = 1 << v
        for i in range(used):
            if not masks[i] & row:
                masks[i] |= bit
                place(v + 1, used)
                masks[i] ^= bit
        if used < max_parts:
            masks[used] = bit
            place(v + 1, used + 1)
            masks[used] = 0

    try:
        place(0, 0)
    except _LimitPassed:
        pass
    return count


def are_adjacent(p: SetPartition, q: SetPartition) -> bool:
    """True when q arises from p by moving exactly one vertex."""
    if p.vertices() != q.vertices():
        raise ValueError("partitions are over different vertex sets")
    if p == q:
        return False
    in_q = set(q.blocks)
    in_p = set(p.blocks)
    only_p = [b for b in p.blocks if b not in in_q]
    only_q = [b for b in q.blocks if b not in in_p]
    if sorted((len(only_p), len(only_q))) == [1, 2]:
        # one block split into two, or two blocks merged into one
        (whole,) = only_p if len(only_p) == 1 else only_q
        a, b = only_q if len(only_p) == 1 else only_p
        if len(a) != 1 and len(b) != 1:
            return False
        return tuple(sorted(a + b)) == whole
    if len(only_p) == 2 and len(only_q) == 2:
        for src, other in ((only_p[0], only_p[1]), (only_p[1], only_p[0])):
            src_set, other_set = set(src), set(other)
            for shrunk, grown in ((only_q[0], only_q[1]), (only_q[1], only_q[0])):
                if len(shrunk) != len(src) - 1 or len(grown) != len(other) + 1:
                    continue
                moved = src_set - set(shrunk)
                if len(moved) == 1 and set(shrunk) < src_set and set(grown) == other_set | moved:
                    return True
        return False
    return False


def neighbors_of(
    g: Graph, key: tuple[int, ...], min_parts: int, max_parts: int
) -> list[tuple[int, ...]]:
    """The keys of all single-vertex moves from key within the part-count
    bounds, each once.

    Moving vertex u out of block A into block B (or into a new singleton)
    replaces A and B by A - u and B + u.  Two such moves give the same
    partition only when a singleton joins another singleton, which either
    one can do, or when a 2-vertex block is split, at either vertex.  So a
    singleton joins another singleton only if that one's mask is larger,
    and a 2-vertex block is split at its lower vertex only.  The relation
    is symmetric, so the list is the partition's whole neighbourhood; the
    build calls this once per vertex and so generates every edge from both
    ends, which is why ``kept_ratio`` reads 0.5.
    """
    adj = g.adj
    out: list[tuple[int, ...]] = []
    can_split = len(key) < max_parts
    can_merge = len(key) > min_parts
    for i, src in enumerate(key):
        if not src & (src - 1):
            if can_merge:
                row = adj[src.bit_length() - 1]
                for j, dst in enumerate(key):
                    if j != i and not dst & row and (dst > src or dst & (dst - 1)):
                        moved = list(key)
                        moved[j] = dst | src
                        del moved[i]
                        moved.sort()
                        out.append(tuple(moved))
            continue
        low = src & -src
        pair = not (src ^ low) & (src ^ low) - 1
        bits = src
        while bits:
            bit = bits & -bits
            bits ^= bit
            if can_split and (bit == low or not pair):
                moved = [*key, bit]
                moved[i] = src ^ bit
                moved.sort()
                out.append(tuple(moved))
            row = adj[bit.bit_length() - 1]
            for j, dst in enumerate(key):
                if j != i and not dst & row:
                    moved = list(key)
                    moved[i] = src ^ bit
                    moved[j] = dst | bit
                    moved.sort()
                    out.append(tuple(moved))
    return out
