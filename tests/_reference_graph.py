"""Frozen reference copies of the graph builder, parsers, twin classes and degree checks.

These are the implementations that kept adjacency twice (bit-masks plus
sorted neighbor tuples), materialized every edge list before building,
found twin classes by pairwise comparison, and tested regularity and an
even partition each with its own degree loop.  They exist only as the oracle for
the differential tests in ``test_graph_differential.py``; do not edit them to
follow changes in ``modcert``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from modcert.errors import ParseError


@dataclass(frozen=True)
class RefGraph:
    n: int
    names: tuple[str, ...]
    adj_masks: tuple[int, ...]
    adj_lists: tuple[tuple[int, ...], ...] = field(repr=False)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        names: Iterable[str] | None = None,
    ) -> "RefGraph":
        name_tuple = tuple(names) if names is not None else tuple(str(v) for v in range(n))
        if len(name_tuple) != n:
            raise ValueError(f"expected {n} names, got {len(name_tuple)}")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        lists = tuple(tuple(_bits(m)) for m in masks)
        return cls(n=n, names=name_tuple, adj_masks=tuple(masks), adj_lists=lists)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj_lists[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_masks[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj_lists[u]:
                if u < v:
                    yield (u, v)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def load_edge_list(stream: IO[str]) -> RefGraph:
    declared_n: int | None = None
    names: list[str] = []
    ids: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    saw_content = False

    def vertex_id(token: str, lineno: int) -> int:
        if declared_n is not None:
            try:
                v = int(token)
            except ValueError:
                raise ParseError(f"expected integer vertex id, got {token!r}", lineno)
            if not (0 <= v < declared_n):
                raise ParseError(f"vertex id {v} out of declared range 0..{declared_n - 1}", lineno)
            return v
        if token not in ids:
            ids[token] = len(names)
            names.append(token)
        return ids[token]

    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not saw_content and tokens[0] == "n" and len(tokens) == 2:
            try:
                declared_n = int(tokens[1])
            except ValueError:
                raise ParseError(f"bad vertex count {tokens[1]!r}", lineno)
            if declared_n < 0:
                raise ParseError(f"negative vertex count {declared_n}", lineno)
            saw_content = True
            continue
        saw_content = True
        if len(tokens) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", lineno)
        u = vertex_id(tokens[0], lineno)
        v = vertex_id(tokens[1], lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {tokens[0]!r}", lineno)
        edges.append((u, v))

    if declared_n is not None:
        return RefGraph.from_edges(declared_n, edges)
    return RefGraph.from_edges(len(names), edges, names=names)


def load_dimacs(stream: IO[str]) -> RefGraph:
    declared_n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if declared_n is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError(f"expected 'p edge <n> <m>', got {line!r}", lineno)
            try:
                declared_n = int(tokens[2])
            except ValueError:
                raise ParseError(f"bad vertex count {tokens[2]!r}", lineno)
            continue
        if tokens[0] == "e":
            if declared_n is None:
                raise ParseError("edge before problem line", lineno)
            if len(tokens) != 3:
                raise ParseError(f"expected 'e u v', got {line!r}", lineno)
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError(f"bad edge endpoints in {line!r}", lineno)
            if not (1 <= u <= declared_n and 1 <= v <= declared_n):
                raise ParseError(f"vertex id out of declared range 1..{declared_n}", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            edges.append((u - 1, v - 1))
            continue
        raise ParseError(f"unrecognized line {line!r}", lineno)
    if declared_n is None:
        raise ParseError("missing problem line")
    return RefGraph.from_edges(declared_n, edges, names=[str(v + 1) for v in range(declared_n)])


def neighborhood_diversity(graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(t, classes)`` by pairwise comparison against each class's first vertex."""
    classes: list[list[int]] = []
    for v in range(graph.n):
        placed = False
        for cls in classes:
            u = cls[0]
            strip = ~((1 << u) | (1 << v))
            if graph.adj_masks[u] & strip == graph.adj_masks[v] & strip:
                cls.append(v)
                placed = True
                break
        if not placed:
            classes.append([v])
    result = tuple(tuple(cls) for cls in classes)
    for cls in result:
        internal = [graph.has_edge(a, b) for i, a in enumerate(cls) for b in cls[i + 1:]]
        if internal and len(set(internal)) != 1:
            raise AssertionError("a twin class must induce a clique or an independent set")
    for i, first in enumerate(result):
        for second in result[i + 1:]:
            across = {graph.has_edge(a, b) for a in first for b in second}
            if len(across) > 1:
                raise AssertionError("distinct twin classes must be joined completely or not at all")
    return len(result), result


def _check_subset(graph, members: Iterable[int]) -> frozenset[int]:
    s = frozenset(members)
    for v in s:
        if not (0 <= v < graph.n):
            raise ValueError(f"vertex {v} out of range for n={graph.n}")
    return s


def _mask_of(members: Iterable[int]) -> int:
    out = 0
    for v in members:
        out |= 1 << v
    return out


def is_regular(graph, members: Iterable[int]) -> tuple[bool, int | None]:
    """Whether the induced subgraph is regular, by the set of its degree values."""
    s = _check_subset(graph, members)
    mask = _mask_of(s)
    degs = {v: (graph.adj_masks[v] & mask).bit_count() for v in sorted(s)}
    if not degs:
        return True, None
    values = set(degs.values())
    if len(values) == 1:
        return True, values.pop()
    return False, None


def verify_even_partition(graph, part0, part1) -> bool:
    """Both parts partition the vertices and induce only even degrees."""
    s0 = _check_subset(graph, part0)
    s1 = _check_subset(graph, part1)
    if s0 & s1 or len(s0) + len(s1) != graph.n:
        raise ValueError("parts do not partition the vertex set")
    for part in (s0, s1):
        mask = _mask_of(part)
        for v in part:
            if (graph.adj_masks[v] & mask).bit_count() & 1:
                return False
    return True
