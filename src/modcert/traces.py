"""Trace tables over a fixed core and the exact deletion-tail obstruction.

The trace of a tail vertex x is N(x) ∩ U, its neighborhood inside the core
U, stored as a bit-mask over vertex ids like the graph's adjacency masks.
The per-core-vertex tail counts determine the obstruction to lifting a
degree congruence one bit: modulo constant vectors the obstruction is
controlled by the oriented differences n_B - n_{complement}, never by
complement sums (those double-count the constant part and produce phantom
obstructions).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, NamedTuple, Sequence

from .errors import InternalInvariantError
from .gf2 import BitVector
from .graph import Graph, bits_of, check_subset, mask_of
from .witness import quotient_matrix


class TraceTable(NamedTuple):
    """Multiplicities and realizers of every trace occurring in a tail.

    ``entries`` maps a trace mask (bit v set = core vertex v is a neighbor)
    to the sorted tail vertices realizing it, in the order of their first
    realizer; absent masks have multiplicity zero.  ``core`` is sorted.
    """

    core: tuple[int, ...]
    entries: dict[int, tuple[int, ...]]

    @property
    def size(self) -> int:
        return len(self.core)

    def count(self, mask: int) -> int:
        return len(self.entries.get(mask, ()))

    def tail_size(self) -> int:
        return sum(len(r) for r in self.entries.values())

    def masks(self) -> list[int]:
        return sorted(self.entries)

    def available_masks(self, q: int) -> list[int]:
        """Masks whose multiplicity supports at least one q-tuple deletion."""
        return sorted(m for m, r in self.entries.items() if len(r) >= q)

    def members_of(self, mask: int) -> tuple[int, ...]:
        return tuple(bits_of(mask))

    def to_json_dict(self, name_of: Callable[[int], str] = str) -> dict:
        return {
            "core": [name_of(v) for v in self.core],
            "tail_size": self.tail_size(),
            "entries": [
                {
                    "trace": [name_of(v) for v in self.members_of(mask)],
                    "count": self.count(mask),
                    "realizers": [name_of(v) for v in self.entries[mask]],
                }
                for mask in self.masks()
            ],
        }


def split_witness(graph: Graph, witness, core) -> tuple[frozenset[int], frozenset[int]]:
    """Check that ``core`` is a nonempty subset of ``witness``; return (core, tail)."""
    core_set = check_subset(graph, core)
    if not core_set:
        raise ValueError("core must be nonempty")
    witness_set = frozenset(witness)
    if not core_set <= witness_set:
        raise ValueError("core must be a subset of the witness")
    return core_set, witness_set - core_set


def compute_traces(graph: Graph, core, tail) -> TraceTable:
    """Exact trace table of ``tail`` against ``core`` (disjoint vertex sets)."""
    core_set = check_subset(graph, core)
    tail_set = check_subset(graph, tail)
    if core_set & tail_set:
        raise ValueError("core and tail must be disjoint")
    core_mask = mask_of(core_set)
    adj = graph.adj_masks
    grouped: dict[int, list[int]] = defaultdict(list)
    for x in sorted(tail_set):
        grouped[adj[x] & core_mask].append(x)
    return TraceTable(core=tuple(sorted(core_set)), entries={m: tuple(r) for m, r in grouped.items()})


def tail_degrees(table: TraceTable) -> tuple[int, ...]:
    """Number of tail neighbors of each core vertex, in core order.

    Equals the sum of n_B over the traces containing the vertex, which is the
    same as counting tail neighbors directly.
    """
    out = dict.fromkeys(table.core, 0)
    for mask, realizers in table.entries.items():
        for v in table.members_of(mask):
            out[v] += len(realizers)
    return tuple(out.values())


def _orbit_representatives(table: TraceTable) -> list[int]:
    """One mask per complement orbit, excluding {empty, full}; smaller mask wins."""
    full = mask_of(table.core)
    reps = set()
    for mask in table.entries:
        if mask in (0, full):
            continue
        reps.add(min(mask, full ^ mask))
    return sorted(reps)


def complement_difference(table: TraceTable) -> tuple[tuple[int, ...], BitVector]:
    """Integer representative of the tail-count class modulo constants.

    Sums (n_B - n_{complement}) over one representative per complement orbit.
    The result agrees with the tail-degree vector up to a constant vector,
    which is asserted, and the quotient coordinates of its parities are
    returned alongside.
    """
    if table.size < 1:
        raise ValueError("core must be nonempty")
    full = mask_of(table.core)
    by_vertex = dict.fromkeys(table.core, 0)
    for rep in _orbit_representatives(table):
        diff = table.count(rep) - table.count(full ^ rep)
        for v in table.members_of(rep):
            by_vertex[v] += diff
    vector = tuple(by_vertex.values())
    if len({r - x for r, x in zip(tail_degrees(table), vector)}) != 1:
        raise InternalInvariantError("oriented-difference representative is not a constant shift of the tail counts")
    odd = mask_of(v for v, value in by_vertex.items() if value & 1)
    return vector, quotient_matrix((), table.core, odd)[1]


def next_bit_obstruction(rho: Sequence[int], m: int) -> BitVector | None:
    """Quotient coordinates of (rho - c)/2^m mod 2, or None when undefined.

    Requires the tail counts to be constant modulo 2^m; the reference value c
    is taken at the first core position, and any other valid choice shifts
    the quotient by a constant, leaving the class unchanged.  The class is
    zero exactly when the counts are already constant modulo 2^(m+1).
    """
    if m < 0:
        raise ValueError(f"bit index must be >= 0, got {m}")
    if not rho:
        raise ValueError("tail-count vector must be nonempty")
    modulus = 1 << m
    c = rho[0]
    for value in rho:
        if (value - c) % modulus:
            return None
    bits = BitVector.from_bits((value - c) // modulus for value in rho).bits
    return quotient_matrix((), range(len(rho)), bits)[1]


def oriented_orbit_form(table: TraceTable, m: int) -> BitVector | None:
    """The next-bit class computed orbit by orbit from oriented differences.

    Defined when every oriented difference is divisible by 2^m, and None
    otherwise; when defined it matches the direct tail-count computation,
    which is asserted.
    """
    if m < 0:
        raise ValueError(f"bit index must be >= 0, got {m}")
    modulus = 1 << m
    full = mask_of(table.core)
    acc = 0
    for rep in _orbit_representatives(table):
        diff = table.count(rep) - table.count(full ^ rep)
        if diff % modulus:
            return None
        if (diff // modulus) % 2:
            acc ^= rep
    _, coords = quotient_matrix((), table.core, acc)
    if next_bit_obstruction(tail_degrees(table), m) != coords:
        raise InternalInvariantError("orbit-difference class disagrees with the direct tail-count class")
    return coords


class PairTraceView(NamedTuple):
    """The q-heavy two-point traces on the core, with the graph's key flags.

    ``edges`` are the heavy pairs as core vertex ids, sorted.
    """

    edges: tuple[tuple[int, int], ...]
    connected: bool
    has_odd_heavy_trace: bool


def pair_trace_graph(table: TraceTable, q: int) -> PairTraceView:
    """Edges are core pairs realized by at least q tail vertices."""
    if table.size < 2:
        raise ValueError("pair-trace graph needs a core of size >= 2")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    available = table.available_masks(q)
    pairs = []
    adj = dict.fromkeys(table.core, 0)
    for mask in available:
        if mask.bit_count() == 2:
            i = (mask & -mask).bit_length() - 1
            j = mask.bit_length() - 1
            pairs.append((i, j))
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    seen = 1 << table.core[0]
    frontier = [table.core[0]]
    while frontier:
        v = frontier.pop()
        fresh = adj[v] & ~seen
        while fresh:
            low = fresh & -fresh
            seen |= low
            frontier.append(low.bit_length() - 1)
            fresh ^= low
    connected = seen == mask_of(table.core)
    odd_heavy = any(mask.bit_count() % 2 == 1 for mask in available)
    return PairTraceView(edges=tuple(sorted(pairs)), connected=connected, has_odd_heavy_trace=odd_heavy)


class TypePartition(NamedTuple):
    """Twin-type classes: within a class, vertices look alike to everyone else."""

    t: int
    classes: tuple[tuple[int, ...], ...]


def neighborhood_diversity(graph: Graph) -> TypePartition:
    """Partition vertices into twin classes and count them.

    Two vertices have the same type when their neighborhoods agree away from
    the pair itself, that is, when they share the open mask N(v) (non-adjacent
    twins) or the closed mask N(v) | {v} (adjacent twins); no vertex has both
    kinds, so grouping by either mask gives the classes in one pass (Lampis
    2012).  Classes are listed by smallest member.  The result is re-checked
    with one mask comparison per vertex: the classes partition the vertices,
    each class induces a clique or an independent set, and every member of a
    class has the same neighbors outside it, so distinct classes are joined
    completely or not at all.  A failed check raises
    :class:`InternalInvariantError`.
    """
    classes = _twin_groups(graph.adj_masks)
    _check_twin_classes(graph.adj_masks, classes)
    return TypePartition(t=len(classes), classes=tuple(tuple(cls) for cls in classes))


def _twin_groups(adj: Sequence[int]) -> list[list[int]]:
    """Vertices grouped by shared open or closed mask, ordered by smallest member."""
    by_open: dict[int, list[int]] = defaultdict(list)
    by_closed: dict[int, list[int]] = defaultdict(list)
    for v, mask in enumerate(adj):
        by_open[mask].append(v)
        by_closed[mask | 1 << v].append(v)
    groups = [g for g in by_open.values() if len(g) > 1]
    groups += [g for g in by_closed.values() if len(g) > 1]
    grouped = {v for g in groups for v in g}
    groups += [[v] for v in range(len(adj)) if v not in grouped]
    groups.sort(key=lambda g: g[0])
    return groups


def _check_twin_classes(adj: Sequence[int], classes: list[list[int]]) -> None:
    full = (1 << len(adj)) - 1
    covered = 0
    for cls in classes:
        cls_mask = mask_of(cls)
        if not cls or cls_mask.bit_count() != len(cls) or cls_mask & covered or cls_mask > full:
            raise InternalInvariantError("twin classes must partition the vertices")
        covered |= cls_mask
        rep = cls[0]
        outside = adj[rep] & ~cls_mask
        clique = bool(adj[rep] & cls_mask)
        for v in cls:
            inside = cls_mask ^ (1 << v) if clique else 0
            if adj[v] & cls_mask != inside:
                raise InternalInvariantError("a twin class must induce a clique or an independent set")
            if adj[v] & ~cls_mask != outside:
                raise InternalInvariantError("distinct twin classes must be joined completely or not at all")
    if covered != full:
        raise InternalInvariantError("twin classes must partition the vertices")
