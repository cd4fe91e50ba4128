"""Frozen reference copy of the trace table builder.

This is the ``compute_traces`` that mapped every tail vertex's core
neighborhood to core positions one by one.  It exists only as the oracle for
the differential tests in ``test_traces_differential.py``; do not edit it to
follow changes in ``modcert``.
"""

from __future__ import annotations

from collections import defaultdict

from modcert.graph import Graph, check_subset, mask_of
from modcert.traces import TraceTable


def compute_traces(graph: Graph, core, tail) -> TraceTable:
    core_set = check_subset(graph, core)
    tail_set = check_subset(graph, tail)
    if core_set & tail_set:
        raise ValueError("core and tail must be disjoint")
    core_sorted = tuple(sorted(core_set))
    index = {v: i for i, v in enumerate(core_sorted)}
    core_mask = mask_of(core_set)
    grouped: dict[int, list[int]] = defaultdict(list)
    for x in sorted(tail_set):
        neighbors = graph.adj_masks[x] & core_mask
        mask = 0
        while neighbors:
            low = neighbors & -neighbors
            mask |= 1 << index[low.bit_length() - 1]
            neighbors ^= low
        grouped[mask].append(x)
    return TraceTable(core=core_sorted, entries={m: tuple(r) for m, r in grouped.items()})
