"""Frozen reference copies of the two parity-cut checks the cut predicate replaced.

``verify_parity_cut`` checked a cut given by vertices against the problem's
label dictionary; ``_assert_cut_valid`` checked a cut given by core
positions and raised on the first failed condition.  They exist only as the
oracle for ``test_absorb_differential.py``; do not edit them to follow
changes in ``modcert``.
"""

from __future__ import annotations

import _reference_traces
from modcert.errors import InternalInvariantError
from modcert.graph import check_subset


def verify_parity_cut(problem, members) -> bool:
    cut_set = check_subset(problem.graph, members)
    core_set = set(problem.core)
    if not cut_set <= core_set:
        raise ValueError("parity cut must be a subset of the core")
    if len(cut_set) % 2:
        return False
    label_sum = sum(problem.label.labels[u] for u in cut_set) % 2
    if label_sum == 0:
        return False
    table = _reference_traces.compute_traces(problem.graph, core_set, problem.witness.members - core_set)
    positions = {table.core.index(u) for u in cut_set}
    cut_mask = 0
    for p in positions:
        cut_mask |= 1 << p
    for mask in table.available_masks(problem.q):
        if (mask & cut_mask).bit_count() % 2:
            return False
    return True


def assert_cut_valid(table, q, label_bits, cut) -> None:
    cut_mask = 0
    for p in cut.positions:
        cut_mask |= 1 << p
    if not cut.positions or len(cut.positions) % 2:
        raise InternalInvariantError("parity cut must be nonempty and even")
    if (label_bits.bits & cut_mask).bit_count() % 2 == 0:
        raise InternalInvariantError("parity cut fails to detect the defect")
    for mask in table.available_masks(q):
        if (mask & cut_mask).bit_count() % 2:
            raise InternalInvariantError("parity cut meets an available trace oddly")
