"""Frozen reference copies of checks that ``modcert.absorb`` replaced.

``verify_parity_cut`` checked a cut given by vertices against the problem's
label dictionary; ``_assert_cut_valid`` checked a cut given by core
positions and raised on the first failed condition.  ``basis_tail_check``
took the twin-tail decomposition as caller-built ``(mask, members)`` blocks,
checked them against the graph in ``_validate_blocks`` and counted the
singleton blocks one by one.  They exist only as the oracle for
``test_absorb_differential.py``; do not edit them to follow changes in
``modcert``.
"""

from __future__ import annotations

import _reference_traces
from modcert.errors import InternalInvariantError
from modcert.graph import check_subset, mask_of
from modcert.witness import is_q_modular


def verify_parity_cut(problem, members) -> bool:
    cut_set = check_subset(problem.graph, members)
    core_set = set(problem.core)
    if not cut_set <= core_set:
        raise ValueError("parity cut must be a subset of the core")
    if len(cut_set) % 2:
        return False
    label_sum = sum(problem.label >> u & 1 for u in cut_set) % 2
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


def basis_tail_check(problem, blocks, base_vertex=None):
    _validate_blocks(problem, blocks)
    core = problem.core
    u0 = core[0] if base_vertex is None else base_vertex
    if u0 not in core:
        raise ValueError(f"base vertex {u0} is not in the core")
    label = problem.label
    singleton_counts = dict.fromkeys(core, 0)
    remainder_acc = 0
    for mask, _members in blocks:
        if mask.bit_count() == 1 and mask != 1 << u0:
            singleton_counts[mask.bit_length() - 1] += 1
        else:
            remainder_acc ^= mask
    for u in core:
        if u == u0:
            continue
        expected = ((label >> u & 1) + (label >> u0 & 1)) % 2
        if singleton_counts[u] % 2 != expected:
            return f"singleton-block count at vertex {u} has the wrong parity"
    if remainder_acc not in (0, mask_of(core)):
        return "remaining block traces do not cancel in the quotient"
    check = is_q_modular(problem.graph, problem.core, 2 * problem.q)
    if not check.modular:
        raise InternalInvariantError(
            "basis-tail conditions held but the bare core is not 2q-modular"
        )
    return None


def _validate_blocks(problem, blocks) -> None:
    q = problem.q
    seen: set[int] = set()
    tail = problem.witness.members.difference(problem.core)
    adj, core_mask = problem.graph.adj_masks, mask_of(problem.core)
    for mask, members in blocks:
        if len(members) != q:
            raise ValueError(f"block {members} does not have size q={q}")
        for v in members:
            if v in seen:
                raise ValueError(f"vertex {v} appears in two blocks")
            if v not in tail:
                raise ValueError(f"block vertex {v} is not a tail vertex")
            seen.add(v)
            if adj[v] & core_mask != mask:
                raise ValueError(f"vertex {v} does not have the block's declared trace")
    if seen != tail:
        raise ValueError("blocks must partition the whole tail")
