"""Frozen reference copies of checks that ``modcert.absorb`` replaced.

``verify_parity_cut`` checked a cut given by vertices against the problem's
label dictionary; ``_assert_cut_valid`` checked a cut given by core
positions and raised on the first failed condition.  ``basis_tail_check``
took the twin-tail decomposition as caller-built ``(mask, members)`` blocks,
checked them against the graph in ``_validate_blocks`` and counted the
singleton blocks one by one.  ``certificate_holds`` is ``verify_certificate``
when a certificate's claims were checked by two functions, kept here as
``cut_failure`` (a cut given as a vertex-id mask, with the reason it fails)
and ``deletion_outcome`` (the recounted residue, or None).  They exist only
as the oracle for ``test_absorb_differential.py``; do not edit them to
follow changes in ``modcert``.
"""

from __future__ import annotations

from collections import Counter

import _reference_traces
from modcert.absorb import DeletionCertificate, check_claims
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


def certificate_holds(problem, cert) -> bool:
    if isinstance(cert, DeletionCertificate):
        return deletion_outcome(problem, cert) is not None
    check_claims(cert, problem.q, problem.core, problem.lift)
    cut_set = check_subset(problem.graph, cert.members)
    if not cut_set <= set(problem.core):
        raise ValueError("parity cut must be a subset of the core")
    return cut_failure(problem, mask_of(cut_set)) is None


def cut_failure(problem, cut_mask: int) -> str | None:
    size = cut_mask.bit_count()
    if size == 0 or size % 2:
        return "parity cut must be nonempty and even"
    if (problem.label & cut_mask).bit_count() % 2 == 0:
        return "parity cut fails to detect the defect"
    adj, core_mask = problem.graph.adj_masks, mask_of(problem.core)
    odd = Counter(adj[v] & core_mask for v in problem.witness.members.difference(problem.core)
                  if (adj[v] & cut_mask).bit_count() % 2)
    if any(count >= problem.q for count in odd.values()):
        return "parity cut meets an available trace oddly"
    return None


def deletion_outcome(problem, cert) -> int | None:
    check_claims(cert, problem.q, problem.core, problem.lift)
    graph = problem.graph
    core_mask = mask_of(problem.core)
    tail = problem.witness.members.difference(problem.core)
    deleted: set[int] = set()
    traces_hold = True
    for trace_members, tuple_members in cert.chosen:
        if len(tuple_members) != cert.q:
            raise ValueError(
                f"trace {trace_members}: expected a q-tuple of size {cert.q}, got {len(tuple_members)}"
            )
        trace = mask_of(trace_members)
        traces_hold &= trace.bit_count() == len(trace_members)
        for v in tuple_members:
            if v not in tail:
                raise ValueError(f"deleted vertex {v} is not a tail vertex")
            if v in deleted:
                raise ValueError(f"deleted vertex {v} cited twice; q-tuples must be disjoint")
            deleted.add(v)
            traces_hold &= (graph.adj_masks[v] & core_mask) == trace
    if not traces_hold:
        return None
    retained = problem.witness.members - deleted
    retained_mask = mask_of(retained)
    two_q = 2 * cert.q
    residues = {
        (graph.adj_masks[u] & retained_mask).bit_count() % two_q
        for u in problem.core
    }
    if len(residues) != 1:
        return None
    residue = residues.pop()
    if cert.residue_achieved is not None and cert.residue_achieved != residue:
        return None
    return residue
