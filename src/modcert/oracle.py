"""Brute-force ground truth for desk-scale instances.

Everything here recomputes from first principles: subset scans for the
largest regular induced subgraph, physical deletions for absorption, and
branch-and-bound for clique and independence numbers.  These are the
independent side of every dual-route check in the test suite and must stay
free of the quotient algebra used by the engine.
"""

from __future__ import annotations

import random
from itertools import combinations

from .absorb import AbsorptionProblem
from .graph import Graph, bits_of, mask_of

MAX_EXACT_N = 24
MAX_ORACLE_TRACES = 20


def _check_size(graph: Graph) -> None:
    if graph.n > MAX_EXACT_N:
        raise ValueError(f"graph too large for exact enumeration: n={graph.n} > {MAX_EXACT_N}")


def brute_force_max_regular(graph: Graph) -> tuple[int, tuple[int, ...]]:
    """Size of the largest regular induced subgraph, with a witnessing set.

    Scans subsets by decreasing size; within a size, ``combinations`` yields
    sorted tuples in lexicographic order, so the first regular subset found
    is the lexicographically smallest witness of maximum size.
    """
    _check_size(graph)
    adj = graph.adj_masks
    for size in range(graph.n, 0, -1):
        for combo in combinations(range(graph.n), size):
            mask = mask_of(combo)
            degree = (adj[combo[0]] & mask).bit_count()
            if all((adj[v] & mask).bit_count() == degree for v in combo[1:]):
                return size, combo
    return 0, ()


def brute_force_absorption(
    problem: AbsorptionProblem,
    rng: random.Random | None = None,
) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Exhaustive search over all subsets of available traces.

    Each subset is tested by physically deleting one q-tuple per chosen
    trace and recomputing the core degrees modulo 2q; no quotient algebra is
    involved, and the tail is grouped by trace here rather than read from
    the problem's trace table.  Deletes the q lowest-id realizers like the
    engine, or random q-tuples when ``rng`` is given (the outcome must not
    depend on the choice, since degrees see only the trace and the count).
    """
    q = problem.q
    graph = problem.graph
    core_mask = mask_of(problem.core)
    groups: dict[int, list[int]] = {}
    for v in sorted(problem.witness.members.difference(problem.core)):
        groups.setdefault(graph.adj_masks[v] & core_mask, []).append(v)
    available = sorted(mask for mask, realizers in groups.items() if len(realizers) >= q)
    if len(available) > MAX_ORACLE_TRACES:
        raise ValueError(f"too many available traces for the oracle: {len(available)}")
    two_q = 2 * q
    witness_members = problem.witness.members
    tuples = []
    for mask in available:
        realizers = groups[mask]
        if rng is None:
            tuples.append(realizers[:q])
        else:
            tuples.append(tuple(sorted(rng.sample(realizers, q))))
    for selector in range(1 << len(available)):
        deleted: set[int] = set()
        for j in range(len(available)):
            if selector >> j & 1:
                deleted.update(tuples[j])
        retained_mask = mask_of(witness_members - deleted)
        residues = {
            (graph.adj_masks[u] & retained_mask).bit_count() % two_q
            for u in problem.core
        }
        if len(residues) == 1:
            chosen = tuple(
                tuple(bits_of(available[j]))
                for j in range(len(available))
                if selector >> j & 1
            )
            return True, chosen
    return False, None


def brute_force_alpha_omega(graph: Graph) -> tuple[int, int]:
    """Exact independence and clique numbers via branch and bound."""
    _check_size(graph)
    omega = _max_clique_size(graph.adj_masks, graph.n)
    complement = tuple(
        ~graph.adj_masks[v] & ((1 << graph.n) - 1) & ~(1 << v)
        for v in range(graph.n)
    )
    alpha = _max_clique_size(complement, graph.n)
    return alpha, omega


def _max_clique_size(adj: tuple[int, ...], n: int) -> int:
    if n == 0:
        return 0
    best = 0

    def expand(current: int, candidates: int) -> None:
        nonlocal best
        if current + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = max(best, current)
            return
        remaining = candidates
        while remaining:
            if current + remaining.bit_count() <= best:
                return
            low = remaining & -remaining
            v = low.bit_length() - 1
            remaining ^= low
            expand(current + 1, remaining & adj[v])

    expand(0, (1 << n) - 1)
    return best
