"""Constructive even-degree bipartition: the base step of the dyadic program.

Every graph splits into two parts that each induce all-even degrees, and the
larger part has at least n/2 vertices.  The construction solves L c = d over
GF(2), where L is the mod-2 Laplacian (adjacency plus degree-parity diagonal)
and d the degree-parity vector; vertices are split by the bit of c.
"""

from __future__ import annotations

from .errors import InternalInvariantError
from .gf2 import BitMatrix, BitVector, Solution, solve_or_dual
from .graph import Graph, check_subset, is_q_modular


def parity_partition(graph: Graph) -> tuple[frozenset[int], frozenset[int]]:
    """Split V into (V0, V1) with all degrees even inside each part.

    Deterministic: the canonical elimination solution (free variables 0) is
    used, and V0 is the part with c_v = 0.  A graph whose degrees are all
    even therefore comes back as (V, empty).  The parts are checked once,
    from the graph, by ``verify_even_partition`` before they are returned.
    """
    n = graph.n
    parity_bits = 0
    for v in range(n):
        if graph.degree(v) & 1:
            parity_bits |= 1 << v
    rows = tuple(graph.adj_masks[v] | (parity_bits & (1 << v)) for v in range(n))
    laplacian = BitMatrix(n, n, rows)
    target = BitVector(n, parity_bits)
    result = solve_or_dual(laplacian, target)
    if not isinstance(result, Solution):
        # Guaranteed solvable: d lies in the column space of the symmetric L.
        raise InternalInvariantError("mod-2 Laplacian system L c = d is inconsistent")
    part1 = frozenset(v for v in range(n) if result.x.bits >> v & 1)
    part0 = frozenset(range(n)) - part1
    if not verify_even_partition(graph, part0, part1):
        raise InternalInvariantError("parity partition failed verification")
    return part0, part1


def verify_even_partition(graph: Graph, part0, part1) -> bool:
    """Independent check that both parts are 2-modular with residue 0: all induced degrees even."""
    s0 = check_subset(graph, part0)
    s1 = check_subset(graph, part1)
    if s0 & s1 or len(s0) + len(s1) != graph.n:
        raise ValueError("parts do not partition the vertex set")
    checks = (is_q_modular(graph, part, 2) for part in (s0, s1))
    # Residue 0, or None for an empty part.
    return all(check.modular and not check.residue for check in checks)


def two_modular_part(graph: Graph) -> frozenset[int]:
    """The larger even part: a 2-modular vertex set of size at least n/2."""
    part0, part1 = parity_partition(graph)
    return part0 if len(part0) >= len(part1) else part1


__all__ = ["parity_partition", "verify_even_partition", "two_modular_part"]
