"""Deterministic construction of witness instances with prescribed trace data.

Builds a concrete graph realizing a requested core size, modulus, set of
available traces (multiplicity exactly q unless topped up), and top-bit
label class.  The core is kept independent, so core degrees are exactly the
tail-neighbor counts; those are steered with sub-threshold padding traces:

* a constant shift rides on the full trace;
* each pair {v, w} of label defects is met by q - 1 copies of the pair trace
  plus one copy of each singleton, q per endpoint in total;
* an odd number of defects is fixed by flipping the label representative,
  spending q copies of an odd available trace, or splitting q copies of an
  odd unavailable trace as (q-1) copies plus two sub-threshold leftovers.

Tail vertices are then made degree-congruent modulo q by wiring them to
deficient members of helper cliques (size 2q + r + 1 minus a matching, so
every member sits at the common residue r).  All choices are enumerated in
sorted order and the finished instance is re-verified, so the output is
deterministic and correct whenever one is returned; combinations with no
realization in this family yield None.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from modcert.absorb import AbsorptionProblem, twin_tail_decompose
from modcert.errors import InternalInvariantError
from modcert.graph import Graph, bits_of
from modcert.witness import ModularWitness


def realize_problem(
    m: int,
    q: int,
    available: Iterable[int],
    label_bits: int,
) -> AbsorptionProblem | None:
    """Realize (core size, q, available trace masks, label) as a graph problem.

    The core is vertices 0..m-1, so bit i of a trace mask or of the label
    is core vertex i, both as a vertex id and as a core position; tail and
    helper vertices come after it.  The label is matched up to a constant
    flip (the class in the quotient is what matters).  Returns None when no
    realization is found in the construction family.
    """
    if m < 1:
        raise ValueError(f"core size must be >= 1, got {m}")
    if q < 2 or q & (q - 1):
        raise ValueError(f"q must be a power of two >= 2, got {q}")
    full = (1 << m) - 1
    requested = sorted(set(available))
    for mask in requested:
        if not 0 < mask <= full:
            raise ValueError(f"available trace mask {mask:#x} out of range or empty")
    if not 0 <= label_bits <= full:
        raise ValueError("label bits out of range")
    for label_rep in (label_bits, label_bits ^ full):
        for c in range(2 * q):
            for plan in _candidate_plans(m, q, requested, label_rep, c):
                if not _caps_ok(plan, q, requested):
                    continue
                problem = _build_instance(m, q, requested, plan, c)
                if problem is None:
                    continue
                realized = set(problem.table.available_masks(q)) - {0}
                if realized != set(requested):
                    continue
                if problem.label ^ label_bits not in (0, full):
                    continue
                return problem
    return None


def _paired_plans(
    plan: dict[int, int],
    elems: list[int],
    q: int,
    available: list[int],
) -> Iterator[dict[int, int]]:
    """``plan`` plus one pair gadget per pair, for every pairing of ``elems``.

    Gadgets only add counts, so a gadget that breaks a cap breaks it for
    every plan that extends it; those plans are skipped as they arise.
    """
    if not elems:
        yield plan
        return
    first, rest = elems[0], elems[1:]
    for i, partner in enumerate(rest):
        extended = dict(plan)
        _add_pair_gadget(extended, first, partner, q)
        if _caps_ok(extended, q, available):
            yield from _paired_plans(extended, rest[:i] + rest[i + 1:], q, available)


def _add_pair_gadget(plan: dict[int, int], v: int, w: int, q: int) -> None:
    pair = (1 << v) | (1 << w)
    plan[pair] = plan.get(pair, 0) + q - 1
    plan[1 << v] = plan.get(1 << v, 0) + 1
    plan[1 << w] = plan.get(1 << w, 0) + 1


def _candidate_plans(
    m: int,
    q: int,
    available: list[int],
    label_rep: int,
    c: int,
) -> Iterator[dict[int, int]]:
    """Enumerate padding-count plans meeting the degree targets modulo 2q."""
    full = (1 << m) - 1
    two_q = 2 * q
    c0 = c % q
    containing = [sum(1 for a in available if a >> u & 1) for u in range(m)]
    gamma = 0
    for u in range(m):
        tau = (c + q * (label_rep >> u & 1) - q * containing[u]) % two_q
        if tau == (c0 + q) % two_q:
            gamma |= 1 << u
    base: dict[int, int] = {}
    if c0:
        base[full] = c0

    if gamma.bit_count() % 2 == 0:
        yield from _paired_plans(base, list(bits_of(gamma)), q, available)
        return
    # Odd defect count: spend q copies of an odd trace to flip the parity.
    for odd_mask in sorted(a for a in available if a.bit_count() % 2):
        prefix = dict(base)
        prefix[odd_mask] = prefix.get(odd_mask, 0) + q
        yield from _paired_plans(prefix, list(bits_of(gamma ^ odd_mask)), q, available)
    # Ascending and lazy: the range has 2^m masks.
    for odd_mask in range(1, full + 1):
        if odd_mask.bit_count() % 2 == 0 or odd_mask.bit_count() < 3 or odd_mask in available:
            continue
        for z in bits_of(odd_mask):
            prefix = dict(base)
            prefix[odd_mask] = prefix.get(odd_mask, 0) + q - 1
            reduced = odd_mask ^ (1 << z)
            prefix[reduced] = prefix.get(reduced, 0) + 1
            prefix[1 << z] = prefix.get(1 << z, 0) + 1
            yield from _paired_plans(prefix, list(bits_of(gamma ^ odd_mask)), q, available)


def _caps_ok(plan: dict[int, int], q: int, available: list[int]) -> bool:
    for mask, extra in plan.items():
        if extra < 0:
            return False
        if mask not in available and extra >= q:
            return False
    return True


def _build_instance(
    m: int,
    q: int,
    available: list[int],
    plan: dict[int, int],
    c: int,
) -> AbsorptionProblem | None:
    counts: dict[int, int] = {mask: q for mask in available}
    for mask, extra in plan.items():
        counts[mask] = counts.get(mask, 0) + extra
    counts = {mask: count for mask, count in counts.items() if count > 0}

    tail_traces: list[int] = []
    for mask in sorted(counts):
        tail_traces.extend([mask] * counts[mask])
    residue = c % q
    needs = [(residue - mask.bit_count()) % q for mask in tail_traces]
    if sum(needs) % 2:
        if residue % 2 == 0:
            return None
        tail_traces.append(0)
        needs.append(residue)

    edges: list[tuple[int, int]] = []
    tail_start = m
    for offset, mask in enumerate(tail_traces):
        x = tail_start + offset
        for u in bits_of(mask):
            edges.append((x, u))

    next_id = tail_start + len(tail_traces)
    units = sum(needs)
    deficient: list[int] = []
    clique_size = 2 * q + residue + 1
    per_clique = 2 * (clique_size // 2)
    while len(deficient) < units:
        members = list(range(next_id, next_id + clique_size))
        next_id += clique_size
        removed = min(units - len(deficient), per_clique) // 2
        removed_pairs = {(members[2 * i], members[2 * i + 1]) for i in range(removed)}
        for a, b in combinations(members, 2):
            if (a, b) not in removed_pairs:
                edges.append((a, b))
        for a, b in sorted(removed_pairs):
            deficient.extend((a, b))
    endpoint_index = 0
    for offset, need in enumerate(needs):
        x = tail_start + offset
        for _ in range(need):
            edges.append((x, deficient[endpoint_index]))
            endpoint_index += 1

    graph = Graph.from_edges(next_id, edges)
    try:
        witness = ModularWitness.build(graph, range(next_id), q)
        return AbsorptionProblem.build(witness, range(m))
    except ValueError:
        return None


def twin_pair_example() -> tuple[AbsorptionProblem, tuple[tuple[int, tuple[int, ...]], ...]]:
    """A hand-sized mod-2 to mod-4 lift: two twin pairs with singleton traces.

    Core named 1..4 with label (1,0,1,0); the tail is one equal-trace pair
    hitting vertex 1 and one hitting vertex 3, each pair joined internally to
    keep the witness 2-modular.  Deleting the whole tail leaves the core
    4-modular, matching the all-tail identity.
    """
    names = ["1", "2", "3", "4", "x1", "x2", "y1", "y2"]
    edges = [(4, 0), (5, 0), (6, 2), (7, 2), (4, 5), (6, 7)]
    graph = Graph.from_edges(8, edges, names=names)
    witness = ModularWitness.build(graph, range(8), 2)
    problem = AbsorptionProblem.build(witness, range(4))
    blocks = twin_tail_decompose(problem.table, 2)
    if blocks is None:
        raise InternalInvariantError("twin pair example must decompose into twin blocks")
    return problem, blocks


def path_pair_trace_problem(q: int = 2) -> AbsorptionProblem:
    """Five-vertex core whose heavy pair traces form the path 1-2-3-4-5.

    The label class equals the sum of the first two path-edge classes, so
    the canonical solve deletes exactly one q-tuple of each.
    """
    available = [0b00011, 0b00110, 0b01100, 0b11000]
    label = 0b00101
    problem = realize_problem(5, q, available, label)
    if problem is None:
        raise InternalInvariantError("path pair-trace instance must be realizable")
    return problem
