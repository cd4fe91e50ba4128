"""Degree-congruence witnesses and the dyadic lifting predicates.

A set is q-modular when all its induced degrees agree modulo q.  Once such a
set is no larger than its modulus, the induced subgraph is outright regular:
degrees live in an interval shorter than q, so congruent means equal.  For a
power-of-two modulus the residue lifts to modulo 2q with one extra bit per
vertex, the top-bit label, kept as the mask of the vertices whose bit is 1;
everything downstream manipulates that label in the quotient of GF(2)^U by
the constant vectors, whose coordinates relative to the lowest core vertex
are computed here, by :func:`quotient_matrix` alone.  Subsets of the core
(traces, the label, cuts) are bit-masks over vertex ids; the quotient's
rows are the only place where a core vertex's position in the sorted core
matters, and the lift of a dual functional on those rows back to an even
cut of the core lives beside them, in ``_even_cut``.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .errors import InternalInvariantError
from .gf2 import BitMatrix, BitVector
from .graph import Graph, bits_of, check_subset, is_q_modular, is_regular, mask_of


def _check_modulus(q: int) -> None:
    """Raise ValueError unless q is a positive power of two, the modulus of every dyadic step."""
    if type(q) is not int or q < 1 or q & (q - 1):
        raise ValueError(f"q must be a positive power of two, got {q!r}")


class ModularWitness(NamedTuple):
    """A vertex set whose induced degrees all agree modulo a power of two."""

    graph: Graph
    members: frozenset[int]
    q: int
    residue: int | None

    @classmethod
    def build(cls, graph: Graph, members, q: int) -> "ModularWitness":
        _check_modulus(q)
        s = check_subset(graph, members)
        check = is_q_modular(graph, s, q)
        if not check.modular:
            u, v = check.conflict  # type: ignore[misc]
            raise ValueError(
                f"set is not {q}-modular: vertices {graph.name_of(u)!r} and "
                f"{graph.name_of(v)!r} have different degree residues"
            )
        return cls(graph=graph, members=s, q=q, residue=check.residue)


class Regular(NamedTuple):
    degree: int | None


class TooLarge(NamedTuple):
    size: int
    q: int


TerminalResult = Union[Regular, TooLarge]


def terminal_check(witness: ModularWitness) -> TerminalResult:
    """Report the guaranteed-regular degree once the witness fits its modulus."""
    size = len(witness.members)
    if size > witness.q:
        return TooLarge(size=size, q=witness.q)
    regular, degree = is_regular(witness.graph, witness.members)
    if not regular:
        raise InternalInvariantError(
            "a q-modular set of size <= q must induce a regular subgraph"
        )
    return Regular(degree=degree)


def top_bit_label(witness: ModularWitness, members) -> int:
    """The top-bit label on a subset of the witness: its members labeled 1, as a vertex-id mask.

    Member v is labeled 1 when deg(v) within the witness is congruent to
    d + q modulo 2q rather than to d, where the lift d is the witness
    residue itself (the smallest nonnegative one).  Any other lift differs
    by q and just flips every label, so quotient classes downstream do not
    depend on this choice.
    """
    s = check_subset(witness.graph, members)
    if not s <= witness.members:
        raise ValueError("labeled subset must lie inside the witness")
    d = witness.residue if witness.residue is not None else 0
    adj, inside = witness.graph.adj_masks, mask_of(witness.members)
    label = 0
    for v in s:
        deg = (adj[v] & inside).bit_count()
        bit = (deg - d) // witness.q % 2
        if deg % (2 * witness.q) != (d + witness.q * bit) % (2 * witness.q):
            raise InternalInvariantError("top-bit label failed its defining congruence")
        label |= bit << v
    return label


def quotient_matrix(masks, core, target: int = 0) -> tuple[BitMatrix, BitVector]:
    """Quotient coordinates of vertex-id masks over ``core``, and of ``target``.

    ``core`` is sorted.  Coordinate i of a mask is its bit at core[i + 1]
    plus its bit at the base core[0]; column j of the matrix holds mask j's
    coordinates and the vector holds the target's.  Row i is thus the masks
    holding core[i + 1], flipped in every column whose mask holds the base,
    so only the masks' own bits are visited.  Rows are filled byte-wise and
    converted once each.  Two targets get the same coordinates exactly
    when they differ by the whole core, a constant vector.
    """
    if len(core) < 1:
        raise ValueError("core must be nonempty")
    full = mask_of(core)
    outside = ~full
    width = (len(masks) + 7) >> 3
    rows = [None] * (core[-1] + 1)
    for v in core:
        rows[v] = bytearray(width)
    for j, mask in enumerate(masks):
        if mask & outside:
            raise ValueError(f"trace mask {mask:#x} has a vertex outside the core")
        byte, bit = j >> 3, 1 << (j & 7)
        while mask:
            top = mask.bit_length() - 1
            rows[top][byte] |= bit
            mask ^= 1 << top
    if target & outside:
        raise ValueError(f"target mask {target:#x} has a vertex outside the core")
    base = core[0]
    flip = int.from_bytes(rows[base], "little")
    matrix = BitMatrix(len(core) - 1, len(masks), tuple(
        int.from_bytes(rows[v], "little") ^ flip for v in core[1:]
    ))
    if target >> base & 1:
        target ^= full
    coords = 0
    for i, v in enumerate(core[1:]):
        coords |= (target >> v & 1) << i
    return matrix, BitVector(len(core) - 1, coords)


def _even_cut(functional: BitVector, core) -> int:
    """The even part of ``core``, as a vertex-id mask, that ``functional`` on :func:`quotient_matrix`'s rows names.

    Row i is core[i + 1], and each row also counts the base core[0], so the
    base joins when the rows alone are odd: a mask then meets the cut oddly
    exactly when ``functional`` is 1 on its coordinates.
    """
    cut = mask_of(core[i + 1] for i in bits_of(functional.bits))
    return cut | 1 << core[0] if cut.bit_count() % 2 else cut


def affine_lift_check(witness: ModularWitness, members) -> bool:
    """Is the subset 2q-modular, tested through the tail-corrected form?

    Equivalent to a direct degree check at modulus 2q: the subset's degrees
    are the witness degrees minus the tail-neighbor counts, so the subset is
    2q-modular exactly when tail count minus q times the top-bit label is
    constant modulo 2q on it.
    """
    s = check_subset(witness.graph, members)
    if not s <= witness.members:
        raise ValueError("subset must lie inside the witness")
    if not s:
        return True
    tail = witness.members - s
    tail_mask = mask_of(tail)
    label = top_bit_label(witness, s)
    two_q = 2 * witness.q
    seen: int | None = None
    for v in sorted(s):
        tail_count = (witness.graph.adj_masks[v] & tail_mask).bit_count()
        value = (tail_count - witness.q * (label >> v & 1)) % two_q
        if seen is None:
            seen = value
        elif value != seen:
            return False
    return True
