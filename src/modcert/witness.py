"""Degree-congruence witnesses and the dyadic lifting predicates.

A set is q-modular when all its induced degrees agree modulo q.  Once such a
set is no larger than its modulus, the induced subgraph is outright regular:
degrees live in an interval shorter than q, so congruent means equal.  For a
power-of-two modulus the residue lifts to modulo 2q with one extra bit per
vertex, the top-bit label; everything downstream manipulates that label in
the quotient of GF(2)^U by the constant vectors, whose coordinates relative
to the lowest core vertex are computed here, by :func:`quotient_matrix`
alone.  Subsets of the core are bit-masks over vertex ids; the quotient's
rows are the only place where a core vertex's position in the sorted core
matters.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .errors import InternalInvariantError
from .gf2 import BitMatrix, BitVector
from .graph import Graph, check_subset, induced_degrees, is_regular, mask_of


class ModularityCheck(NamedTuple):
    modular: bool
    residue: int | None
    conflict: tuple[int, int] | None


def is_q_modular(graph: Graph, members, q: int) -> ModularityCheck:
    """Do all induced degrees on ``members`` agree modulo q?

    Returns the common residue on success, or a witnessing pair of vertices
    with different residues on failure.  Any q >= 1 is accepted here; the
    power-of-two restriction applies only to the dyadic machinery.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    degs = induced_degrees(graph, members)
    if not degs:
        return ModularityCheck(True, None, None)
    items = sorted(degs.items())
    first_v, first_deg = items[0]
    residue = first_deg % q
    for v, deg in items[1:]:
        if deg % q != residue:
            return ModularityCheck(False, None, (first_v, v))
    return ModularityCheck(True, residue, None)


def _check_modulus(q: int) -> None:
    """Raise ValueError unless q is a positive power of two, the modulus of every dyadic step."""
    if q < 1 or q & (q - 1):
        raise ValueError(f"q must be a positive power of two, got {q}")


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


class TopBitLabel(NamedTuple):
    """Per-vertex bit lifting degrees from modulo q to modulo 2q.

    For every labeled vertex, deg(v) within the witness is congruent to
    base_lift + q * labels[v] modulo 2q.
    """

    base_lift: int
    q: int
    labels: dict[int, int]

    def mask(self) -> int:
        """The labeled vertices whose label is 1, as a vertex-id mask."""
        return mask_of(v for v, bit in self.labels.items() if bit)


def top_bit_label(witness: ModularWitness, members) -> TopBitLabel:
    """Labels on a subset of the witness, using the canonical lift.

    The lift is the witness residue itself (the smallest nonnegative one).
    Any other lift differs by q and just flips every label, so quotient
    classes downstream do not depend on this choice.
    """
    s = check_subset(witness.graph, members)
    if not s <= witness.members:
        raise ValueError("labeled subset must lie inside the witness")
    d = witness.residue if witness.residue is not None else 0
    adj, inside = witness.graph.adj_masks, mask_of(witness.members)
    labels = {}
    for v in sorted(s):
        deg = (adj[v] & inside).bit_count()
        labels[v] = (deg - d) // witness.q % 2
        if deg % (2 * witness.q) != (d + witness.q * labels[v]) % (2 * witness.q):
            raise InternalInvariantError("top-bit label failed its defining congruence")
    return TopBitLabel(base_lift=d, q=witness.q, labels=labels)


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
        value = (tail_count - witness.q * label.labels[v]) % two_q
        if seen is None:
            seen = value
        elif value != seen:
            return False
    return True
