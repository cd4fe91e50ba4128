"""Absorption-or-obstruction engine for one dyadic lifting step.

Deleting q tail vertices of a common trace shifts every core degree inside
that trace by exactly q, so modulo 2q it flips the top bit on the trace and
nothing else.  Whether some family of disjoint equal-trace q-tuples can make
the core degrees agree modulo 2q is therefore a linear system over GF(2) in
the quotient modulo constant vectors: columns are the classes of the traces
with multiplicity at least q, the target is the class of the top-bit label.
A solution yields a deletion certificate; inconsistency yields an even
parity cut of the core that meets every available trace evenly but the
defect oddly.  One function, ``_failure``, checks a certificate of either
kind from the graph alone and names its first false claim; each output is
checked by it once before it is returned, and ``verify-cert`` runs it too.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import NamedTuple, Union

from .errors import InternalInvariantError
from .gf2 import BitMatrix, Solution, pivot_columns, solve_or_dual
from .graph import bits_of, check_subset, mask_of
from .traces import PairTraceView, TraceTable, compute_traces, split_witness
from .witness import ModularWitness, _check_modulus, _even_cut, is_q_modular, quotient_matrix, top_bit_label

SCHEMA_VERSION = "modcert-v1"
# The (trace members, deleted q-tuple) pairs of a deletion, vertex ids sorted.
_Chosen = tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


class _ProblemFields(NamedTuple):
    witness: ModularWitness
    core: tuple[int, ...]
    label: int


class AbsorptionProblem(_ProblemFields):
    """A witness, a retained core, the top-bit label, and the tail's traces.

    The label is the mask of the core vertices labeled 1, and the lift d is
    the witness residue: an ``int``, since the core is a nonempty subset of
    the witness.  The trace table is built on first use: checking a
    certificate of either kind reads none of it, so verifying one never
    groups the tail.
    """

    # No ``__slots__``: the instance ``__dict__`` holds the cached table.

    @classmethod
    def build(cls, witness: ModularWitness, core) -> "AbsorptionProblem":
        core_set, _ = split_witness(witness.graph, witness.members, core)
        return cls(witness, tuple(sorted(core_set)), top_bit_label(witness, core_set))

    @cached_property
    def table(self) -> TraceTable:
        return compute_traces(self.graph, self.core, self.witness.members.difference(self.core))

    @property
    def q(self) -> int:
        return self.witness.q

    @property
    def lift(self) -> int:
        return self.witness.residue

    @property
    def graph(self):
        return self.witness.graph


class DeletionCertificate(NamedTuple):
    """Chosen traces and, for each, the concrete q-tuple of deleted tail vertices."""

    q: int
    lift: int
    core: tuple[int, ...]
    chosen: _Chosen
    residue_achieved: int | None

    def deleted_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(v for _, deleted in self.chosen for v in deleted))


class ParityCut(NamedTuple):
    """Even core subset meeting every available trace evenly but the defect oddly."""

    q: int
    lift: int
    core: tuple[int, ...]
    members: tuple[int, ...]


Certificate = Union[DeletionCertificate, ParityCut]


def trace_class_matrix(table: TraceTable, q: int) -> tuple[list[int], BitMatrix]:
    """Quotient coordinates of the available trace classes, one column per mask."""
    masks = table.available_masks(q)
    return masks, quotient_matrix(masks, table.core)[0]


def solve_defect(table: TraceTable, q: int, label_mask: int) -> Union[_Chosen, int]:
    """Table-level core correction: choose q-tuples or produce a cut.

    ``label_mask`` holds the core vertices labeled 1.  Returns the
    ``(trace members, q-tuple)`` pairs of a deletion certificate, or a cut as
    a vertex-id mask.  Works on the table and label alone (no graph): the
    solve inside :func:`solve_core_correction`.  Deterministic: columns in
    mask order, elimination pivots on the lowest available row, free
    variables zero, q lowest realizers per chosen trace.  Neither is
    checked here: ``solve_core_correction`` checks both from the graph.
    """
    _check_modulus(q)
    masks, matrix = trace_class_matrix(table, q)
    _, target = quotient_matrix((), table.core, label_mask)
    outcome = solve_or_dual(matrix, target)
    if isinstance(outcome, Solution):
        return tuple((table.members_of(masks[j]), table.entries[masks[j]][:q]) for j in bits_of(outcome.x.bits))
    return _even_cut(outcome.y, table.core)


def solve_core_correction(problem: AbsorptionProblem) -> Certificate:
    """Emit a deletion certificate or a parity cut, checked once by :func:`_failure`.

    A deletion states its residue from the algebra: u0, the lowest core
    vertex, keeps the witness residue d shifted by q once for its label and
    once for each chosen trace that holds it, so its degree modulo 2q is
    d + q((label(u0) + k) mod 2); the check recounts every core residue
    from the graph.
    """
    q, core, u0 = problem.q, problem.core, problem.core[0]
    outcome = solve_defect(problem.table, q, problem.label)
    if isinstance(outcome, int):
        cert = ParityCut(q, problem.lift, core, tuple(bits_of(outcome)))
    else:
        k = sum(u0 in trace_members for trace_members, _ in outcome)
        residue = problem.lift + q * (((problem.label >> u0 & 1) + k) % 2)
        cert = DeletionCertificate(q, problem.lift, core, outcome, residue)
    reason = _failure(problem, cert)
    if reason is not None:
        raise InternalInvariantError(reason)
    return cert


def check_claims(cert: Certificate, q: int, core, lift: int | None = None) -> None:
    """Raise ValueError unless ``cert`` declares this q, this core and, if given, this d.

    ``core`` is sorted like the certificate's: by id, or by name for a
    certificate read without a graph, so the q and core claims can be
    checked before any graph is loaded.
    """
    if cert.q != q:
        raise ValueError(f"certificate modulus {cert.q} does not match the problem's {q}")
    if lift is not None and cert.lift != lift:
        raise ValueError(f"certificate lift {cert.lift} does not match the problem's {lift}")
    if tuple(cert.core) != tuple(core):
        raise ValueError("certificate core does not match the problem core")


def _failure(problem: AbsorptionProblem, cert: Certificate) -> str | None:
    """The first false claim of a certificate of either kind, or None when every claim holds.

    Read from the graph alone, never from the trace table.  Invalid input
    raises ValueError before any claim is judged: a q, d or core that is not
    the problem's, a cut member outside the core, a tuple not of size q, a
    deleted vertex outside the tail or cited twice.  A cut claims to be
    nonempty and even, to meet the defect oddly and every available trace
    evenly; every realizer of a trace meets the cut alike, so the last means
    that no trace has q tail vertices meeting the cut oddly.  A deletion
    claims that each deleted vertex realizes its trace, that the core
    residues modulo 2q agree once the q-tuples are deleted, and that they
    equal ``residue_achieved`` unless it is None.
    """
    check_claims(cert, problem.q, problem.core, problem.lift)
    q, adj, core_mask = problem.q, problem.graph.adj_masks, mask_of(problem.core)
    tail = problem.witness.members.difference(problem.core)
    if isinstance(cert, ParityCut):
        cut = mask_of(check_subset(problem.graph, cert.members))
        if cut & ~core_mask:
            raise ValueError("parity cut must be a subset of the core")
        if cut == 0 or cut.bit_count() % 2:
            return "parity cut must be nonempty and even"
        if (problem.label & cut).bit_count() % 2 == 0:
            return "parity cut fails to detect the defect"
        odd = Counter(adj[v] & core_mask for v in tail if (adj[v] & cut).bit_count() % 2)
        if any(count >= q for count in odd.values()):
            return "parity cut meets an available trace oddly"
        return None
    deleted, reason = 0, None
    for trace_members, tuple_members in cert.chosen:
        if len(tuple_members) != q:
            raise ValueError(f"trace {trace_members}: expected a q-tuple of size {q}, got {len(tuple_members)}")
        trace = mask_of(trace_members)
        for v in tuple_members:
            if v not in tail:
                raise ValueError(f"deleted vertex {v} is not a tail vertex")
            if deleted >> v & 1:
                raise ValueError(f"deleted vertex {v} cited twice; q-tuples must be disjoint")
            deleted |= 1 << v
            if reason is None and (adj[v] & core_mask != trace or trace.bit_count() != len(trace_members)):
                reason = f"deleted vertex {v} does not realize trace {tuple(trace_members)}"
    if reason is not None:
        return reason
    retained = mask_of(problem.witness.members) & ~deleted
    residues = {(adj[u] & retained).bit_count() % (2 * q) for u in problem.core}
    if len(residues) != 1:
        return "core residues differ after the deletion"
    if cert.residue_achieved not in (None, *residues):
        return f"declared residue {cert.residue_achieved} is not {residues.pop()}"
    return None


def verify_deletion_certificate(problem: AbsorptionProblem, cert: DeletionCertificate) -> bool:
    """Delete the cited vertices and recount the core degrees from the graph."""
    return _failure(problem, cert) is None


def verify_certificate(problem: AbsorptionProblem, cert: Certificate) -> bool:
    """Check every claim of a certificate of either kind against the problem.

    A q, d or core that is not the problem's raises ValueError; any other
    false claim makes the certificate invalid.
    """
    if isinstance(cert, DeletionCertificate):
        return verify_deletion_certificate(problem, cert)
    check_claims(cert, problem.q, problem.core, problem.lift)
    return verify_parity_cut(problem, cert.members)


def verify_parity_cut(problem: AbsorptionProblem, members) -> bool:
    """Check the three cut conditions of the core vertices ``members`` against the graph."""
    return _failure(problem, ParityCut(problem.q, problem.lift, problem.core, tuple(members))) is None


def all_tail_identity_check(problem: AbsorptionProblem) -> str | None:
    """Why the all-tail identity fails, or None when it holds.

    It holds when every multiplicity is divisible by q and the
    parity-weighted sum of all trace classes equals the top-bit defect;
    deleting the whole tail then leaves exactly the core synchronized mod
    2q, which is re-derived by direct degree recomputation on the bare core.
    """
    q, table = problem.q, problem.table
    reason = _indivisible_trace(table, q)
    if reason is not None:
        return reason
    acc = 0
    for mask, realizers in table.entries.items():
        if len(realizers) // q % 2:
            acc ^= mask
    if acc ^ problem.label not in (0, mask_of(problem.core)):
        return "block-parity sum of trace classes misses the top-bit defect"
    _check_bare_core(problem, "all-tail identity")
    return None


def _indivisible_trace(table: TraceTable, q: int) -> str | None:
    """Why the tail has no twin-tail decomposition: the first trace, in mask
    order, whose multiplicity q does not divide; None when q divides every one."""
    for mask in table.masks():
        if table.count(mask) % q:
            return f"multiplicity of trace {table.members_of(mask)} is not divisible by q"
    return None


def _check_bare_core(problem: AbsorptionProblem, held: str) -> None:
    """Raise unless the bare core is 2q-modular, as the conditions that ``held`` imply."""
    if not is_q_modular(problem.graph, problem.core, 2 * problem.q).modular:
        raise InternalInvariantError(f"{held} held but the bare core is not 2q-modular")


def self_layer_check(problem: AbsorptionProblem, cert: DeletionCertificate) -> tuple[int, ...]:
    """Retained tail vertices whose mod-2q residue misses the core residue.

    An empty result means the whole retained set, not just the core, is
    2q-modular.  The certificate must verify first.
    """
    if _failure(problem, cert) is not None:
        raise ValueError("certificate failed verification; self-layer check needs a valid deletion")
    adj, two_q = problem.graph.adj_masks, 2 * problem.q
    retained = mask_of(problem.witness.members) & ~mask_of(cert.deleted_vertices())
    residue = (adj[problem.core[0]] & retained).bit_count() % two_q
    tail = retained & ~mask_of(problem.core)
    return tuple(y for y in bits_of(tail) if (adj[y] & retained).bit_count() % two_q != residue)


def rank_rich(table: TraceTable, q: int) -> tuple[bool, tuple[int, ...]]:
    """Do the available trace classes span the whole quotient?

    When they do, the pivot columns give a spanning subfamily of at most
    |core|-1 traces, so every defect is absorbable by that many q-tuples.
    """
    masks, matrix = trace_class_matrix(table, q)
    pivots = pivot_columns(matrix)
    if len(pivots) != table.size - 1:
        return False, ()
    return True, tuple(masks[j] for j in pivots)


def pair_trace_sufficiency(table: TraceTable, q: int, view: PairTraceView) -> str | None:
    """Why the pair-trace condition fails, or None when it holds.

    The condition is a connected heavy-pair graph, plus an odd heavy trace
    on even cores.  It is sufficient for the rank-rich property:
    summing pair traces along paths produces every even-weight vector, and
    the odd trace leaves the even-weight subspace when the core has even
    size.  The implication is asserted whenever the condition holds.
    ``view`` is ``pair_trace_graph(table, q)``, which the caller builds once.
    """
    if not view.connected:
        return "heavy pair-trace graph is disconnected"
    if table.size % 2 == 0 and not view.has_odd_heavy_trace:
        return "even core with no odd-cardinality heavy trace"
    spanning, _ = rank_rich(table, q)
    if not spanning:
        raise InternalInvariantError(
            "pair-trace condition held but the available classes do not span"
        )
    return None


def twin_tail_decompose(table: TraceTable, q: int) -> tuple[tuple[int, tuple[int, ...]], ...] | None:
    """The tail as size-q ``(mask, members)`` blocks of one trace each, lowest ids first.

    Trace B gives n_B / q blocks, in mask order.  None when some trace's
    multiplicity is not divisible by q.
    """
    _check_modulus(q)
    if _indivisible_trace(table, q) is not None:
        return None
    blocks = []
    for mask in table.masks():
        realizers = table.entries[mask]
        for start in range(0, len(realizers), q):
            blocks.append((mask, realizers[start:start + q]))
    return tuple(blocks)


def basis_tail_check(problem: AbsorptionProblem, base_vertex: int | None = None) -> str | None:
    """Why a singleton-block parity pattern fails, or None when it holds.

    The pattern is read off the trace table: in the twin-tail decomposition
    trace B gives n_B / q blocks, so it needs every multiplicity divisible by
    q, and otherwise fails with the all-tail identity's reason.
    Condition 1: for each core vertex u other than the base, n_{u} / q (the
    number of blocks with trace {u}) has the parity of label(u) + label(base).
    Condition 2: the other traces with an odd number of blocks cancel in the
    quotient.  The pattern is sufficient for the all-tail identity, not
    necessary; the base vertex defaults to the lowest core id but may be
    chosen freely, and the conditions depend on it.
    """
    core, q, table = problem.core, problem.q, problem.table
    u0 = min(core) if base_vertex is None else base_vertex
    if u0 not in core:
        raise ValueError(f"base vertex {u0} is not in the core")
    reason = _indivisible_trace(table, q)
    if reason is not None:
        return reason
    label = problem.label
    odd = {mask for mask, realizers in table.entries.items() if len(realizers) // q % 2}
    singletons = {1 << u for u in core if u != u0}
    for u in core:
        if u != u0 and ((1 << u) in odd) != ((label >> u & 1) != (label >> u0 & 1)):
            return f"singleton-block count at vertex {u} has the wrong parity"
    remainder_acc = 0
    for mask in odd - singletons:
        remainder_acc ^= mask
    if remainder_acc not in (0, mask_of(core)):
        return "remaining block traces do not cancel in the quotient"
    _check_bare_core(problem, "basis-tail conditions")
    return None


def certificate_to_json(cert: Certificate, name_of=str) -> dict:
    """Serialize to the versioned wire format; vertices go out by name."""
    base = {
        "version": SCHEMA_VERSION,
        "q": cert.q,
        "d": cert.lift,
        "core": [name_of(v) for v in cert.core],
    }
    if isinstance(cert, DeletionCertificate):
        base["kind"] = "deletion"
        base["chosen_traces"] = [
            {
                "trace": [name_of(v) for v in trace_members],
                "deleted_vertices": [name_of(v) for v in deleted],
            }
            for trace_members, deleted in cert.chosen
        ]
        base["parity_cut_Y"] = None
        base["residue_achieved"] = cert.residue_achieved
    else:
        base["kind"] = "parity-cut"
        base["chosen_traces"] = None
        base["parity_cut_Y"] = [name_of(v) for v in cert.members]
        base["residue_achieved"] = None
    return base


def certificate_from_json(payload) -> Certificate:
    """Parse the wire format back, with the vertices still names.

    A payload of the wrong shape (not an object, a field missing or of the
    wrong JSON type, a vertex name listed twice) raises ValueError, as does
    an unknown version or kind.  Each name list is sorted by name: the
    claims alone, read without a graph, which :func:`certificate_ids` maps
    to ids.
    """
    if not isinstance(payload, dict):
        raise ValueError("certificate must be a JSON object")
    if payload.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported certificate version {payload.get('version')!r}")
    q = _json_int(payload, "q")
    lift = _json_int(payload, "d")
    core = _json_names(payload, "core")
    kind = payload.get("kind")
    if not isinstance(kind, str):
        raise ValueError("certificate needs a string 'kind'")
    if kind == "deletion":
        entries = payload.get("chosen_traces")
        if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
            raise ValueError("certificate needs a list of objects in 'chosen_traces'")
        chosen = tuple(
            (_json_names(entry, "trace"), _json_names(entry, "deleted_vertices"))
            for entry in entries
        )
        residue = payload.get("residue_achieved")
        cert = DeletionCertificate(
            q=q, lift=lift, core=core, chosen=chosen,
            residue_achieved=None if residue is None else _json_int(payload, "residue_achieved"),
        )
    elif kind == "parity-cut":
        cert = ParityCut(q=q, lift=lift, core=core, members=_json_names(payload, "parity_cut_Y"))
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")
    return cert


def certificate_ids(cert: Certificate, ids_of) -> Certificate:
    """A certificate read by name, with each name list mapped by ``ids_of`` and sorted by id."""
    def ids(names):
        return tuple(sorted(ids_of(names)))

    if isinstance(cert, DeletionCertificate):
        chosen = tuple((ids(trace), ids(deleted)) for trace, deleted in cert.chosen)
        return cert._replace(core=ids(cert.core), chosen=chosen)
    return cert._replace(core=ids(cert.core), members=ids(cert.members))


def _json_int(payload: dict, key: str) -> int:
    value = payload.get(key)
    if type(value) is not int:
        raise ValueError(f"certificate needs an integer {key!r}")
    return value


def _json_names(payload: dict, key: str) -> tuple[str, ...]:
    value = payload.get(key)
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise ValueError(f"certificate needs a list of vertex names in {key!r}")
    names = tuple(sorted(set(value)))
    if len(names) != len(value):
        raise ValueError(f"certificate repeats a vertex name in {key!r}")
    return names
