"""Absorption-or-obstruction engine for one dyadic lifting step.

Deleting q tail vertices of a common trace shifts every core degree inside
that trace by exactly q, so modulo 2q it flips the top bit on the trace and
nothing else.  Whether some family of disjoint equal-trace q-tuples can make
the core degrees agree modulo 2q is therefore a linear system over GF(2) in
the quotient modulo constant vectors: columns are the classes of the traces
with multiplicity at least q, the target is the class of the top-bit label.
A solution yields a deletion certificate; inconsistency yields an even
parity cut of the core that meets every available trace evenly but the
defect oddly.  Each output is checked once, independently of the solve,
before it is returned.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Union

from .errors import InternalInvariantError
from .gf2 import BitMatrix, Dual, Solution, pivot_columns, solve_or_dual
from .graph import bits_of, check_subset, mask_of
from .traces import PairTraceView, TraceTable, compute_traces, split_witness
from .witness import ModularWitness, TopBitLabel, _check_modulus, is_q_modular, quotient_matrix, top_bit_label

SCHEMA_VERSION = "modcert-v1"


class _ProblemFields(NamedTuple):
    witness: ModularWitness
    core: tuple[int, ...]
    label: TopBitLabel


class AbsorptionProblem(_ProblemFields):
    """A witness, a retained core, the top-bit label, and the tail's traces.

    The trace table is built on first use: checking a deletion certificate
    reads none of it, so verifying one never groups the tail.
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
        return self.label.base_lift

    @property
    def graph(self):
        return self.witness.graph


class DeletionCertificate(NamedTuple):
    """Chosen traces and, for each, the concrete q-tuple of deleted tail vertices."""

    q: int
    lift: int
    core: tuple[int, ...]
    chosen: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
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


class TraceSelection(NamedTuple):
    masks: tuple[int, ...]
    deletions: tuple[tuple[int, ...], ...]


def trace_class_matrix(table: TraceTable, q: int) -> tuple[list[int], BitMatrix]:
    """Quotient coordinates of the available trace classes, one column per mask."""
    masks = table.available_masks(q)
    return masks, quotient_matrix(masks, table.core)[0]


def solve_defect(table: TraceTable, q: int, label_mask: int) -> Union[TraceSelection, int]:
    """Table-level core correction: choose q-tuples or produce a cut.

    ``label_mask`` holds the core vertices labeled 1; a cut is returned as a
    vertex-id mask.  Works on trace data alone (no graph needed), so it also
    serves sampled reservoirs.  Deterministic: columns in mask order,
    elimination pivots on the lowest available row, free variables zero, q
    lowest realizers per chosen trace.  A cut is checked before it is
    returned.
    """
    if table.size < 1:
        raise ValueError("core must be nonempty")
    _check_modulus(q)
    masks, matrix = trace_class_matrix(table, q)
    _, target = quotient_matrix((), table.core, label_mask)
    outcome = solve_or_dual(matrix, target)
    if isinstance(outcome, Solution):
        chosen = [masks[j] for j in range(len(masks)) if outcome.x.bits >> j & 1]
        deletions = tuple(table.entries[mask][:q] for mask in chosen)
        return TraceSelection(masks=tuple(chosen), deletions=deletions)
    return _cut_from_dual(table, outcome, label_mask, q)


def _cut_from_dual(table: TraceTable, dual: Dual, label_mask: int, q: int) -> int:
    # Row i of the system is core vertex core[i + 1]; core[0] is the base.
    cut_mask = mask_of(table.core[i + 1] for i in bits_of(dual.y.bits))
    if cut_mask.bit_count() % 2:
        cut_mask |= 1 << table.core[0]
    reason = _cut_failure(table, q, label_mask, cut_mask)
    if reason is not None:
        raise InternalInvariantError(reason)
    return cut_mask


def _cut_failure(table: TraceTable, q: int, label_mask: int, cut_mask: int) -> str | None:
    """Why a set of core vertices (a mask) is not a parity cut, or None if it is."""
    size = cut_mask.bit_count()
    if size == 0 or size % 2:
        return "parity cut must be nonempty and even"
    if (label_mask & cut_mask).bit_count() % 2 == 0:
        return "parity cut fails to detect the defect"
    for mask in table.available_masks(q):
        if (mask & cut_mask).bit_count() % 2:
            return "parity cut meets an available trace oddly"
    return None


def solve_core_correction(problem: AbsorptionProblem) -> Certificate:
    """Emit a deletion certificate or a parity cut, each checked once.

    ``solve_defect`` checks the cut; a deletion is rechecked here by
    physically deleting its q-tuples.
    """
    outcome = solve_defect(problem.table, problem.q, problem.label.mask())
    if not isinstance(outcome, TraceSelection):
        return ParityCut(q=problem.q, lift=problem.lift, core=problem.core, members=tuple(bits_of(outcome)))
    chosen = tuple(
        (problem.table.members_of(mask), deletion)
        for mask, deletion in zip(outcome.masks, outcome.deletions)
    )
    cert = DeletionCertificate(
        q=problem.q,
        lift=problem.lift,
        core=problem.core,
        chosen=chosen,
        residue_achieved=None,
    )
    ok, residue = _deletion_outcome(problem, cert)
    if not ok:
        raise InternalInvariantError("deletion certificate failed independent verification")
    return cert._replace(residue_achieved=residue)


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


def _deletion_outcome(problem: AbsorptionProblem, cert: DeletionCertificate) -> tuple[bool, int | None]:
    """Physically delete the cited q-tuples and recheck the mod-2q congruence.

    Fails when a deleted vertex does not realize its declared trace or when a
    declared residue is not the recomputed one.
    """
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
        return False, None
    retained = problem.witness.members - deleted
    retained_mask = mask_of(retained)
    two_q = 2 * cert.q
    residues = {
        (graph.adj_masks[u] & retained_mask).bit_count() % two_q
        for u in problem.core
    }
    if len(residues) != 1:
        return False, None
    residue = residues.pop()
    if cert.residue_achieved is not None and cert.residue_achieved != residue:
        return False, None
    return True, residue


def verify_deletion_certificate(problem: AbsorptionProblem, cert: DeletionCertificate) -> bool:
    """Independent recheck: delete the cited vertices, recompute degrees directly."""
    ok, _ = _deletion_outcome(problem, cert)
    return ok


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
    """Check the three cut conditions directly against the problem data."""
    cut_set = check_subset(problem.graph, members)
    if not cut_set <= set(problem.core):
        raise ValueError("parity cut must be a subset of the core")
    return _cut_failure(problem.table, problem.q, problem.label.mask(), mask_of(cut_set)) is None


def all_tail_identity_check(problem: AbsorptionProblem) -> str | None:
    """Why the all-tail identity fails, or None when it holds.

    It holds when every multiplicity is divisible by q and the
    parity-weighted sum of all trace classes equals the top-bit defect;
    deleting the whole tail then leaves exactly the core synchronized mod
    2q, which is re-derived by direct degree recomputation on the bare core.
    """
    q = problem.q
    for mask in problem.table.masks():
        if problem.table.count(mask) % q:
            return f"multiplicity of trace {problem.table.members_of(mask)} is not divisible by q"
    acc = 0
    for mask in problem.table.masks():
        if (problem.table.count(mask) // q) % 2:
            acc ^= mask
    if acc ^ problem.label.mask() not in (0, mask_of(problem.core)):
        return "block-parity sum of trace classes misses the top-bit defect"
    check = is_q_modular(problem.graph, problem.core, 2 * q)
    if not check.modular:
        raise InternalInvariantError(
            "all-tail identity held but the bare core is not 2q-modular"
        )
    return None


def self_layer_check(problem: AbsorptionProblem, cert: DeletionCertificate) -> tuple[int, ...]:
    """Retained tail vertices whose mod-2q residue misses the core residue.

    An empty result means the whole retained set, not just the core, is
    2q-modular.  The certificate must verify first.
    """
    ok, residue = _deletion_outcome(problem, cert)
    if not ok:
        raise ValueError("certificate failed verification; self-layer check needs a valid deletion")
    graph = problem.graph
    retained = problem.witness.members - set(cert.deleted_vertices())
    retained_mask = mask_of(retained)
    two_q = 2 * problem.q
    violating = []
    for y in sorted(retained - set(problem.core)):
        if (graph.adj_masks[y] & retained_mask).bit_count() % two_q != residue:
            violating.append(y)
    return tuple(violating)


def rank_rich(table: TraceTable, q: int) -> tuple[bool, tuple[int, ...]]:
    """Do the available trace classes span the whole quotient?

    When they do, the pivot columns give a spanning subfamily of at most
    |core|-1 traces, so every defect is absorbable by that many q-tuples.
    """
    if table.size < 1:
        raise ValueError("core must be nonempty")
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

    None when some trace's multiplicity is not divisible by q.
    """
    _check_modulus(q)
    for mask in table.masks():
        if table.count(mask) % q:
            return None
    blocks = []
    for mask in table.masks():
        realizers = table.entries[mask]
        for start in range(0, len(realizers), q):
            blocks.append((mask, realizers[start:start + q]))
    return tuple(blocks)


def basis_tail_check(
    problem: AbsorptionProblem,
    blocks: tuple[tuple[int, tuple[int, ...]], ...],
    base_vertex: int | None = None,
) -> str | None:
    """Why a singleton-block parity pattern fails, or None when it holds.

    The pattern is sufficient for the all-tail identity.  ``blocks`` are
    ``(mask, members)`` pairs, as ``twin_tail_decompose`` returns them.
    Condition 1: for each core vertex u other than the base, the number of
    blocks with trace {u} has the parity of label(u) + label(base).
    Condition 2: all remaining block traces cancel in the quotient.
    This is sufficient, not necessary; the base vertex defaults to the lowest
    core id but may be chosen freely, and the conditions depend on it.
    """
    _validate_blocks(problem, blocks)
    core = problem.core
    u0 = core[0] if base_vertex is None else base_vertex
    if u0 not in core:
        raise ValueError(f"base vertex {u0} is not in the core")
    labels = problem.label.labels
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
        expected = (labels[u] + labels[u0]) % 2
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


def _validate_blocks(problem: AbsorptionProblem, blocks) -> None:
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
