"""Differential tests: the one certificate check against the checks it
replaced, and the table-reading basis-tail check against the blocks-based one.

``_reference_absorb`` keeps the vertex-level ``verify_parity_cut`` and the
position-level ``_assert_cut_valid``; both read trace masks over core
positions from the frozen ``_reference_traces``, while the cut predicate
reads vertex-id masks off the graph and builds no trace table.  On realized problems, relabeled so that core ids
are not core positions, and arbitrary candidate cuts the new code must give
the same verdict, the same failure reason, or raise the same exception type.
``_failure`` is also checked against the two functions it merged, which
``_reference_absorb.certificate_holds`` composes as ``verify_certificate``
did: on the certificates the engine emits and their mutants it must accept
exactly what they accept and raise the same ValueError that they raise.
It also keeps ``basis_tail_check`` as it took the caller's
``(mask, members)`` blocks; wherever a twin-tail decomposition exists, the
check that reads the trace table must give its verdict at every base vertex.
"""

import random
from collections import Counter
from itertools import combinations
from types import SimpleNamespace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _reference_absorb as ref
import _reference_traces
from modcert.absorb import (
    AbsorptionProblem,
    DeletionCertificate,
    ParityCut,
    _failure,
    all_tail_identity_check,
    certificate_from_json,
    certificate_ids,
    certificate_to_json,
    basis_tail_check,
    solve_core_correction,
    twin_tail_decompose,
    verify_parity_cut,
)
from modcert.errors import InternalInvariantError
from modcert.gf2 import BitVector
from modcert.graph import Graph, bits_of, mask_of
from modcert.witness import ModularWitness
from synth import realize_problem

from conftest import relabeled
from test_certificate_mutations import claim_mutants, cut_mutants, deletion_mutants


@st.composite
def problems(draw):
    m = draw(st.integers(1, 5))
    q = draw(st.sampled_from((2, 4)))
    full = (1 << m) - 1
    masks = draw(st.lists(st.integers(1, full), max_size=4)) if m > 1 else []
    problem = realize_problem(m, q, masks, draw(st.integers(0, full)))
    assume(problem is not None)
    return relabeled(problem, draw(st.randoms(use_true_random=False)))


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (ValueError, TypeError, InternalInvariantError) as exc:
        return "raises", type(exc)


@settings(max_examples=300, deadline=None)
@given(problems(), st.data())
def test_verify_parity_cut_matches_reference(problem, data):
    # Core subsets or the solver's own cut; sometimes a tail or out-of-range vertex as well.
    members = set(data.draw(st.lists(st.sampled_from(problem.core), unique=True)))
    cert = solve_core_correction(problem)
    if isinstance(cert, ParityCut) and data.draw(st.booleans()):
        members = set(cert.members)
    members |= set(data.draw(st.lists(st.integers(-1, problem.graph.n), max_size=1)))
    assert outcome(verify_parity_cut, problem, members) == outcome(ref.verify_parity_cut, problem, members)


@settings(max_examples=300, deadline=None)
@given(problems(), st.data())
def test_cut_predicate_matches_reference_assertion(problem, data):
    core = problem.core
    chosen = data.draw(st.integers(0, (1 << len(core)) - 1))
    positions = tuple(p for p in range(len(core)) if chosen >> p & 1)
    table = _reference_traces.compute_traces(problem.graph, core, problem.witness.members - set(core))
    label_bits = BitVector.from_bits(problem.label >> v & 1 for v in core)
    try:
        ref.assert_cut_valid(table, problem.q, label_bits, SimpleNamespace(positions=positions))
        expected = None
    except InternalInvariantError as exc:
        expected = str(exc)
    cut = ParityCut(problem.q, problem.lift, core, tuple(core[p] for p in positions))
    assert _failure(problem, cut) == expected


def library_mutants(problem, cert):
    """Certificates that no JSON parse yields: a vertex out of range, a trace listing a member twice."""
    if isinstance(cert, ParityCut):
        yield cert._replace(members=cert.members + (problem.graph.n,))
        yield cert._replace(members=(-1,) + cert.members)
        return
    for i, (trace, deleted) in enumerate(cert.chosen):
        chosen = list(cert.chosen)
        chosen[i] = (trace + trace[:1], deleted)
        yield cert._replace(chosen=tuple(chosen))
        chosen[i] = (trace, (-1,) + deleted[1:])
        yield cert._replace(chosen=tuple(chosen))


def test_failure_matches_the_checks_it_merged():
    rng = random.Random(0xFA11)
    emitted = Counter()
    verdicts = Counter()
    while min(emitted["deletion"], emitted["cut"]) < 40:
        m, q = rng.choice((1, 2, 3, 4, 5)), rng.choice((2, 4))
        full = (1 << m) - 1
        masks = rng.sample(range(1, full + 1), k=rng.randrange(0, min(6, full) + 1)) if m > 1 else []
        problem = realize_problem(m, q, masks, rng.getrandbits(m))
        if problem is None:
            continue
        problem = relabeled(problem, rng)
        cert = solve_core_correction(problem)
        kind = "deletion" if isinstance(cert, DeletionCertificate) else "cut"
        emitted[kind] += 1
        if kind == "deletion":
            # The residue the solve states from the algebra is the one recounted from the graph.
            assert cert.residue_achieved == ref.deletion_outcome(problem, cert._replace(residue_achieved=None))
        payload = certificate_to_json(cert, name_of=problem.graph.name_of)
        more = cut_mutants if kind == "cut" else deletion_mutants
        certs = [cert, *library_mutants(problem, cert)]
        for _, mutant in [*claim_mutants(problem, payload), *more(problem, payload, rng)]:
            try:
                certs.append(certificate_ids(certificate_from_json(mutant), problem.graph.ids_of))
            except ValueError:
                continue
        for candidate in certs:
            got = holds(lambda *args: _failure(*args) is None, problem, candidate)
            assert got == holds(ref.certificate_holds, problem, candidate), candidate
            verdicts[kind, {True: "accepted", False: "rejected"}.get(got, "raises")] += 1
            if got is False and isinstance(candidate, ParityCut):
                assert _failure(problem, candidate) == ref.cut_failure(problem, mask_of(candidate.members))
    assert all(verdicts[kind, verdict] > 0 for kind in ("deletion", "cut")
               for verdict in ("accepted", "rejected", "raises"))


def holds(check, problem, cert):
    """Whether ``check`` accepts ``cert``, or the message of the ValueError it raises."""
    try:
        return check(problem, cert)
    except ValueError as exc:
        return str(exc)


def twin_blow_up(rng):
    """A core U kept as single vertices and a tail of q independent twins per
    original tail vertex, so every trace multiplicity is a multiple of q.

    Each original's trace has size r modulo q and, for r = 1, U carries a
    perfect matching, so every vertex has degree r modulo q: the whole
    vertex set is a q-modular witness.  Edges between tail originals add
    multiples of q to every degree, and so does a (q + 1)-clique inside U
    for r = 0; a clique on part of U leaves the bare core short of 2q-modular.
    """
    q = rng.choice((2, 4))
    r = rng.choice((0, 1))
    m = rng.choice((2, 4, 6)) if r else rng.randrange(1, 7)
    traces = [rng.sample(range(m), rng.choice(range(r, m + 1, q))) for _ in range(rng.randrange(7))]
    n = m + len(traces) * q

    def twins(a):
        return range(m + a * q, m + (a + 1) * q)

    edges = [(u, u + 1) for u in range(0, m, 2)] if r else []
    if not r and m > q and rng.random() < 0.5:
        edges += list(combinations(range(q + 1), 2))
    for a, trace in enumerate(traces):
        edges += [(x, u) for x in twins(a) for u in trace]
    for a, b in combinations(range(len(traces)), 2):
        if rng.random() < 0.3:
            edges += [(x, y) for x in twins(a) for y in twins(b)]
    witness = ModularWitness.build(Graph.from_edges(n, edges), range(n), q)
    return AbsorptionProblem.build(witness, range(m))


def test_basis_tail_check_matches_blocks_reference():
    # Seeded realized problems and twin blow-ups, relabeled so that core ids
    # are scattered.  Where a decomposition exists, the reference gets its
    # blocks; where none does, the check gives the first indivisible trace.
    rng = random.Random(0xB10C)
    decomposed = Counter()
    undecomposed = 0
    reasons = set()
    while min(decomposed["realized"], decomposed["blow-up"]) < 125 or undecomposed < 100:
        family = rng.choice(("realized", "blow-up"))
        if family == "realized":
            m, q = rng.choice((1, 2, 3, 4, 5)), rng.choice((2, 4))
            full = (1 << m) - 1
            masks = rng.sample(range(1, full + 1), k=rng.randrange(0, min(5, full) + 1)) if m > 1 else []
            problem = realize_problem(m, q, masks, rng.getrandbits(m))
            if problem is None:
                continue
        else:
            problem = twin_blow_up(rng)
        problem = relabeled(problem, rng)
        table, q = problem.table, problem.q
        blocks = twin_tail_decompose(table, q)
        if blocks is None:
            undecomposed += 1
            first = next(mask for mask in sorted(table.entries) if len(table.entries[mask]) % q)
            expected = f"multiplicity of trace {tuple(bits_of(first))} is not divisible by q"
            assert all_tail_identity_check(problem) == expected
            for u in problem.core:
                assert basis_tail_check(problem, base_vertex=u) == expected
            continue
        decomposed[family] += 1
        for u in problem.core:
            got = basis_tail_check(problem, base_vertex=u)
            assert got == ref.basis_tail_check(problem, blocks, base_vertex=u)
            reasons.add(got and got.split(" at vertex")[0])
        assert basis_tail_check(problem) == ref.basis_tail_check(problem, blocks)
    assert reasons == {None, "singleton-block count", "remaining block traces do not cancel in the quotient"}
