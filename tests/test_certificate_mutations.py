"""Mutated certificates against an independent recount from the graph.

Every certificate the engine emits on seeded realized problems (both
branches, cores of 2 to 5 vertices, q = 2 and 4) is serialized and mutated
one step at a time, as ``verify-cert`` would read it.  A mutant either
raises ValueError (invalid input, exit 2) or gets a verdict, and the
verdict must be that of a recount that groups the tail from the adjacency
masks itself: it runs with ``compute_traces`` and ``_failure`` patched to
None.  The recount also says which mutants are invalid input: a changed q,
d or core, a repeated name, a deleted vertex outside the tail or cited
twice, a tuple that is not of size q, a cut member outside the core.  For a
rejected mutant it names the first false claim, in ``_failure``'s order and
words, and ``_failure`` must give that reason: a cut that is empty or odd,
that misses the defect, that meets an available trace oddly; a deleted
vertex that does not realize its trace, core residues that differ after
the deletion, a declared residue that is not the recounted one.

Some mutants are true certificates and must be accepted: a cut with two
members flipped that still meets every available trace evenly and the
defect oddly, and a deleted vertex swapped for another realizer of its
trace.
"""

import copy
import random
from collections import Counter, defaultdict

import modcert.absorb as absorb
import modcert.traces as traces
from modcert.absorb import (
    DeletionCertificate,
    certificate_from_json,
    certificate_ids,
    certificate_to_json,
    solve_core_correction,
    verify_certificate,
)
from modcert.graph import bits_of, mask_of
from synth import realize_problem

from conftest import relabeled

RAISES = "raises"
# The first words of each reason ``_failure`` gives, in its order.
REASONS = (
    "parity cut must be nonempty and even",
    "parity cut fails to detect the defect",
    "parity cut meets an available trace oddly",
    "deleted vertex",
    "core residues differ after the deletion",
    "declared residue",
)


def tail_groups(problem) -> dict[int, list[int]]:
    """The tail vertices by their neighborhood in the core, read off the adjacency masks."""
    core_mask = mask_of(problem.core)
    groups: dict[int, list[int]] = {}
    for v in sorted(problem.witness.members - set(problem.core)):
        groups.setdefault(problem.graph.adj_masks[v] & core_mask, []).append(v)
    return groups


def recount(problem, payload):
    """RAISES when the payload is invalid input for this problem, True when
    its claims hold, else the first false claim, recounted from the
    adjacency masks."""
    graph, q = problem.graph, problem.q
    ids = {graph.name_of(v): v for v in range(graph.n)}
    if (payload["q"], payload["d"]) != (q, problem.lift):
        return RAISES
    if sorted(payload["core"]) != sorted(map(graph.name_of, problem.core)):
        return RAISES
    adj, core = graph.adj_masks, set(problem.core)
    core_mask, witness_mask = mask_of(core), mask_of(problem.witness.members)
    if payload["kind"] == "parity-cut":
        names = payload["parity_cut_Y"]
        if names is None or len(set(names)) != len(names) or not {ids[name] for name in names} <= core:
            return RAISES
        cut = mask_of(ids[name] for name in names)
        if not names or len(names) % 2:
            return REASONS[0]
        # Labels up to a constant flip, which an even cut does not see.
        if sum((adj[u] & witness_mask).bit_count() // q for u in bits_of(cut)) % 2 == 0:
            return REASONS[1]
        groups = tail_groups(problem).items()
        if any(len(members) >= q and (trace & cut).bit_count() % 2 for trace, members in groups):
            return REASONS[2]
        return True
    entries = payload["chosen_traces"]
    if entries is None:
        return RAISES
    deleted = []
    for entry in entries:
        trace, cited = entry["trace"], entry["deleted_vertices"]
        if len(set(trace)) != len(trace) or len(set(cited)) != len(cited) or len(cited) != q:
            return RAISES
        deleted += [ids[name] for name in cited]
    tail = problem.witness.members - core
    if len(set(deleted)) != len(deleted) or not set(deleted) <= tail:
        return RAISES
    for entry in entries:
        trace = tuple(sorted(ids[name] for name in entry["trace"]))
        for v in sorted(ids[name] for name in entry["deleted_vertices"]):
            if adj[v] & core_mask != mask_of(trace):
                return f"deleted vertex {v} does not realize trace {trace}"
    retained = witness_mask & ~mask_of(deleted)
    residues = {(adj[u] & retained).bit_count() % (2 * q) for u in core}
    if len(residues) != 1:
        return REASONS[4]
    (residue,) = residues
    claim = payload["residue_achieved"]
    return True if claim in (None, residue) else f"declared residue {claim} is not {residue}"


def verdict(problem, payload):
    """RAISES, True, or the reason ``_failure`` gives, on which ``verify_certificate`` must agree."""
    try:
        cert = certificate_ids(certificate_from_json(payload), problem.graph.ids_of)
        valid = verify_certificate(problem, cert)
        reason = absorb._failure(problem, cert)
    except ValueError:
        return RAISES
    assert valid == (reason is None), reason
    return True if valid else reason


def shown(outcome):
    """An outcome with a reason shown by its first words, one of REASONS."""
    if outcome is True or outcome == RAISES:
        return outcome
    return next(first for first in REASONS if outcome.startswith(first))


def edited(payload, **fields):
    out = copy.deepcopy(payload)
    out.update(fields)
    return out


def claim_mutants(problem, payload):
    """A changed q, d or core: each must raise."""
    name_of = problem.graph.name_of
    tail = sorted(problem.witness.members - set(problem.core))
    yield "q", edited(payload, q=2 * payload["q"])
    yield "d", edited(payload, d=payload["d"] + 1)
    yield "core", edited(payload, core=payload["core"][1:])
    if tail:
        yield "core", edited(payload, core=payload["core"] + [name_of(tail[0])])


def cut_mutants(problem, payload, rng):
    name_of = problem.graph.name_of
    members = set(payload["parity_cut_Y"])
    core = [name_of(u) for u in problem.core]

    def toggled(*names):
        return edited(payload, parity_cut_Y=sorted(members.symmetric_difference(names)))

    for name in core:
        yield "flip one", toggled(name)
    for i, first in enumerate(core):
        for second in core[i + 1:]:
            yield "flip two", toggled(first, second)
    tail = sorted(problem.witness.members - set(problem.core))
    if tail:
        yield "tail member", edited(payload, parity_cut_Y=sorted(members | {name_of(rng.choice(tail))}))
    yield "kind", edited(payload, kind="deletion", chosen_traces=[])
    yield "kind", edited(payload, kind="deletion")


def deletion_mutants(problem, payload, rng):
    name_of, q = problem.graph.name_of, problem.q
    groups = {trace: [name_of(v) for v in members] for trace, members in tail_groups(problem).items()}
    trace_of = {name: trace for trace, names in groups.items() for name in names}
    core = [name_of(u) for u in problem.core]
    entries = payload["chosen_traces"]

    def with_entry(i, **fields):
        changed = copy.deepcopy(entries)
        changed[i].update(fields)
        return edited(payload, chosen_traces=changed)

    for i, entry in enumerate(entries):
        cited = entry["deleted_vertices"]
        for j, old in enumerate(cited):
            same = [name for name in groups[trace_of[old]] if name not in cited]
            other = [name for name in trace_of if trace_of[name] != trace_of[old]]
            for kind, pool in (("same-trace swap", same), ("other-trace swap", other), ("core swap", core)):
                for new in rng.sample(pool, min(2, len(pool))):
                    yield kind, with_entry(i, deleted_vertices=cited[:j] + [new] + cited[j + 1:])
        for k in range(len(entries)):
            if k != i:
                moved = copy.deepcopy(entries)
                moved[k]["deleted_vertices"].append(moved[i]["deleted_vertices"].pop())
                yield "move", edited(payload, chosen_traces=moved)
        trace = entry["trace"]
        for name in core:
            changed = [member for member in trace if member != name] if name in trace else trace + [name]
            yield "trace member", with_entry(i, trace=changed)
    residue = payload["residue_achieved"]
    for claim in (None, residue + 1, residue - 1, residue + 2 * q, rng.randrange(2 * q)):
        yield "residue", edited(payload, residue_achieved=claim)
    yield "kind", edited(payload, kind="parity-cut", parity_cut_Y=[])
    yield "kind", edited(payload, kind="parity-cut")


def test_mutants_get_the_recounts_verdict(monkeypatch):
    rng = random.Random(0x3A7E)
    emitted = Counter()
    outcomes = Counter()
    rejected = defaultdict(set)
    while min(emitted["deletion"], emitted["cut"]) < 50:
        m, q = rng.choice((2, 3, 4, 5)), rng.choice((2, 4))
        masks = rng.sample(range(1, 1 << m), k=rng.randrange(0, min(6, (1 << m) - 1)))
        problem = realize_problem(m, q, masks, rng.getrandbits(m))
        if problem is None:
            continue
        problem = relabeled(problem, rng)
        cert = solve_core_correction(problem)
        branch = "deletion" if isinstance(cert, DeletionCertificate) else "cut"
        emitted[branch] += 1
        payload = certificate_to_json(cert, name_of=problem.graph.name_of)
        mutants = list(claim_mutants(problem, payload))
        if branch == "cut":
            mutants += cut_mutants(problem, payload, rng)
        else:
            mutants += deletion_mutants(problem, payload, rng)
        with monkeypatch.context() as patch:
            for module, name in ((traces, "compute_traces"), (absorb, "compute_traces"), (absorb, "_failure")):
                patch.setattr(module, name, None)
            assert recount(problem, payload) is True
            expected = [recount(problem, mutant) for _, mutant in mutants]
        assert verdict(problem, payload) is True
        for (kind, mutant), want in zip(mutants, expected):
            got = verdict(problem, mutant)
            assert got == want, (kind, mutant)
            outcomes[kind, shown(got)] += 1
            if got not in (True, RAISES):
                rejected[kind].add(shown(got))
    for kind in ("q", "d", "core", "tail member", "core swap"):
        assert outcomes[kind, RAISES] > 0 and outcomes[kind, True] == 0 and not rejected[kind]
    # Each kind of mutant the verifier accepts is reached, and each accepted
    # one is a true certificate by the recount.  Realizers of one trace are
    # interchangeable, so every same-trace swap is accepted.
    for kind in ("flip two", "same-trace swap", "residue"):
        assert outcomes[kind, True] > 0
    assert outcomes["same-trace swap", RAISES] == 0 and not rejected["same-trace swap"]
    for kind in ("flip one", "flip two", "other-trace swap", "trace member", "residue", "kind"):
        assert rejected[kind]
    assert outcomes["move", RAISES] > 0
    # A lone flip makes the cut odd, a realizer of another trace misses the
    # declared one, and a residue claim fails only itself.
    assert rejected["flip one"] == {REASONS[0]}
    assert rejected["other-trace swap"] == {"deleted vertex"}
    assert rejected["residue"] == {"declared residue"}
    assert set().union(*rejected.values()) == set(REASONS)
