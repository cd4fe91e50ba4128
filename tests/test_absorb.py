import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modcert.absorb import (
    AbsorptionProblem,
    DeletionCertificate,
    ParityCut,
    TraceSelection,
    all_tail_identity_check,
    basis_tail_check,
    certificate_from_json,
    certificate_ids,
    certificate_to_json,
    pair_trace_sufficiency,
    rank_rich,
    self_layer_check,
    solve_core_correction,
    solve_defect,
    trace_class_matrix,
    twin_tail_decompose,
    verify_certificate,
    verify_deletion_certificate,
    verify_parity_cut,
)
from modcert.gf2 import _BLOCK, _CUTOVER, rank
from modcert.graph import Graph
from modcert.oracle import brute_force_absorption
from modcert.traces import pair_trace_graph
from modcert.witness import ModularWitness, is_q_modular, terminal_check
from synth import path_pair_trace_problem, realize_problem, twin_pair_example

from conftest import relabeled


def build_problem(n, edges, q, core, names=None):
    g = Graph.from_edges(n, edges, names=names)
    witness = ModularWitness.build(g, range(n), q)
    return AbsorptionProblem.build(witness, core)


def twin_pair_with_idle_triangle():
    """Worked twin-pair example plus a triangle of empty-trace tail vertices.

    The triangle members have degree 2, which misses the core's mod-4
    residue after the correction, so they are exactly the self-layer
    violations.
    """
    edges = [(4, 0), (5, 0), (6, 2), (7, 2), (4, 5), (6, 7),
             (8, 9), (9, 10), (10, 8)]
    return build_problem(11, edges, 2, range(4))


def twin_pair_with_balanced_clique():
    """Worked twin-pair example plus an empty-trace 5-clique.

    Clique members keep degree 4, the core residue modulo 4, so the retained
    set stays 4-modular after the correction.
    """
    edges = [(4, 0), (5, 0), (6, 2), (7, 2), (4, 5), (6, 7)]
    edges += [(a, b) for a in range(8, 13) for b in range(a + 1, 13)]
    return build_problem(13, edges, 2, range(4))


class TestSolveCoreCorrection:
    def test_path_pair_trace_certificate(self):
        problem = path_pair_trace_problem(2)
        cert = solve_core_correction(problem)
        assert isinstance(cert, DeletionCertificate)
        assert [trace for trace, _ in cert.chosen] == [(0, 1), (1, 2)]
        assert len(cert.deleted_vertices()) == 2 * problem.q
        assert verify_deletion_certificate(problem, cert)

    def test_constant_label_needs_no_deletion(self):
        problem = realize_problem(4, 2, [0b0011, 0b1100], 0)
        cert = solve_core_correction(problem)
        assert isinstance(cert, DeletionCertificate)
        assert cert.chosen == ()
        assert verify_deletion_certificate(problem, cert)

    def test_even_traces_only_yields_parity_cut(self):
        problem = realize_problem(4, 2, [0b0011, 0b1100], 0b0001)
        cert = solve_core_correction(problem)
        assert isinstance(cert, ParityCut)
        assert verify_parity_cut(problem, cert.members)
        exists, _ = brute_force_absorption(problem)
        assert not exists
        # Failure implies rank deficiency of the available classes.
        _, matrix = trace_class_matrix(problem.table, problem.q)
        assert rank(matrix) <= len(problem.core) - 2

    def test_worked_twin_pair_example(self):
        problem, _ = twin_pair_example()
        cert = solve_core_correction(problem)
        assert isinstance(cert, DeletionCertificate)
        assert [trace for trace, _ in cert.chosen] == [(0,), (2,)]

    def test_singleton_core_trivial(self):
        problem = build_problem(2, [(1, 0)], 2, [0])
        # One core vertex: the quotient is trivial and nothing needs deleting.
        cert = solve_core_correction(problem)
        assert isinstance(cert, DeletionCertificate)
        assert cert.chosen == ()

    def test_deterministic_output(self):
        problem = path_pair_trace_problem(2)
        assert solve_core_correction(problem) == solve_core_correction(problem)


@pytest.mark.parametrize("seed", range(8))
def test_deletion_certificates_keep_the_size_bound(seed):
    # At most |U| - 1 traces and q(|U| - 1) deleted vertices.  On cores of 200
    # and 210 vertices the quotient matrix's first column block holds more than
    # ``_CUTOVER`` rows, so its solve runs a block step of the elimination.
    import random

    rng = random.Random(seed)
    m = (5, 200, 210)[seed % 3]
    q = (2, 4)[seed % 2]
    masks = sorted({rng.getrandbits(m) | 1 for _ in range(rng.randrange(2 * m, 2 * m + 40))})
    label = rng.getrandbits(m)
    if seed % 4:
        # A label in the span of the available traces: a deletion exists.
        label = 0
        for mask in masks:
            if rng.random() < 0.5:
                label ^= mask
    problem = realize_problem(m, q, masks, label)
    assert problem is not None
    if m > 5:
        matrix = trace_class_matrix(problem.table, q)[1]
        first_block = (1 << min(_BLOCK, matrix.cols)) - 1
        assert sum(1 for r in matrix.row_bits if r & first_block) >= _CUTOVER
    cert = solve_core_correction(problem)
    if seed % 4:
        assert isinstance(cert, DeletionCertificate)
    if isinstance(cert, DeletionCertificate):
        assert len(cert.chosen) <= m - 1
        assert len(cert.deleted_vertices()) <= q * (m - 1)
        assert all(len(deleted) == q for _, deleted in cert.chosen)


@st.composite
def realized_problems(draw):
    """``realize_problem`` instances; half of the labels lie in the span of the masks."""
    m = draw(st.integers(1, 9))
    q = draw(st.sampled_from([2, 4]))
    full = (1 << m) - 1
    masks = draw(st.lists(st.integers(1, full), max_size=3 * m, unique=True)) if full else []
    if draw(st.booleans()):
        label = 0
        for mask in masks:
            if draw(st.booleans()):
                label ^= mask
    else:
        label = draw(st.integers(0, full))
    problem = realize_problem(m, q, masks, label)
    assume(problem is not None)
    return problem


@settings(max_examples=200, deadline=None)
@given(realized_problems())
def test_every_emitted_deletion_keeps_the_size_bound(problem):
    # At most |U| - 1 traces and q(|U| - 1) deleted vertices, q per trace.
    bound = len(problem.core) - 1
    cert = solve_core_correction(problem)
    if isinstance(cert, DeletionCertificate):
        assert len(cert.chosen) <= bound
        assert len(cert.deleted_vertices()) <= problem.q * bound
        assert all(len(deleted) == problem.q for _, deleted in cert.chosen)


class TestVerifyDeletionCertificate:
    def test_wrong_traces_fail(self):
        problem = path_pair_trace_problem(2)
        table = problem.table
        bad = DeletionCertificate(
            q=2, lift=problem.lift, core=problem.core,
            chosen=(
                (table.members_of(0b01100), table.entries[0b01100][:2]),
                (table.members_of(0b11000), table.entries[0b11000][:2]),
            ),
            residue_achieved=None,
        )
        assert not verify_deletion_certificate(problem, bad)

    def test_structural_errors(self):
        problem = path_pair_trace_problem(2)
        table = problem.table
        realizers = table.entries[0b00011]
        core_vertex = problem.core[0]
        with pytest.raises(ValueError):
            verify_deletion_certificate(problem, DeletionCertificate(
                q=2, lift=0, core=problem.core,
                chosen=((table.members_of(0b00011), (realizers[0],)),),
                residue_achieved=None,
            ))
        with pytest.raises(ValueError):
            verify_deletion_certificate(problem, DeletionCertificate(
                q=2, lift=0, core=problem.core,
                chosen=((table.members_of(0b00011), (realizers[0], realizers[0])),),
                residue_achieved=None,
            ))
        with pytest.raises(ValueError):
            verify_deletion_certificate(problem, DeletionCertificate(
                q=2, lift=0, core=problem.core,
                chosen=((table.members_of(0b00011), (realizers[0], core_vertex)),),
                residue_achieved=None,
            ))


class TestVerifyCertificate:
    def test_genuine_certificates_verify(self):
        for problem in (path_pair_trace_problem(2), realize_problem(4, 2, [0b0011, 0b1100], 0b0001)):
            assert verify_certificate(problem, solve_core_correction(problem))

    def test_declared_trace_must_be_realized(self):
        problem = path_pair_trace_problem(2)
        cert = solve_core_correction(problem)
        (trace, deleted), *rest = cert.chosen
        for wrong in (trace[1:], trace + (problem.core[-1],), (trace[0],) + trace):
            bad = cert._replace(chosen=((wrong, deleted), *rest))
            assert not verify_certificate(problem, bad)

    def test_declared_residue_must_be_recomputed(self):
        problem = path_pair_trace_problem(2)
        cert = solve_core_correction(problem)
        assert verify_certificate(problem, cert._replace(residue_achieved=None))
        wrong = (cert.residue_achieved + 1) % (2 * problem.q)
        assert not verify_certificate(problem, cert._replace(residue_achieved=wrong))

    def test_problem_claims_checked_for_both_kinds(self):
        for problem in (path_pair_trace_problem(2), realize_problem(4, 2, [0b0011, 0b1100], 0b0001)):
            cert = solve_core_correction(problem)
            for change in ({"q": 2 * problem.q}, {"lift": problem.lift + 1},
                           {"core": problem.core[1:]}):
                with pytest.raises(ValueError):
                    verify_certificate(problem, cert._replace(**change))


class TestVerifyParityCut:
    def test_odd_subset_fails(self):
        problem = realize_problem(4, 2, [0b0011, 0b1100], 0b0001)
        assert not verify_parity_cut(problem, {problem.core[0]})

    def test_empty_subset_fails_detection(self):
        problem = realize_problem(4, 2, [0b0011, 0b1100], 0b0001)
        assert not verify_parity_cut(problem, set())

    def test_outside_core_rejected(self):
        problem = realize_problem(4, 2, [0b0011, 0b1100], 0b0001)
        tail_vertex = min(problem.witness.members - set(problem.core))
        with pytest.raises(ValueError):
            verify_parity_cut(problem, {tail_vertex, problem.core[0]})


class TestAllTailIdentity:
    def test_worked_example_holds_and_terminates(self):
        problem, _ = twin_pair_example()
        assert all_tail_identity_check(problem) is None
        assert is_q_modular(problem.graph, problem.core, 4).modular
        lifted = ModularWitness.build(problem.graph, problem.core, 4)
        outcome = terminal_check(lifted)
        assert outcome.degree == 0

    def test_divisibility_failure(self):
        # One lone tail vertex: multiplicity 1 is not divisible by q = 2.
        problem = build_problem(5, [(0, 1), (4, 0), (4, 1)], 2, range(4))
        reason = all_tail_identity_check(problem)
        assert "divisible" in reason

    def test_class_mismatch(self):
        # Core triangle plus two isolated core vertices; the tail pair with
        # trace {3,4} flattens the witness degrees, so the label is constant
        # while the block sum is not, and indeed deleting the tail leaves the
        # triangle degrees apart from the isolated ones modulo 4.
        edges = [(0, 1), (1, 2), (0, 2), (5, 3), (5, 4), (6, 3), (6, 4)]
        problem = build_problem(7, edges, 2, range(5))
        reason = all_tail_identity_check(problem)
        assert "defect" in reason
        assert not is_q_modular(problem.graph, problem.core, 4).modular


class TestSelfLayer:
    def test_whole_tail_deleted_is_vacuous(self):
        problem, _ = twin_pair_example()
        cert = solve_core_correction(problem)
        assert self_layer_check(problem, cert) == ()

    def test_triangle_helpers_violate(self):
        problem = twin_pair_with_idle_triangle()
        cert = solve_core_correction(problem)
        assert isinstance(cert, DeletionCertificate)
        violating = self_layer_check(problem, cert)
        assert violating == (8, 9, 10)
        retained = problem.witness.members - set(cert.deleted_vertices())
        assert not is_q_modular(problem.graph, retained, 4).modular

    def test_balanced_clique_passes(self):
        problem = twin_pair_with_balanced_clique()
        cert = solve_core_correction(problem)
        violating = self_layer_check(problem, cert)
        assert violating == ()
        retained = problem.witness.members - set(cert.deleted_vertices())
        assert is_q_modular(problem.graph, retained, 4).modular

    def test_requires_valid_certificate(self):
        problem = path_pair_trace_problem(2)
        table = problem.table
        bad = DeletionCertificate(
            q=2, lift=problem.lift, core=problem.core,
            chosen=((table.members_of(0b01100), table.entries[0b01100][:2]),),
            residue_achieved=None,
        )
        with pytest.raises(ValueError):
            self_layer_check(problem, bad)


class TestRankRich:
    def test_heavy_singletons_span(self):
        edges = []
        next_id = 4
        for u in range(1, 4):
            edges += [(next_id, u), (next_id + 1, u), (next_id, next_id + 1)]
            next_id += 2
        problem = build_problem(next_id, edges, 2, range(4))
        ok, spanning = rank_rich(problem.table, problem.q)
        assert ok
        assert len([problem.table.members_of(mask) for mask in spanning]) <= 3

    def test_no_traces_no_span(self):
        problem = build_problem(4, [], 2, range(4))
        ok, spanning = rank_rich(problem.table, problem.q)
        assert not ok and spanning == ()

    def test_path_instance_spans(self):
        problem = path_pair_trace_problem(2)
        ok, spanning = rank_rich(problem.table, problem.q)
        assert ok
        assert len(spanning) <= 4


def _pair_trace_reason(table, q):
    return pair_trace_sufficiency(table, q, pair_trace_graph(table, q))


class TestPairTraceSufficiency:
    def test_path_applies(self):
        problem = path_pair_trace_problem(2)
        assert _pair_trace_reason(problem.table, problem.q) is None

    def test_disconnected(self):
        problem = realize_problem(4, 2, [0b0011, 0b1100], 0)
        reason = _pair_trace_reason(problem.table, problem.q)
        assert "disconnected" in reason

    def test_even_core_needs_odd_trace(self):
        all_pairs = [(1 << i) | (1 << j) for i in range(4) for j in range(i + 1, 4)]
        problem = realize_problem(4, 2, all_pairs, 0)
        reason = _pair_trace_reason(problem.table, problem.q)
        assert "odd" in reason
        _, matrix = trace_class_matrix(problem.table, problem.q)
        assert rank(matrix) == 2

    def test_applies_implies_solvable_for_every_label(self):
        problem = path_pair_trace_problem(2)
        assert _pair_trace_reason(problem.table, problem.q) is None
        m = len(problem.core)
        for bits in range(1 << m):
            outcome = solve_defect(problem.table, problem.q, bits)
            assert isinstance(outcome, TraceSelection)
            assert len(outcome.masks) <= m - 1


class TestTwinTailDecompose:
    def test_worked_example_blocks(self):
        problem, blocks = twin_pair_example()
        assert blocks == ((0b0001, (4, 5)), (0b0100, (6, 7)))

    def test_indivisible_multiplicity(self):
        # Trace {0} occurs three times: q + 1 realizers for q = 2.
        edges = [(4, 0), (5, 0), (6, 0), (7, 0), (7, 1), (8, 1), (4, 5), (6, 8)]
        problem = build_problem(9, edges, 2, range(4))
        assert problem.table.count(0b0001) == 3
        assert twin_tail_decompose(problem.table, 2) is None

    def test_blocks_share_traces(self):
        problem, blocks = twin_pair_example()
        for mask, members in blocks:
            for v in members:
                assert v in problem.table.entries[mask]


class TestBasisTail:
    def test_worked_example_with_chosen_base(self):
        problem, blocks = twin_pair_example()
        assert basis_tail_check(problem, blocks, base_vertex=3) is None

    def test_no_blocks_constant_label(self):
        problem = build_problem(4, [], 2, range(4))
        blocks = twin_tail_decompose(problem.table, 2)
        assert blocks == ()
        assert basis_tail_check(problem, blocks) is None

    def test_unmatched_extra_block_fails(self):
        # Add a pair with trace {1,2} to the worked example: the singleton
        # pattern no longer matches the shifted labels.
        edges = [(4, 0), (5, 0), (6, 2), (7, 2), (4, 5), (6, 7),
                 (8, 0), (9, 0), (8, 1), (9, 1)]
        problem = build_problem(10, edges, 2, range(4))
        blocks = twin_tail_decompose(problem.table, 2)
        assert blocks is not None
        reason = basis_tail_check(problem, blocks, base_vertex=3)
        assert "wrong parity" in reason

    def test_invalid_blocks_rejected(self):
        problem, blocks = twin_pair_example()
        wrong_size = ((0b0001, (4,)), (0b0100, (6, 7)))
        with pytest.raises(ValueError):
            basis_tail_check(problem, wrong_size)
        not_partition = ((0b0001, (4, 5)),)
        with pytest.raises(ValueError):
            basis_tail_check(problem, not_partition)


class TestCertificateJson:
    def test_deletion_round_trip(self):
        problem = path_pair_trace_problem(2)
        cert = solve_core_correction(problem)
        payload = certificate_to_json(cert, name_of=problem.graph.name_of)
        assert payload["version"] == "modcert-v1"
        parsed = certificate_ids(certificate_from_json(payload), problem.graph.ids_of)
        assert parsed.chosen == cert.chosen
        assert verify_deletion_certificate(problem, parsed)

    def test_parity_cut_round_trip(self):
        problem = realize_problem(4, 2, [0b0011, 0b1100], 0b0001)
        cert = solve_core_correction(problem)
        payload = certificate_to_json(cert, name_of=problem.graph.name_of)
        parsed = certificate_ids(certificate_from_json(payload), problem.graph.ids_of)
        assert parsed == cert
        assert verify_parity_cut(problem, parsed.members)

    def test_unknown_version_rejected(self):
        problem = path_pair_trace_problem(2)
        cert = solve_core_correction(problem)
        payload = certificate_to_json(cert)
        payload["version"] = "modcert-v999"
        with pytest.raises(ValueError):
            certificate_from_json(payload)


class TestRelabelingInvariance:
    """Shuffling vertex ids, with names following their vertices, changes no
    decision, trace or heavy pair; certificates move between labelings by name."""

    @staticmethod
    def name_table(problem):
        table, name_of = problem.table, problem.graph.name_of
        return {frozenset(map(name_of, table.members_of(mask))): table.count(mask) for mask in table.entries}

    @staticmethod
    def named_pair_view(problem):
        view = pair_trace_graph(problem.table, problem.q)
        edges = {frozenset(map(problem.graph.name_of, edge)) for edge in view.edges}
        return edges, view.connected, view.has_odd_heavy_trace

    def test_seeded_instances(self):
        import random

        rng = random.Random(0x5EED)
        kinds = set()
        checked = scattered = 0
        while checked < 40:
            m = rng.choice([2, 3, 4, 5])
            q = rng.choice([2, 4])
            masks = rng.sample(range(1, 1 << m), k=rng.randrange(0, min(6, (1 << m) - 1)))
            first = realize_problem(m, q, masks, rng.getrandbits(m))
            if first is None:
                continue
            checked += 1
            second = relabeled(first, rng)
            scattered += second.core != first.core
            assert self.name_table(second) == self.name_table(first)
            assert self.named_pair_view(second) == self.named_pair_view(first)
            certs = [solve_core_correction(first), solve_core_correction(second)]
            assert type(certs[0]) is type(certs[1])
            kinds.add(type(certs[0]))
            for cert, source, target in ((certs[0], first, second), (certs[1], second, first)):
                payload = certificate_to_json(cert, name_of=source.graph.name_of)
                moved = certificate_ids(certificate_from_json(payload), target.graph.ids_of)
                assert verify_certificate(target, moved)
        assert kinds == {DeletionCertificate, ParityCut}
        assert scattered >= 30

    def test_twin_pair_identities(self):
        import random

        problem, _ = twin_pair_example()
        for seed in range(6):
            copy = relabeled(problem, random.Random(seed))
            assert all_tail_identity_check(copy) is None
            blocks = twin_tail_decompose(copy.table, 2)
            assert basis_tail_check(copy, blocks, base_vertex=copy.graph.ids_of(["4"])[0]) is None


def test_engine_agrees_with_oracle_on_random_instances():
    import random

    rng = random.Random(0xD1CE)
    checked = 0
    attempts = 0
    while checked < 60:
        attempts += 1
        assert attempts < 1500
        m = rng.choice([3, 4, 5])
        q = rng.choice([2, 4])
        pool = list(range(1, 1 << m))
        masks = sorted(rng.sample(pool, k=rng.randrange(0, 7)))
        problem = realize_problem(m, q, masks, rng.getrandbits(m))
        if problem is None:
            continue
        checked += 1
        cert = solve_core_correction(problem)
        exists, _ = brute_force_absorption(problem)
        assert exists == isinstance(cert, DeletionCertificate)


def test_engine_agrees_with_oracle_on_small_family():
    available_sets = [
        [],
        [0b011],
        [0b001, 0b010],
        [0b011, 0b110],
        [0b001, 0b110],
        [0b111],
    ]
    agreements = 0
    for q in (2, 4):
        for masks in available_sets:
            for label in range(1 << 3):
                problem = realize_problem(3, q, masks, label)
                if problem is None:
                    continue
                cert = solve_core_correction(problem)
                exists, _ = brute_force_absorption(problem)
                assert exists == isinstance(cert, DeletionCertificate)
                agreements += 1
    assert agreements >= 40
