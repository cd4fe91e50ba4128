"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances and budgets are pinned here and nowhere else.
"""

import json
import math
import os
import random
import time

from modcert.absorb import (
    DeletionCertificate,
    TraceSelection,
    pair_trace_sufficiency,
    rank_rich,
    solve_core_correction,
    solve_defect,
    trace_class_matrix,
    verify_deletion_certificate,
    verify_parity_cut,
)
from modcert.cli import main
from modcert.gf2 import rank
from modcert.graph import Graph
from modcert.oracle import (
    brute_force_absorption,
    brute_force_alpha_omega,
    brute_force_max_regular,
)
from modcert.parity import parity_partition, two_modular_part, verify_even_partition
from modcert.reservoir import ReservoirSpec, estimate_availability, uniform_sample_size
from modcert.traces import (
    complement_difference,
    compute_traces,
    neighborhood_diversity,
    next_bit_obstruction,
    pair_trace_graph,
    tail_degrees,
)
from modcert.witness import (
    ModularWitness,
    Regular,
    affine_lift_check,
    is_q_modular,
    terminal_check,
)
from synth import path_pair_trace_problem, realize_problem, twin_pair_example

from conftest import edges_of, random_graph


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_parity_base():
    rng = random.Random(0xA11CE)
    start = time.monotonic()
    for index in range(1000):
        n = rng.randrange(8, 65)
        g = random_graph(n, (0.1, 0.5, 0.9)[index % 3], rng)
        part0, part1 = parity_partition(g)
        assert verify_even_partition(g, part0, part1)
        assert 2 * max(len(part0), len(part1)) >= n
    elapsed = time.monotonic() - start
    assert elapsed <= 5.0, f"parity base took {elapsed:.2f}s > 5s"
    _report(1, "parity base, 1000 graphs")


def test_criterion_2_cancelling_complement_pair_golden():
    g = Graph.from_edges(
        6, [(4, 0), (5, 1), (5, 2), (5, 3)],
        names=["1", "2", "3", "4", "x", "y"],
    )
    table = compute_traces(g, range(4), {4, 5})
    assert table.entries == {0b0001: (4,), 0b1110: (5,)}
    rho = tail_degrees(table)
    assert rho == (1, 1, 1, 1)
    vector, cls = complement_difference(table)
    assert vector == (0, 0, 0, 0) and cls.is_zero()
    for m in range(4):
        theta = next_bit_obstruction(rho, m)
        assert theta is not None and theta.is_zero()
    # Regression: the naive complement-orbit sum is nonzero here.
    naive = ((table.count(0b0001) + table.count(0b1110)) // 2) % 2
    assert naive == 1
    _report(2, "cancelling complement pair golden")


def test_criterion_3_pair_trace_path_golden():
    problem = path_pair_trace_problem(2)
    cert = solve_core_correction(problem)
    assert isinstance(cert, DeletionCertificate)
    assert [trace for trace, _ in cert.chosen] == [(0, 1), (1, 2)]
    assert verify_deletion_certificate(problem, cert)
    deleted = cert.deleted_vertices()
    assert len(deleted) == 2 * problem.q
    assert len(deleted) <= problem.q * (len(problem.core) - 1)
    _report(3, "pair-trace path golden")


def test_criterion_4_twin_pair_lift_golden():
    from modcert.absorb import all_tail_identity_check

    problem, _blocks = twin_pair_example()
    assert all_tail_identity_check(problem) is None
    assert is_q_modular(problem.graph, problem.core, 4).modular
    lifted = ModularWitness.build(problem.graph, problem.core, 4)
    outcome = terminal_check(lifted)
    assert type(outcome) is Regular and outcome.degree == 0
    _report(4, "twin-pair worked lift golden")


DICHOTOMY_FAMILIES = {
    2: [
        [],
        [0b01],
        [0b11],
        [0b01, 0b10],
        [0b01, 0b11],
    ],
    3: [
        [],
        [0b001],
        [0b011, 0b110],
        [0b011, 0b110, 0b111],
        [0b001, 0b010, 0b100],
        [0b011, 0b101, 0b110],
        [0b111],
    ],
    4: [
        [],
        [0b0011, 0b1100],
        [0b0011, 0b0110, 0b1100],
        [0b0011, 0b0110, 0b1100, 0b0001],
        [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100],
        [0b0001, 0b0010, 0b0100, 0b1000],
        [0b0111, 0b1110],
    ],
    5: [
        [],
        [0b00011, 0b00110, 0b01100, 0b11000],
        [0b00011, 0b00110, 0b01100, 0b11000, 0b00100],
        [0b00001, 0b00010, 0b00100, 0b01000, 0b10000],
        [0b00011, 0b00110, 0b01100, 0b11000, 0b00111, 0b10000],
        [0b00011, 0b11000],
    ],
}


def test_criterion_5_dichotomy_exhaustive():
    start = time.monotonic()
    checked = 0
    skipped = 0
    deletions = 0
    cuts = 0
    for m, families in DICHOTOMY_FAMILIES.items():
        for q in (2, 4):
            for masks in families:
                assert len(masks) <= 6
                for label in range(1 << m):
                    problem = realize_problem(m, q, masks, label)
                    if problem is None:
                        skipped += 1
                        continue
                    checked += 1
                    cert = solve_core_correction(problem)
                    exists, _ = brute_force_absorption(problem)
                    if isinstance(cert, DeletionCertificate):
                        deletions += 1
                        assert exists, "engine solved but the oracle found nothing"
                        assert verify_deletion_certificate(problem, cert)
                    else:
                        cuts += 1
                        assert not exists, "oracle solved but the engine emitted a cut"
                        assert verify_parity_cut(problem, cert.members)
                        _, matrix = trace_class_matrix(problem.table, problem.q)
                        assert rank(matrix) <= len(problem.core) - 2
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"dichotomy sweep took {elapsed:.1f}s > 60s"
    assert checked >= 400, f"only {checked} realizable instances"
    assert deletions >= 200 and cuts >= 50, (deletions, cuts)
    _report(5, f"dichotomy exhaustive ({checked} instances, {deletions} deletions, "
               f"{cuts} cuts, {skipped} unrealizable combos skipped)")


def test_criterion_6_connected_pair_reservoirs():
    rng = random.Random(0xB0B)
    successes = 0
    attempts = 0
    while successes < 500:
        attempts += 1
        assert attempts < 5000, "instance generation stalled"
        m = rng.choice([3, 4, 5])
        q = rng.choice([2, 4])
        traces = set()
        for v in range(1, m):
            parent = rng.randrange(v)
            traces.add((1 << v) | (1 << parent))
        if m % 2 == 0:
            odd_choices = [1 << rng.randrange(m)]
            traces.add(rng.choice(odd_choices))
        label = rng.getrandbits(m)
        problem = realize_problem(m, q, sorted(traces), label)
        if problem is None:
            continue
        successes += 1
        assert pair_trace_sufficiency(problem.table, q, pair_trace_graph(problem.table, q)) is None
        spanning, subset = rank_rich(problem.table, q)
        assert spanning and len(subset) <= m - 1
        for bits in range(1 << m):
            outcome = solve_defect(problem.table, q, bits)
            assert isinstance(outcome, TraceSelection)
            assert len(outcome.masks) <= m - 1
        cert = solve_core_correction(problem)
        assert isinstance(cert, DeletionCertificate)
        assert verify_deletion_certificate(problem, cert)
        assert len(cert.deleted_vertices()) <= q * (m - 1)
    _report(6, f"connected pair reservoirs (500 instances, {attempts} attempts)")


def test_criterion_7_reservoir_bound():
    delta = 0.1
    for m, q in ((3, 2), (4, 2), (4, 4)):
        samples = uniform_sample_size(m, q, delta)
        bound = (m - 1) * math.exp(-samples * 2.0 ** -m / 8.0)
        for seed in range(10):
            spec = ReservoirSpec(core_size=m, q=q, samples=samples,
                                 trials=1000, seed=seed)
            report = estimate_availability(spec)
            assert not report.advisory_small_sample
            assert report.bound == bound
            assert report.empirical_failure_rate <= delta
            sigma = math.sqrt(bound * (1 - bound) / spec.trials)
            assert report.empirical_failure_rate <= bound + 3 * sigma
    _report(7, "reservoir bound, 3 configurations x 10 seeds x 1000 trials")


def test_criterion_8_calibration():
    rng = random.Random(0xCA11)
    for _ in range(200):
        n = rng.randrange(1, 17)
        g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
        f, _ = brute_force_max_regular(g)
        alpha, omega = brute_force_alpha_omega(g)
        assert f >= max(alpha, omega)
        assert f * neighborhood_diversity(g).t >= n
    _report(8, "calibration, 200 graphs with n <= 16")


def test_criterion_9_affine_lift_equivalence():
    rng = random.Random(0x5EED)
    checked = 0
    while checked < 940:
        g = random_graph(rng.randrange(2, 36), rng.choice([0.2, 0.5, 0.8]), rng)
        members = two_modular_part(g)
        if not members:
            continue
        witness = ModularWitness.build(g, members, 2)
        subset = {v for v in members if rng.random() < 0.7}
        assert affine_lift_check(witness, subset) == is_q_modular(g, subset, 4).modular
        checked += 1
    higher = 0
    while higher < 60:
        masks = [0b0011, 0b0110, 0b1100, 0b0001][: rng.randrange(1, 5)]
        problem = realize_problem(4, 4, masks, rng.getrandbits(4))
        if problem is None:
            continue
        witness = problem.witness
        subset = {v for v in witness.members if rng.random() < 0.7}
        assert affine_lift_check(witness, subset) == is_q_modular(
            witness.graph, subset, 8
        ).modular
        higher += 1
    _report(9, f"affine lift equivalence ({checked} mod-2 + {higher} mod-4 instances)")


def _write_graph_file(path, graph) -> str:
    lines = [f"n {graph.n}"] + [f"{u} {v}" for u, v in edges_of(graph)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _criterion_10_invocations(tmp_path, capsys) -> list[list[str]]:
    """One ``--json`` run of every subcommand on the path pair-trace instance."""
    problem = path_pair_trace_problem(2)
    graph_file = _write_graph_file(tmp_path / "path.txt", problem.graph)
    core = ",".join(str(v) for v in problem.core)
    witness = ",".join(str(v) for v in sorted(problem.witness.members))
    base = [graph_file, "--json"]
    sets = ["--core", core, "--witness", witness]
    q = ["--q", "2"]
    invocations = [
        ["parity"] + base,
        ["absorb"] + base + sets + q,
        ["check-modular"] + base + ["--witness", witness] + q,
        ["traces"] + base + sets,
        ["next-bit"] + base + sets,
        ["pair-trace"] + base + sets + q,
        ["nd"] + base,
        ["oracle-f"] + base,
        ["oracle-absorb"] + base + sets + q,
        ["reservoir", "--json", "--m", "3", "--q", "2", "--samples", "64",
         "--trials", "25", "--seed", "13"],
        ["ladder-budget", "--json", "--C", "1.5", "--a", "0.5", "--C0", "2", "--r", "4"],
    ]
    cert_file = tmp_path / "cert.json"
    main(["absorb"] + base + sets + q)
    cert_file.write_text(capsys.readouterr().out, encoding="utf-8")
    invocations.append(["verify-cert"] + base + sets + q + ["--certificate", str(cert_file)])
    return invocations


def test_criterion_10_determinism(tmp_path, capsys):
    for argv in _criterion_10_invocations(tmp_path, capsys):
        first_code = main(argv)
        first_out = capsys.readouterr().out
        second_code = main(argv)
        second_out = capsys.readouterr().out
        assert first_code == second_code
        assert first_out == second_out, f"nondeterministic output for {argv[0]}"
        assert first_out.strip(), f"empty output for {argv[0]}"
    _report(10, "determinism across all subcommands")


GOLDEN_STDOUT = os.path.join(os.path.dirname(__file__), "golden_cli_stdout.json")


def test_criterion_10_golden_stdout(tmp_path, capsys):
    """Criterion 10's runs, plus a pair-trace run whose sufficiency fails,
    keep the exact stdout and exit code recorded in ``golden_cli_stdout.json``."""
    invocations = _criterion_10_invocations(tmp_path, capsys)
    twin, _ = twin_pair_example()
    twin_file = _write_graph_file(tmp_path / "twin.txt", twin.graph)
    invocations.append(["pair-trace", twin_file, "--json", "--core", "0,1,2,3",
                        "--witness", "0,1,2,3,4,5,6,7", "--q", "2"])
    runs = []
    for argv in invocations:
        code = main(argv)
        runs.append({"command": argv[0], "exit": code, "stdout": capsys.readouterr().out})
    with open(GOLDEN_STDOUT, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert [run["command"] for run in runs] == [run["command"] for run in golden]
    for run, want in zip(runs, golden):
        assert run == want, f"{run['command']}: stdout or exit code changed"


GOLDEN_SCATTERED = os.path.join(os.path.dirname(__file__), "golden_scattered_core.json")

# G(10, 0.45) at random.Random(0) with every vertex b blown up into the
# independent twins 2b and 2b+1; all 20 vertices have even degree.
SCATTERED_BASE_EDGES = [
    (0, 3), (0, 4), (0, 6), (0, 8), (1, 5), (1, 8), (2, 6), (3, 5),
    (3, 6), (4, 7), (5, 6), (5, 8), (6, 8), (7, 9), (8, 9),
]


def _scattered_core_invocations(tmp_path, capsys) -> list[list[str]]:
    """``--json`` runs on two cores of even twin representatives, whose ids
    are not their core positions: the first core absorbs (exit 0), the second
    gives a parity cut (exit 1).  Each certificate is then re-verified."""
    edges = [(a, b) for u, v in SCATTERED_BASE_EDGES for a in (2 * u, 2 * u + 1) for b in (2 * v, 2 * v + 1)]
    graph_file = _write_graph_file(tmp_path / "scattered.txt", Graph.from_edges(20, edges))
    base = [graph_file, "--json", "--witness", ",".join(map(str, range(20)))]
    invocations = []
    for label, core in (("deletion", "10,12,14,16,18"), ("cut", "6,8,10,16,18")):
        sets = base + ["--core", core]
        cert_file = tmp_path / f"{label}.json"
        main(["absorb"] + sets + ["--q", "2"])
        cert_file.write_text(capsys.readouterr().out, encoding="utf-8")
        invocations += [
            ["absorb"] + sets + ["--q", "2"],
            ["traces"] + sets,
            ["next-bit"] + sets,
            ["pair-trace"] + sets + ["--q", "2"],
            ["verify-cert"] + sets + ["--q", "2", "--certificate", str(cert_file)],
        ]
    return invocations


def test_scattered_core_golden_stdout(tmp_path, capsys):
    """Runs on cores whose vertex ids differ from their core positions keep
    the exact stdout and exit code recorded in ``golden_scattered_core.json``."""
    runs = []
    for argv in _scattered_core_invocations(tmp_path, capsys):
        code = main(argv)
        runs.append({"command": argv[0], "exit": code, "stdout": capsys.readouterr().out})
    with open(GOLDEN_SCATTERED, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert [(run["command"], run["exit"]) for run in runs] == [(run["command"], run["exit"]) for run in golden]
    for run, want in zip(runs, golden):
        assert run == want, f"{run['command']}: stdout or exit code changed"


GOLDEN_RESERVOIR = os.path.join(os.path.dirname(__file__), "golden_reservoir.json")


def test_reservoir_golden_stdout(capsys):
    """``reservoir`` runs with failing trials, failing trials whose available
    traces do not span, a one-vertex core and cores of 8 and 9 vertices (the
    last byte-wide draws and the first wider ones) keep the exact stdout and
    exit code recorded in ``golden_reservoir.json``."""
    with open(GOLDEN_RESERVOIR, encoding="utf-8") as handle:
        golden = json.load(handle)
    for want in golden:
        code = main(want["argv"])
        run = {"argv": want["argv"], "exit": code, "stdout": capsys.readouterr().out}
        assert run == want, f"{' '.join(want['argv'])}: stdout or exit code changed"
