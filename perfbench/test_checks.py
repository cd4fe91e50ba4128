"""Toy-size tests of the benchmark's own checkers, judge and tracer.

Run from the repository root with ``python3 -m pytest perfbench``.  Genuine
outputs come from ``modcert.cli.main`` on tiny generated graphs; each checker
must accept them and flag a hand-broken copy.
"""

from __future__ import annotations

import copy
import io
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def cli(argv) -> tuple[int, dict]:
    import modcert.cli

    out = io.StringIO()
    with redirect_stdout(out):
        code = modcert.cli.main(argv)
    return code, json.loads(out.getvalue())


def write_graph(tmp_path, adj, name="g.txt") -> str:
    path = str(tmp_path / name)
    workloads._write_edge_list(path, adj)
    return path


def path_graph(n):
    return workloads._symmetrize([(1 << (u + 1)) if u + 1 < n else 0 for u in range(n)])


def test_generators_are_seeded_and_simple():
    a = workloads.gnp(40, 0.2, random.Random(3))
    assert a == workloads.gnp(40, 0.2, random.Random(3))
    assert all(not mask >> v & 1 for v, mask in enumerate(a))
    assert all((a[u] >> v & 1) == (a[v] >> u & 1) for u in range(40) for v in range(40))
    twins = workloads.twin_blowup(a)
    assert len(twins) == 80 and twins[0] == twins[1]
    assert all(mask.bit_count() == 2 * a[v // 2].bit_count() for v, mask in enumerate(twins))
    assert [workloads.uniform_sample_size(m, q, 0.1) for m, q, _ in workloads.RESERVOIR_CONFIGS] \
        == [192, 436, 436, 2003]


def test_edge_list_round_trip(tmp_path):
    adj = workloads.gnp_half(30, random.Random(1))
    path = write_graph(tmp_path, adj)
    with open(path) as handle:
        lines = handle.read().split("\n")
    assert lines[0] == "n 30"
    assert len([line for line in lines[1:] if line]) == sum(m.bit_count() for m in adj) // 2


def test_check_parity_flags_broken_parts(tmp_path):
    adj = workloads.gnp_half(25, random.Random(2))
    code, payload = cli(["parity", write_graph(tmp_path, adj), "--json"])
    assert code == 0 and checks.check_parity(payload, adj) is None
    odd = path_graph(3)
    good = {"n": 3, "part0": ["0", "2"], "part1": ["1"], "larger_size": 2, "verified": True}
    assert checks.check_parity(good, odd) is None
    assert "odd degree" in checks.check_parity({**good, "part0": ["0", "1"], "part1": ["2"]}, odd)
    assert "partition" in checks.check_parity({**good, "part1": []}, odd)
    assert "larger_size" in checks.check_parity({**good, "larger_size": 3}, odd)


def test_twin_classes_and_check_nd(tmp_path):
    # Star with centre 0 (leaves are false twins) plus a triangle 4-5-6 with
    # pendant 7 at 4 (5 and 6 are true twins).
    edges = [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (5, 6), (4, 7)]
    adj = [0] * 8
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    expected = {frozenset({0}), frozenset({1, 2, 3}), frozenset({4}), frozenset({5, 6}), frozenset({7})}
    assert checks.twin_classes(adj) == expected
    code, payload = cli(["nd", write_graph(tmp_path, adj), "--json"])
    assert code == 0 and checks.check_nd(payload, expected) is None
    split = copy.deepcopy(payload)
    split["classes"] = [c for c in split["classes"] if len(c) < 3] + [["1", "2"], ["3"]]
    split["t"] = len(split["classes"])
    assert checks.check_nd(split, expected) is not None
    assert checks.check_nd({**payload, "t": 4}, expected) is not None


def toy_certificates(tmp_path):
    """A genuine deletion certificate and a genuine parity cut on twin blow-ups."""
    found = {}
    for seed in range(200):
        adj = workloads.twin_blowup(workloads.gnp(14, 0.4, random.Random(seed)))
        path = write_graph(tmp_path, adj, f"t{seed}.txt")
        core_size = 3 if "deletion" not in found else 9
        core = sorted(2 * b for b in random.Random(seed).sample(range(14), core_size))
        args = ["--witness", ",".join(map(str, range(len(adj)))),
                "--core", ",".join(map(str, core)), "--q", "2"]
        code, payload = cli(["absorb", path, *args, "--json"])
        problem = checks.Problem(adj, range(len(adj)), core, 2)
        kind = payload["kind"]
        if kind not in found and (kind == "parity-cut" or payload["chosen_traces"]):
            found[kind] = (code, payload, problem, path, args)
        if len(found) == 2:
            return found
    raise AssertionError("no toy instance for both branches")


def test_check_certificate_accepts_genuine_and_flags_every_tamper(tmp_path):
    for kind, (code, payload, problem, _, _) in toy_certificates(tmp_path).items():
        assert checks.check_certificate(payload, code, problem) is None, kind
        mutants = checks.tamper_set(payload)
        assert len(mutants) == run.TAMPERS_PER_CERT
        for label, mutant in mutants:
            assert mutant != payload
            assert checks.check_certificate(mutant, code, problem) is not None, (kind, label)
        assert checks.check_certificate(payload, 1 - code, problem) is not None


def test_check_certificate_flags_hand_broken_deletions(tmp_path):
    code, payload, problem, _, _ = toy_certificates(tmp_path)["deletion"]
    broken = copy.deepcopy(payload)
    broken["chosen_traces"][0]["deleted_vertices"].pop()
    assert "q-tuple" in checks.check_certificate(broken, code, problem)
    broken = copy.deepcopy(payload)
    broken["chosen_traces"].pop(0)
    assert checks.check_certificate(broken, code, problem) is not None
    core_vertex = payload["core"][0]
    broken = copy.deepcopy(payload)
    broken["chosen_traces"][0]["deleted_vertices"][0] = core_vertex
    assert "tail" in checks.check_certificate(broken, code, problem)


def test_check_reservoir_flags_wrong_streams():
    spec = (4, 2, 60, 40, 9)
    expected = checks.reservoir_expected(*spec)
    code, payload = cli(["reservoir", "--m", "4", "--q", "2", "--samples", "60", "--trials", "40",
                         "--seed", "9", "--json"])
    assert code == 0 and checks.check_reservoir(payload, *spec, expected) is None
    bits = payload["per_trial_failures"]
    flipped = bits[:-1] + ("0" if bits[-1] == "1" else "1")
    assert "per_trial" in checks.check_reservoir({**payload, "per_trial_failures": flipped}, *spec, expected)
    assert "rank_rich" in checks.check_reservoir(
        {**payload, "rank_rich_fraction": payload["rank_rich_fraction"] + 0.025}, *spec, expected)
    assert "spec" in checks.check_reservoir(payload, 4, 2, 60, 40, 10, expected)


def outcome(stdout=b"{}", code=0, stderr=""):
    return run.Outcome(exit=code, stdout=stdout, stderr=stderr, wall=0.1, cpu=0.1)


def test_judge_counts_each_failure_kind():
    op = run.Op("nd", ["nd"], lambda payload, code: None if payload == {"ok": 1} else "wrong")
    tally = run.Tally()
    run.judge(0, op, outcome(b'{"ok": 1}'), tally)
    run.judge(0, op, outcome(b'{"ok": 1} '), tally)
    run.judge(0, op, outcome(b'{"ok": 1}', code=9), tally)
    run.judge(0, op, outcome(b'{"ok": 1}', stderr="Traceback (most recent call last):\n"), tally)
    run.judge(1, op, outcome(b'{"ok": 2}'), tally)
    run.judge(2, op, outcome(b"not json"), tally)
    assert tally.attempted == 6
    assert [reason.split(": ", 1)[1].split(":")[0] for reason in tally.failures] == [
        "stdout differs across repeats", "exit code 9", "traceback on stderr", "wrong", "JSONDecodeError"]
    probe = run.Op("verify_tampered", ["verify-cert"], None)
    for index, result in enumerate([outcome(), outcome(code=1), outcome(code=1, stderr="Traceback (most "
                                                                           "recent call last):")]):
        run.judge(10 + index, probe, result, tally)
    assert sorted(tally.tamper.values()) == ["accepted", "rejected", "traceback"]
    assert tally.attempted == 6


def test_tracer_links_parents_and_restores(tmp_path):
    import modcert.cli
    import modcert.graph

    original = modcert.graph.load_graph
    path = write_graph(tmp_path, path_graph(6))
    tracer = Tracer()
    tracer.install()
    try:
        assert modcert.cli.load_graph is not original
        with redirect_stdout(io.StringIO()):
            assert modcert.cli.main(["nd", path, "--json"]) == 0
    finally:
        tracer.uninstall()
    assert modcert.cli.load_graph is original and modcert.graph.load_graph is original
    by_id = {span[0]: span for span in tracer.spans}
    names = {span[2]: span for span in tracer.spans}
    assert names["cli.main"][1] is None
    assert by_id[names["graph.load_graph"][1]][2] == "cli.main"
    assert by_id[names["graph.Graph.from_edges"][1]][2] == "graph.load_graph"
    assert by_id[names["traces.neighborhood_diversity"][1]][2] == "cli.main"
    assert tracer.counts["graph.edges"] == 5 and tracer.counts["traces.nd_classes"] == 6
    for name, total in tracer.total.items():
        assert 0 <= tracer.self_time[name] <= total + 1e-9


def test_missing_function_is_reported_not_fatal(monkeypatch, tmp_path):
    import modcert.gf2

    monkeypatch.delattr(modcert.gf2, "mat_vec")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "gf2.mat_vec" in tracer.missing(run.LAYER_METRICS)
    assert "gf2.solve_or_dual" not in tracer.missing(run.LAYER_METRICS)
    values = run.layer_values(tracer, 0)
    assert values["gf2.mat_vec_s"] == 0.0


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    result = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense-2k", "--seed", "1",
                             "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode != 0 and result.stdout == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_setup_is_deterministic(tmp_path, workload):
    first = workloads.build(workload, 5, str(tmp_path / "a"))
    second = workloads.build(workload, 5, str(tmp_path / "b"))
    assert first.reservoir == second.reservoir
    assert [c.core for c in first.cores] == [c.core for c in second.cores]
    if first.graph:
        assert first.graph.adj == second.graph.adj
