import json
import os
import subprocess
import sys

import pytest

from modcert.cli import main
from modcert.graph import Graph
from modcert.parity import verify_even_partition
from synth import path_pair_trace_problem, realize_problem

from conftest import complete_bipartite, cycle, edges_of

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def edge_list_text(graph: Graph) -> str:
    lines = [f"n {graph.n}"]
    lines += [f"{u} {v}" for u, v in edges_of(graph)]
    return "\n".join(lines) + "\n"


def write_graph(tmp_path, graph: Graph, name="graph.txt") -> str:
    target = tmp_path / name
    target.write_text(edge_list_text(graph), encoding="utf-8")
    return str(target)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def names(ids) -> str:
    return ",".join(str(v) for v in ids)


class TestParity:
    def test_single_edge(self, tmp_path, capsys):
        target = write_graph(tmp_path, Graph.from_edges(2, [(0, 1)]))
        code, out, _ = run_cli(capsys, ["parity", target, "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["verified"] is True
        assert sorted(len(p) for p in (payload["part0"], payload["part1"])) == [1, 1]

    def test_all_even_graph(self, tmp_path, capsys):
        target = write_graph(tmp_path, cycle(4))
        code, out, _ = run_cli(capsys, ["parity", target, "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["part1"] == []
        assert payload["larger_size"] == 4

    def test_fifty_vertex_random_graph(self, tmp_path, capsys):
        import random

        from conftest import random_graph

        g = random_graph(50, 0.3, random.Random(505))
        target = write_graph(tmp_path, g)
        code, out, _ = run_cli(capsys, ["parity", target, "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["verified"] is True
        assert payload["larger_size"] >= 25

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["parity", str(bad)])
        assert code == 2
        assert "self-loop" in err

    def test_one_check_from_the_graph(self, tmp_path, capsys, monkeypatch):
        # The parts are checked once, by verify_even_partition; L c = d is not
        # re-multiplied on top.  Every module binding either name is spied on.
        import modcert.cli
        import modcert.gf2
        import modcert.parity

        calls = {"verify_even_partition": 0, "mat_vec": 0}
        for module in (modcert.gf2, modcert.parity, modcert.cli):
            for name in calls:
                real = getattr(module, name, None)
                if real is None:
                    continue

                def spy(*args, real=real, name=name):
                    calls[name] += 1
                    return real(*args)

                monkeypatch.setattr(module, name, spy)
        code, out, err = run_cli(capsys, ["parity", write_graph(tmp_path, complete_bipartite(2, 3)), "--json"])
        assert code == 0, err
        assert json.loads(out)["verified"] is True
        assert calls == {"verify_even_partition": 1, "mat_vec": 0}

    def test_uneven_part_exit_three(self, tmp_path, capsys, monkeypatch):
        import modcert.parity
        from modcert.gf2 import BitVector, Solution

        # c = 0 puts both ends of the edge in part0, where each has degree 1.
        monkeypatch.setattr(modcert.parity, "solve_or_dual",
                            lambda matrix, target: Solution(BitVector(matrix.cols)))
        target = write_graph(tmp_path, Graph.from_edges(2, [(0, 1)]))
        code, out, err = run_cli(capsys, ["parity", target, "--json"])
        assert (code, out, err) == (3, "", "internal error: parity partition failed verification\n")


class TestAbsorb:
    def test_deletion_certificate_exit_zero(self, tmp_path, capsys):
        problem = path_pair_trace_problem(2)
        target = write_graph(tmp_path, problem.graph)
        code, out, _ = run_cli(capsys, [
            "absorb", target, "--json",
            "--core", names(problem.core),
            "--witness", names(sorted(problem.witness.members)),
            "--q", "2",
        ])
        payload = json.loads(out)
        assert code == 0
        assert payload["kind"] == "deletion"
        assert payload["verified"] is True
        assert [entry["trace"] for entry in payload["chosen_traces"]] == [["0", "1"], ["1", "2"]]

    def test_parity_cut_exit_one(self, tmp_path, capsys):
        problem = realize_problem(4, 2, [0b0011, 0b1100], 0b0001)
        target = write_graph(tmp_path, problem.graph)
        code, out, _ = run_cli(capsys, [
            "absorb", target, "--json",
            "--core", names(problem.core),
            "--witness", names(sorted(problem.witness.members)),
            "--q", "2",
        ])
        payload = json.loads(out)
        assert code == 1
        assert payload["kind"] == "parity-cut"
        assert payload["parity_cut_Y"]

    def test_core_outside_witness_exit_two(self, tmp_path, capsys):
        problem = path_pair_trace_problem(2)
        target = write_graph(tmp_path, problem.graph)
        code, _, err = run_cli(capsys, [
            "absorb", target,
            "--core", names(problem.core),
            "--witness", names(problem.core[:2]),
            "--q", "2",
        ])
        assert code == 2
        assert "subset" in err

    def test_non_modular_witness_exit_two(self, tmp_path, capsys):
        target = write_graph(tmp_path, Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        code, _, err = run_cli(capsys, [
            "absorb", target, "--core", "0", "--witness", "0,1,2,3", "--q", "2",
        ])
        assert code == 2
        assert "not 2-modular" in err

    def test_modulus_not_a_power_of_two_exit_two(self, tmp_path, capsys):
        target = write_graph(tmp_path, cycle(4))
        runs = [
            run_cli(capsys, ["absorb", target, "--core", "0,1", "--witness", "0,1,2,3", "--q", "6"]),
            run_cli(capsys, ["reservoir", "--m", "3", "--q", "6", "--samples", "8", "--seed", "1"]),
        ]
        assert runs == [(2, "", "error: q must be a positive power of two, got 6\n")] * 2
        pair_trace = run_cli(capsys, ["pair-trace", target, "--core", "0,1", "--witness", "0,1,2,3", "--q", "3"])
        assert pair_trace == (2, "", "error: q must be a positive power of two, got 3\n")


def _absorb_args(target, problem) -> list[str]:
    return ["absorb", target, "--json", "--core", names(problem.core),
            "--witness", names(sorted(problem.witness.members)), "--q", str(problem.q)]


DELETION_PROBLEM = path_pair_trace_problem(2)
CUT_PROBLEM = realize_problem(4, 2, [0b0011, 0b1100], 0b0001)


class TestAbsorbChecksOnce:
    @pytest.mark.parametrize("problem, expected_code", [(DELETION_PROBLEM, 0), (CUT_PROBLEM, 1)])
    def test_one_check_per_emitted_certificate(self, tmp_path, capsys, monkeypatch, problem, expected_code):
        import modcert.absorb

        # The public checks count too: the solve must not call them on top.
        calls = {"_failure": 0, "verify_deletion_certificate": 0, "verify_parity_cut": 0}
        for name in calls:
            real = getattr(modcert.absorb, name, None)
            if real is None:
                continue

            def spy(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(modcert.absorb, name, spy)
        code, out, err = run_cli(capsys, _absorb_args(write_graph(tmp_path, problem.graph), problem))
        assert code == expected_code, err
        assert json.loads(out)["verified"] is True
        assert calls == {"_failure": 1, "verify_deletion_certificate": 0, "verify_parity_cut": 0}

    @pytest.mark.parametrize("problem", [DELETION_PROBLEM, CUT_PROBLEM], ids=["deletion", "cut"])
    @pytest.mark.parametrize("flag", ["--json", None])
    def test_payload_serialized_once(self, tmp_path, capsys, monkeypatch, problem, flag):
        # The human lines embed the payload's JSON; a --json run must not build them.
        dumps = json.dumps
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return dumps(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", spy)
        argv = [arg for arg in _absorb_args(write_graph(tmp_path, problem.graph), problem) if arg != "--json"]
        code, out, err = run_cli(capsys, argv + ([flag] if flag else []))
        assert code in (0, 1), err
        assert len(calls) == 1
        assert json.loads(out if flag else out.split("\n", 1)[1])["verified"] is True

    @pytest.mark.parametrize("problem, outcome_type, field, message", [
        (DELETION_PROBLEM, "Solution", "x", "core residues differ after the deletion"),
        (CUT_PROBLEM, "Dual", "y", "parity cut fails to detect the defect"),
    ])
    def test_wrong_solve_exit_three(self, tmp_path, capsys, monkeypatch,
                                    problem, outcome_type, field, message):
        import modcert.absorb
        from modcert.gf2 import BitVector

        real = modcert.absorb.solve_or_dual

        def flipped(matrix, target):
            outcome = real(matrix, target)
            assert type(outcome).__name__ == outcome_type
            # The last coordinate: in the deletion case it is a trace of nonzero class.
            vector = getattr(outcome, field)
            flipped_bits = vector.bits ^ 1 << (vector.length - 1)
            return outcome._replace(**{field: BitVector(vector.length, flipped_bits)})

        monkeypatch.setattr(modcert.absorb, "solve_or_dual", flipped)
        code, out, err = run_cli(capsys, _absorb_args(write_graph(tmp_path, problem.graph), problem))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("internal error: ")
        assert message in err

    def test_cut_is_checked_from_the_graph(self, tmp_path, capsys, monkeypatch):
        # A grouping defect that the solve and a table-reading check would share:
        # every trace loses its last realizer, so each pair trace falls below
        # q = 2 and the solve returns a cut that the graph refutes.
        import modcert.absorb
        from modcert.traces import compute_traces

        def lossy(*args):
            table = compute_traces(*args)
            return table._replace(entries={mask: found[:-1] for mask, found in table.entries.items()})

        monkeypatch.setattr(modcert.absorb, "compute_traces", lossy)
        code, out, err = run_cli(capsys, _absorb_args(write_graph(tmp_path, DELETION_PROBLEM.graph),
                                                      DELETION_PROBLEM))
        assert (code, out, err) == (3, "", "internal error: parity cut meets an available trace oddly\n")


class TestAnalysisCommands:
    def test_check_modular(self, tmp_path, capsys):
        target = write_graph(tmp_path, cycle(5))
        code, out, _ = run_cli(capsys, [
            "check-modular", target, "--json", "--witness", "0,1,2,3,4", "--q", "1000",
        ])
        payload = json.loads(out)
        assert code == 0
        assert payload == {
            "command": "check-modular", "q": 1000, "modular": True,
            "residue": 2, "conflict": None,
        }

    def test_check_modular_takes_any_modulus(self, tmp_path, capsys):
        # Only the dyadic steps need a power of two; the help must not claim otherwise.
        with pytest.raises(SystemExit) as stop:
            main(["check-modular", "--help"])
        help_text = capsys.readouterr().out
        assert stop.value.code == 0
        assert "power of two" not in help_text and "modulus (any q >= 1)" in help_text
        code, out, err = run_cli(capsys, ["check-modular", write_graph(tmp_path, cycle(4)),
                                          "--witness", "0,1,2,3", "--q", "3"])
        assert (code, out, err) == (0, "3-modular: True, residue 2\n", "")

    def test_traces_and_next_bit(self, tmp_path, capsys):
        fixture = tmp_path / "cancelling.txt"
        fixture.write_text("x 1\ny 2\ny 3\ny 4\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, [
            "traces", str(fixture), "--json",
            "--core", "1,2,3,4", "--witness", "1,2,3,4,x,y",
        ])
        payload = json.loads(out)
        assert code == 0
        assert payload["tail_neighbor_counts"] == [1, 1, 1, 1]
        assert {tuple(e["trace"]): e["count"] for e in payload["entries"]} == {
            ("1",): 1, ("2", "3", "4"): 1,
        }

        code, out, _ = run_cli(capsys, [
            "next-bit", str(fixture), "--json",
            "--core", "1,2,3,4", "--witness", "1,2,3,4,x,y",
        ])
        payload = json.loads(out)
        assert code == 0
        assert all(r["defined"] and r["zero"] for r in payload["results"])

    def test_pair_trace(self, tmp_path, capsys):
        problem = path_pair_trace_problem(2)
        target = write_graph(tmp_path, problem.graph)
        code, out, _ = run_cli(capsys, [
            "pair-trace", target, "--json",
            "--core", names(problem.core),
            "--witness", names(sorted(problem.witness.members)),
            "--q", "2",
        ])
        payload = json.loads(out)
        assert code == 0
        assert payload["connected"] is True
        assert payload["applies"] is True
        assert ["0", "1"] in payload["edges"]

    def test_nd_complete_bipartite(self, tmp_path, capsys):
        target = write_graph(tmp_path, complete_bipartite(3, 3))
        code, out, _ = run_cli(capsys, ["nd", target, "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["t"] == 2

    def test_oracle_f(self, tmp_path, capsys):
        target = write_graph(tmp_path, cycle(5))
        code, out, _ = run_cli(capsys, ["oracle-f", target, "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["f"] == 5

    def test_oracle_absorb_exit_codes(self, tmp_path, capsys):
        solvable = path_pair_trace_problem(2)
        target = write_graph(tmp_path, solvable.graph)
        code, out, _ = run_cli(capsys, [
            "oracle-absorb", target, "--json",
            "--core", names(solvable.core),
            "--witness", names(sorted(solvable.witness.members)),
            "--q", "2",
        ])
        assert code == 0
        assert json.loads(out)["exists"] is True

        unsolvable = realize_problem(4, 2, [0b0011, 0b1100], 0b0001)
        target = write_graph(tmp_path, unsolvable.graph, name="unsolvable.txt")
        code, out, _ = run_cli(capsys, [
            "oracle-absorb", target, "--json",
            "--core", names(unsolvable.core),
            "--witness", names(sorted(unsolvable.witness.members)),
            "--q", "2",
        ])
        assert code == 1
        assert json.loads(out)["exists"] is False


class TestReservoirCommand:
    def test_requires_seed(self, capsys):
        with pytest.raises(SystemExit):
            main(["reservoir", "--m", "3", "--q", "2", "--samples", "64"])

    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, [
            "reservoir", "--json", "--m", "3", "--q", "2",
            "--samples", "64", "--trials", "20", "--seed", "11",
        ])
        payload = json.loads(out)
        assert code == 0
        assert payload["rng"] == "mt19937"
        assert len(payload["per_trial_failures"]) == 20

    def test_negative_seed_exit_two(self, capsys):
        code, out, err = run_cli(capsys, ["reservoir", "--m", "3", "--q", "2", "--samples", "64", "--seed", "-1"])
        assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")


class TestLadderBudget:
    def test_unit_constants(self, capsys):
        code, out, _ = run_cli(capsys, [
            "ladder-budget", "--json", "--C", "1", "--a", "0", "--C0", "1", "--r", "3",
        ])
        payload = json.loads(out)
        assert code == 0
        assert payload["budget"] == 16.0
        assert payload["log2"] == 4.0

    def test_growth_with_constants(self, capsys):
        code, out, _ = run_cli(capsys, [
            "ladder-budget", "--json", "--C", "2", "--a", "1", "--C0", "3", "--r", "5",
        ])
        payload = json.loads(out)
        assert code == 0
        # 2 * 3 * prod_{j=2..4} (2 * 2^j) * 2^5 = 6 * (8*16*32) * 32.
        assert payload["budget"] == pytest.approx(6 * 8 * 16 * 32 * 32)

    @pytest.mark.parametrize("flag, value, message", [
        ("--C", "nan", "--C must be finite"),
        ("--a", "inf", "--a must be finite"),
        ("--C0", "-inf", "--C0 must be finite"),
        ("--C", "0", "must be positive"),
        ("--C0", "-1", "must be positive"),
        ("--r", "-5", "--r must be nonnegative"),
        ("--a", "-1e308", "overflows"),
    ])
    def test_bad_numbers_exit_two(self, capsys, flag, value, message):
        argv = {"--C": "1", "--a": "1", "--C0": "1", "--r": "3"}
        argv[flag] = value
        code, out, err = run_cli(capsys, ["ladder-budget", "--json",
                                          *(f"{key}={number}" for key, number in argv.items())])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err

    def test_budget_beyond_float_range_is_null(self, capsys):
        code, out, _ = run_cli(capsys, [
            "ladder-budget", "--json", "--C", "2", "--a", "100", "--C0", "1", "--r", "10",
        ])
        payload = json.loads(out)
        assert code == 0
        assert payload["budget"] is None
        assert payload["log2"] == 1.0 + 10 + 8 * 1.0 + sum(range(2, 10)) * 100.0
        assert "Infinity" not in out and "NaN" not in out

    def test_huge_ladder_in_closed_form(self, capsys):
        r = 10**9
        code, out, _ = run_cli(capsys, [
            "ladder-budget", "--json", "--C", "2", "--a", "1", "--C0", "1", "--r", str(r),
        ])
        payload = json.loads(out)
        assert code == 0
        assert payload["budget"] is None
        # 1 + log2(C0) + r + (r - 2) log2(C) + a ((r - 1) r / 2 - 1), summed exactly.
        assert payload["log2"] == pytest.approx(1 + r + (r - 2) + ((r - 1) * r // 2 - 1), rel=1e-15)

    def test_ladder_too_long_for_a_float_exits_two(self, capsys):
        code, out, err = run_cli(capsys, [
            "ladder-budget", "--json", "--C", "2", "--a", "1", "--C0", "1", "--r", str(10**400),
        ])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "overflows" in err


class TestVerifyCert:
    def test_round_trip(self, tmp_path, capsys):
        problem = path_pair_trace_problem(2)
        target = write_graph(tmp_path, problem.graph)
        args = [
            "--core", names(problem.core),
            "--witness", names(sorted(problem.witness.members)),
            "--q", "2",
        ]
        code, out, _ = run_cli(capsys, ["absorb", target, "--json"] + args)
        assert code == 0
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(out, encoding="utf-8")
        code, out, _ = run_cli(capsys, [
            "verify-cert", target, "--json", "--certificate", str(cert_path),
        ] + args)
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_certificate_with_byte_order_mark_verifies(self, tmp_path, capsys):
        target = write_graph(tmp_path, cycle(4))
        args = ["--core", "0,1", "--witness", "0,1,2,3", "--q", "2"]
        code, out, _ = run_cli(capsys, ["absorb", target, "--json"] + args)
        assert code == 0
        runs = []
        for name, data in (("plain.json", out.encode("utf-8")), ("bom.json", b"\xef\xbb\xbf" + out.encode("utf-8"))):
            cert_path = tmp_path / name
            cert_path.write_bytes(data)
            runs.append(run_cli(capsys, ["verify-cert", target, "--json", "--certificate", str(cert_path)] + args))
        assert runs[0] == runs[1]
        code, out, err = runs[1]
        assert code == 0, err
        assert json.loads(out)["valid"] is True

    def test_tampered_certificate_rejected(self, tmp_path, capsys):
        problem = path_pair_trace_problem(2)
        target = write_graph(tmp_path, problem.graph)
        args = [
            "--core", names(problem.core),
            "--witness", names(sorted(problem.witness.members)),
            "--q", "2",
        ]
        code, out, _ = run_cli(capsys, ["absorb", target, "--json"] + args)
        payload = json.loads(out)
        payload["chosen_traces"] = payload["chosen_traces"][:1]
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run_cli(capsys, [
            "verify-cert", target, "--json", "--certificate", str(cert_path),
        ] + args)
        assert code == 1
        assert json.loads(out)["valid"] is False


def _certificate_args(problem) -> list[str]:
    return [
        "--core", names(problem.core),
        "--witness", names(sorted(problem.witness.members)),
        "--q", str(problem.q),
    ]


def _without(key):
    return lambda c: {k: v for k, v in c.items() if k != key}


def _with(key, value):
    return lambda c: {**c, key: value}


def _with_entry(edit):
    return lambda c: {**c, "chosen_traces": [edit(c["chosen_traces"][0])] + c["chosen_traces"][1:]}


def _repeated(key):
    return lambda c: {**c, key: c[key] + c[key][:1]}


MALFORMED_CERTIFICATES = [
    ("top-level-list", "deletion", lambda c: [c], "must be a JSON object"),
    ("no-q", "deletion", _without("q"), "needs an integer 'q'"),
    ("cut-no-q", "parity-cut", _without("q"), "needs an integer 'q'"),
    ("string-q", "deletion", _with("q", "2"), "needs an integer 'q'"),
    ("null-d", "deletion", _with("d", None), "needs an integer 'd'"),
    ("bool-d", "deletion", _with("d", True), "needs an integer 'd'"),
    ("no-core", "deletion", _without("core"), "vertex names in 'core'"),
    ("nested-core", "deletion", _with("core", [["1"]]), "vertex names in 'core'"),
    ("no-kind", "deletion", _without("kind"), "needs a string 'kind'"),
    ("list-kind", "parity-cut", _with("kind", ["parity-cut"]), "needs a string 'kind'"),
    ("object-traces", "deletion", _with("chosen_traces", {"trace": []}),
     "list of objects in 'chosen_traces'"),
    ("list-entry", "deletion", lambda c: {**c, "chosen_traces": c["chosen_traces"] + [["1"]]},
     "list of objects in 'chosen_traces'"),
    ("string-trace", "deletion", _with_entry(_with("trace", "1,2")), "vertex names in 'trace'"),
    ("no-deleted", "deletion", _with_entry(_without("deleted_vertices")),
     "vertex names in 'deleted_vertices'"),
    ("list-residue", "deletion", _with("residue_achieved", [0]), "needs an integer 'residue_achieved'"),
    ("object-cut", "parity-cut", _with("parity_cut_Y", {"1": 1}), "vertex names in 'parity_cut_Y'"),
    ("no-cut", "parity-cut", _without("parity_cut_Y"), "vertex names in 'parity_cut_Y'"),
    # A list read as a set would let a repeat pass: a genuine cut listing its
    # members twice was valid, and a repeated trace member made it invalid.
    ("repeated-core", "deletion", _repeated("core"), "repeats a vertex name in 'core'"),
    ("repeated-trace", "deletion", _with_entry(_repeated("trace")), "repeats a vertex name in 'trace'"),
    ("repeated-deleted", "deletion", _with_entry(_repeated("deleted_vertices")),
     "repeats a vertex name in 'deleted_vertices'"),
    ("repeated-cut", "parity-cut", lambda c: {**c, "parity_cut_Y": c["parity_cut_Y"] * 2},
     "repeats a vertex name in 'parity_cut_Y'"),
]


@pytest.mark.parametrize("kind,edit,message", [case[1:] for case in MALFORMED_CERTIFICATES],
                         ids=[case[0] for case in MALFORMED_CERTIFICATES])
def test_malformed_certificate_exit_two(tmp_path, capsys, kind, edit, message):
    if kind == "deletion":
        problem = path_pair_trace_problem(2)
    else:
        problem = realize_problem(4, 2, [0b0011, 0b1100], 0b0001)
    target = write_graph(tmp_path, problem.graph)
    args = _certificate_args(problem)
    _, out, _ = run_cli(capsys, ["absorb", target, "--json"] + args)
    payload = json.loads(out)
    assert payload["kind"] == kind
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(edit(payload)), encoding="utf-8")
    code, out, err = run_cli(capsys, ["verify-cert", target, "--json",
                                      "--certificate", str(cert_path)] + args)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, '{"a": ' * 3000 + "1" + "}" * 3000],
                         ids=["array", "object"])
def test_deeply_nested_certificate_exit_two(tmp_path, capsys, text):
    # The decoder recurses once per level, so deep nesting is malformed input,
    # not a defect of the program.
    problem = path_pair_trace_problem(2)
    target = write_graph(tmp_path, problem.graph)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, ["verify-cert", target, "--json", "--certificate", str(cert_path)]
                             + _certificate_args(problem))
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def _popped(key):
    return lambda c: {**c, key: c[key][1:]}


def _first_trace_popped(c):
    index = next(i for i, entry in enumerate(c["chosen_traces"]) if entry["trace"])
    entry = c["chosen_traces"][index]
    traces = list(c["chosen_traces"])
    traces[index] = {**entry, "trace": entry["trace"][1:]}
    return {**c, "chosen_traces": traces}


# Each edit makes one false claim; a wrong q, d or core is invalid input (exit
# 2), any other false claim an invalid certificate (exit 1).
TAMPERED_CERTIFICATES = [
    ("residue", "deletion",
     lambda c: {**c, "residue_achieved": (c["residue_achieved"] + 1) % (2 * c["q"])}, 1),
    ("d+1", "deletion", lambda c: {**c, "d": c["d"] + 1}, 2),
    ("trace", "deletion", _first_trace_popped, 1),
    ("deletion-2q", "deletion", lambda c: {**c, "q": 2 * c["q"]}, 2),
    ("deletion-core", "deletion", _popped("core"), 2),
    ("genuine-cut", "parity-cut", lambda c: c, 0),
    ("2q", "parity-cut", lambda c: {**c, "q": 2 * c["q"]}, 2),
    ("cut-d+1", "parity-cut", lambda c: {**c, "d": c["d"] + 1}, 2),
    ("core", "parity-cut", _popped("core"), 2),
    ("cut", "parity-cut", _popped("parity_cut_Y"), 1),
]


@pytest.mark.parametrize("kind,edit,expected", [case[1:] for case in TAMPERED_CERTIFICATES],
                         ids=[case[0] for case in TAMPERED_CERTIFICATES])
def test_tampered_certificate_exit_code(tmp_path, capsys, kind, edit, expected):
    if kind == "deletion":
        problem = path_pair_trace_problem(2)
    else:
        problem = realize_problem(4, 2, [0b0011, 0b1100], 0b0001)
    target = write_graph(tmp_path, problem.graph)
    args = _certificate_args(problem)
    _, out, _ = run_cli(capsys, ["absorb", target, "--json"] + args)
    payload = json.loads(out)
    assert payload["kind"] == kind
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(edit(payload)), encoding="utf-8")
    code, out, err = run_cli(capsys, ["verify-cert", target, "--json",
                                      "--certificate", str(cert_path)] + args)
    assert code == expected
    assert "Traceback" not in err
    if expected == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == "" and json.loads(out)["valid"] is (expected == 0)


class TestFormats:
    def test_dimacs_input(self, tmp_path, capsys):
        target = tmp_path / "c5.col"
        target.write_text(
            "c cycle\np edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, [
            "oracle-f", str(target), "--json", "--format", "dimacs",
        ])
        payload = json.loads(out)
        assert code == 0
        assert payload["f"] == 5
        assert payload["witness"] == ["1", "2", "3", "4", "5"]

    def test_named_vertices_round_trip(self, tmp_path, capsys):
        target = tmp_path / "named.txt"
        target.write_text("alpha beta\nbeta gamma\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, ["parity", str(target), "--json"])
        payload = json.loads(out)
        assert code == 0
        assert set(payload["part0"]) | set(payload["part1"]) == {"alpha", "beta", "gamma"}

    def test_non_integer_count_line_is_an_edge(self, tmp_path, capsys):
        target = tmp_path / "n_edge.txt"
        target.write_text("n x\nx y\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["nd", str(target), "--json"])
        assert code == 0, err
        assert json.loads(out)["classes"] == [["n", "y"], ["x"]]

    def test_negative_count_exit_two(self, tmp_path, capsys):
        target = tmp_path / "negative.txt"
        target.write_text("n -2\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["parity", str(target)])
        assert code == 2
        assert "line 1: negative vertex count -2" in err

    def test_dimacs_unrecognized_line_exit_two(self, tmp_path, capsys):
        target = tmp_path / "stray.col"
        target.write_text("p edge 3 1\ne 1 2\nx 1 2\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["parity", str(target), "--format", "dimacs"])
        assert (code, out) == (2, "")
        assert err == "error: line 3: unrecognized line 'x 1 2'\n"

    @pytest.mark.parametrize("edge", ["e 1", "e 1 2 3"])
    def test_dimacs_wrong_token_count_exit_two(self, tmp_path, capsys, edge):
        target = tmp_path / "short.col"
        target.write_text(f"p edge 3 1\n{edge}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["parity", str(target), "--format", "dimacs"])
        assert (code, out, err) == (2, "", f"error: line 2: expected 'e u v', got '{edge}'\n")

    def test_nd_invariant_failure_exit_three(self, tmp_path, capsys, monkeypatch):
        import modcert.traces

        monkeypatch.setattr(modcert.traces, "_twin_groups", lambda adj: [[v] for v in range(len(adj) - 1)])
        target = write_graph(tmp_path, cycle(4))
        code, out, err = run_cli(capsys, ["nd", target, "--json"])
        assert code == 3
        assert out == ""
        assert "internal error: twin classes must partition the vertices" in err

    def test_label_invariant_failure_exit_three(self, tmp_path, capsys, monkeypatch):
        import modcert.witness

        real = modcert.witness.is_q_modular
        monkeypatch.setattr(
            modcert.witness, "is_q_modular",
            lambda graph, members, q: real(graph, members, q)._replace(residue=1),
        )
        target = write_graph(tmp_path, cycle(4))
        code, out, err = run_cli(capsys, ["absorb", target, "--witness", "0,1,2,3",
                                          "--core", "0,1", "--q", "2", "--json"])
        assert code == 3
        assert out == ""
        assert err == "internal error: top-bit label failed its defining congruence\n"

    def test_unexpected_exception_exit_three(self, tmp_path, capsys, monkeypatch):
        import modcert.cli

        def boom(graph):
            raise RuntimeError("boom")

        monkeypatch.setattr(modcert.cli, "neighborhood_diversity", boom)
        code, out, err = run_cli(capsys, ["nd", write_graph(tmp_path, cycle(4)), "--json"])
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: RuntimeError('boom') at test_cli.py:")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_crlf_file_matches_lf_file(self, tmp_path, capsys):
        # Text mode reads either line ending as "\n", both by line and in chunks.
        lf = edge_list_text(complete_bipartite(3, 4))
        outputs = []
        for name, text in (("lf.txt", lf), ("crlf.txt", lf.replace("\n", "\r\n"))):
            target = tmp_path / name
            target.write_bytes(text.encode("ascii"))
            code, out, err = run_cli(capsys, ["nd", str(target), "--json"])
            assert code == 0, err
            outputs.append(out)
        assert b"\r\n" in (tmp_path / "crlf.txt").read_bytes()
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["classes"] == [["0", "1", "2"], ["3", "4", "5", "6"]]

    @pytest.mark.parametrize("fmt, text", [
        ("edge-list", "n 3\n0 1\n1 2\n"),
        ("edge-list", "a b\nb c\n"),
        ("dimacs", "p edge 3 2\ne 1 2\ne 2 3\n"),
    ], ids=["headed", "header-less", "dimacs"])
    def test_leading_byte_order_mark_is_ignored(self, tmp_path, capsys, fmt, text):
        runs = []
        for name, data in (("plain.txt", text.encode("utf-8")), ("bom.txt", b"\xef\xbb\xbf" + text.encode("utf-8"))):
            target = tmp_path / name
            target.write_bytes(data)
            runs.append(run_cli(capsys, ["nd", str(target), "--json", "--format", fmt]))
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert code == 0, err
        assert json.loads(out)["t"] == 2

    def test_path_beyond_4096_vertices(self, tmp_path, capsys):
        # Dimensions are not capped: a valid graph of any size is solved.
        n = 4097
        graph = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        code, out, err = run_cli(capsys, ["parity", write_graph(tmp_path, graph), "--json"])
        assert code == 0, err
        payload = json.loads(out)
        part0, part1 = (graph.ids_of(payload[key]) for key in ("part0", "part1"))
        assert verify_even_partition(graph, part0, part1)

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run_cli(capsys, ["parity", "/nonexistent/graph.txt"])
        assert code == 2
        assert "error" in err


class TestEnvironmentExits:
    """An interrupt and a closed stdout are reported as the signal's exit
    code, 128 + 2 and 128 + 13, not as invalid input or a defect; running
    out of memory exits 2, with one line, not 3."""

    def test_interrupt_exit_130(self, tmp_path, capsys, monkeypatch):
        import modcert.cli

        def interrupted(stream, fmt):
            raise KeyboardInterrupt

        monkeypatch.setattr(modcert.cli, "load_graph", interrupted)
        code, out, err = run_cli(capsys, ["nd", write_graph(tmp_path, cycle(4)), "--json"])
        assert (code, out, err) == (130, "", "interrupted\n")

    def test_interrupt_while_parsing_arguments_exit_130(self, capsys, monkeypatch):
        import modcert.cli

        def interrupted():
            raise KeyboardInterrupt

        monkeypatch.setattr(modcert.cli, "build_parser", interrupted)
        try:
            code, out, err = run_cli(capsys, ["nd", "graph.txt", "--json"])
        except KeyboardInterrupt:
            # Escaping, it would end the whole test session.
            pytest.fail("the interrupt escaped main")
        assert (code, out, err) == (130, "", "interrupted\n")

    def test_out_of_memory_while_loading_exit_two(self, tmp_path, capsys, monkeypatch):
        import modcert.cli

        def exhausted(stream, fmt):
            raise MemoryError

        monkeypatch.setattr(modcert.cli, "load_graph", exhausted)
        code, out, err = run_cli(capsys, ["nd", write_graph(tmp_path, cycle(4)), "--json"])
        assert (code, out, err) == (2, "", "error: out of memory\n")

    def test_out_of_memory_while_solving_exit_two(self, tmp_path, capsys, monkeypatch):
        import modcert.cli

        def exhausted(problem):
            raise MemoryError()

        monkeypatch.setattr(modcert.cli, "solve_core_correction", exhausted)
        problem = DELETION_PROBLEM
        code, out, err = run_cli(capsys, _absorb_args(write_graph(tmp_path, problem.graph), problem))
        assert (code, out, err) == (2, "", "error: out of memory\n")

    def test_closed_stdout_exit_141(self, tmp_path):
        # About 150 KB of JSON, more than a pipe holds, so the child is still
        # writing when the reader closes its end after one byte.
        n = 6000
        target = tmp_path / "path.txt"
        target.write_text(f"n {n}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1)), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=SRC)
        child = subprocess.Popen([sys.executable, "-m", "modcert", "nd", str(target), "--json"],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert child.stdout.read(1) == b"{"
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=60)
        finally:
            child.kill()
            child.wait()
            child.stderr.close()
        assert (code, err) == (141, b"")


def test_installed_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "modcert", "ladder-budget", "--json",
         "--C", "1", "--a", "0", "--C0", "1", "--r", "3"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["budget"] == 16.0
