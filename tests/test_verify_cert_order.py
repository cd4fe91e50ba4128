"""verify-cert reads the certificate before the graph: the order against the flow it replaced.

``_reference_verify_cert`` keeps the graph-first ``verify-cert``.  On
realized problems, relabeled so that core ids are not core positions (and
their names do not sort like their ids), every mutant certificate and
command line must end in the same exit code under both orders, and a mutant
with a single fault in the same stdout and stderr.  The mutation kinds are
those of ROADMAP item 2: drop, add or swap a deleted vertex or a trace
member, move a vertex between tuples, change q, d, core, residue_achieved
or kind, and an odd or otherwise wrong cut, plus malformed fields and faults
of the command line.  Separately: a certificate that cannot hold fails with
its own message before the graph path is even opened, and verifying a
deletion certificate never builds a trace table.
"""

import copy
import json
import random

import pytest

import _reference_verify_cert as ref
import modcert.absorb as absorb
import modcert.cli as cli
import modcert.traces as traces
from modcert.absorb import AbsorptionProblem, certificate_to_json, solve_core_correction
from synth import path_pair_trace_problem, realize_problem

from conftest import relabeled
from test_cli import edge_list_text, run_cli

# Edits of a certificate payload: each takes (payload, problem, rnd) and
# changes it in place, or returns False when it does not apply.


def _names(ids) -> list[str]:
    return [str(v) for v in ids]


def _tail(problem) -> list[int]:
    return sorted(problem.witness.members - set(problem.core))


def _entry(c, rnd):
    entries = c.get("chosen_traces") or []
    return rnd.choice(entries) if entries else None


def _drop_from(key):
    def edit(c, problem, rnd):
        if not c[key]:
            return False
        c[key].remove(rnd.choice(c[key]))
    return edit


def _entry_edit(key, how):
    def edit(c, problem, rnd):
        entry = _entry(c, rnd)
        if entry is None:
            return False
        names = entry[key]
        if how == "drop":
            if not names:
                return False
            names.remove(rnd.choice(names))
        else:
            pool = {"core": problem.core, "tail": _tail(problem), "any": range(problem.graph.n)}[how]
            fresh = [name for name in _names(pool) if name not in names]
            if not fresh:
                return False
            names.append(rnd.choice(fresh))
    return edit


def _swap_deleted(c, problem, rnd):
    entry = _entry(c, rnd)
    if entry is None or not entry["deleted_vertices"]:
        return False
    names = entry["deleted_vertices"]
    fresh = [name for name in _names(_tail(problem)) if name not in names]
    if not fresh:
        return False
    names[rnd.randrange(len(names))] = rnd.choice(fresh)


def _move_deleted(c, problem, rnd):
    entries = c.get("chosen_traces") or []
    if len(entries) < 2:
        return False
    source, target = rnd.sample(entries, 2)
    target["deleted_vertices"].append(source["deleted_vertices"].pop())


def _add_entry(c, problem, rnd):
    if c.get("chosen_traces") is None:
        return False
    tail = _names(_tail(problem))
    c["chosen_traces"].append({"trace": _names(rnd.sample(problem.core, 1)),
                               "deleted_vertices": rnd.sample(tail, min(len(tail), c["q"]))})


def _duplicate_entry(c, problem, rnd):
    entry = _entry(c, rnd)
    if entry is None:
        return False
    c["chosen_traces"].append(copy.deepcopy(entry))


def _set(key, value):
    def edit(c, problem, rnd):
        c[key] = value(c) if callable(value) else value
    return edit


def _core_add(pool):
    def edit(c, problem, rnd):
        fresh = [name for name in _names(pool(problem)) if name not in c["core"]]
        if not fresh:
            return False
        c["core"].append(rnd.choice(fresh))
    return edit


def _cut_add(pool):
    def edit(c, problem, rnd):
        if c.get("parity_cut_Y") is None:
            return False
        fresh = [name for name in _names(pool(problem)) if name not in c["parity_cut_Y"]]
        if not fresh:
            return False
        c["parity_cut_Y"].append(rnd.choice(fresh))
    return edit


def _cut_flip_two(c, problem, rnd):
    if c.get("parity_cut_Y") is None or len(problem.core) < 2:
        return False
    for name in rnd.sample(_names(problem.core), 2):
        if name in c["parity_cut_Y"]:
            c["parity_cut_Y"].remove(name)
        else:
            c["parity_cut_Y"].append(name)


def _unknown_name(key):
    def edit(c, problem, rnd):
        target = _entry(c, rnd) if key in ("trace", "deleted_vertices") else c
        if target is None or not isinstance(target.get(key), list):
            return False
        target[key].append("no-such-vertex")
    return edit


def _swap_kind(c, problem, rnd):
    c["kind"] = "parity-cut" if c["kind"] == "deletion" else "deletion"


def _without(key):
    def edit(c, problem, rnd):
        del c[key]
    return edit


CERT_MUTATIONS = {
    "deleted-drop": _entry_edit("deleted_vertices", "drop"),
    "deleted-add-tail": _entry_edit("deleted_vertices", "tail"),
    "deleted-add-core": _entry_edit("deleted_vertices", "core"),
    "deleted-swap": _swap_deleted,
    "deleted-move": _move_deleted,
    "deleted-unknown": _unknown_name("deleted_vertices"),
    "trace-drop": _entry_edit("trace", "drop"),
    "trace-add": _entry_edit("trace", "core"),
    "trace-add-any": _entry_edit("trace", "any"),
    "trace-unknown": _unknown_name("trace"),
    "entry-drop": _drop_from("chosen_traces"),
    "entry-add": _add_entry,
    "entry-repeat": _duplicate_entry,
    "q-double": _set("q", lambda c: 2 * c["q"]),
    "q-half": _set("q", lambda c: c["q"] // 2),
    "q-zero": _set("q", 0),
    "q-string": _set("q", lambda c: str(c["q"])),
    "d+1": _set("d", lambda c: c["d"] + 1),
    "d-1": _set("d", lambda c: c["d"] - 1),
    "d-null": _set("d", None),
    "core-drop": _drop_from("core"),
    "core-add-tail": _core_add(_tail),
    "core-repeat": _set("core", lambda c: c["core"] + c["core"][:1]),
    "core-string": _set("core", lambda c: ",".join(c["core"])),
    "residue+1": _set("residue_achieved",
                      lambda c: None if c["residue_achieved"] is None else (c["residue_achieved"] + 1) % (2 * c["q"])),
    "residue-null": _set("residue_achieved", None),
    "residue-negative": _set("residue_achieved", -1),
    "residue-list": _set("residue_achieved", [0]),
    "kind-swap": _swap_kind,
    "kind-unknown": _set("kind", "deletions"),
    "kind-drop": _without("kind"),
    "version": _set("version", "modcert-v0"),
    "cut-drop": _drop_from("parity_cut_Y"),
    "cut-add-core": _cut_add(lambda p: p.core),
    "cut-add-tail": _cut_add(_tail),
    "cut-flip-two": _cut_flip_two,
    "cut-unknown": _unknown_name("parity_cut_Y"),
    "cut-repeat": _set("parity_cut_Y", lambda c: None if c["parity_cut_Y"] is None else c["parity_cut_Y"] * 2),
    "traces-object": _set("chosen_traces", {}),
    "top-level-list": None,  # handled in mutate(): the payload becomes [payload]
}


# Faults of the command line: each maps the argv dict to a new one.
def _argv_q(value):
    return lambda argv, problem, rnd: {**argv, "--q": value(problem.q)}


def _argv_core(pool, how):
    def edit(argv, problem, rnd):
        core = argv["--core"].split(",")
        if how == "drop":
            core.remove(rnd.choice(core))
        else:
            fresh = [name for name in _names(pool(problem)) if name not in core]
            if not fresh:
                return False
            core.append(rnd.choice(fresh))
        return {**argv, "--core": ",".join(core)}
    return edit


def _argv_witness_drop(argv, problem, rnd):
    tail = _names(_tail(problem))
    if not tail:
        return False
    dropped = rnd.choice(tail)
    witness = [name for name in argv["--witness"].split(",") if name != dropped]
    return {**argv, "--witness": ",".join(witness)}


ARGV_MUTATIONS = {
    "argv-q-double": _argv_q(lambda q: str(2 * q)),
    "argv-q-one": _argv_q(lambda q: "1"),
    "argv-q-three": _argv_q(lambda q: "3"),
    "argv-core-drop": _argv_core(None, "drop"),
    "argv-core-add": _argv_core(_tail, "add"),
    "argv-core-unknown": lambda argv, problem, rnd: {**argv, "--core": argv["--core"] + ",no-such-vertex"},
    "argv-witness-drop": _argv_witness_drop,
    "argv-no-graph": lambda argv, problem, rnd: {**argv, "graph": argv["graph"] + ".missing"},
    "argv-bad-graph": lambda argv, problem, rnd: {**argv, "graph": argv["bad_graph"]},
}


# A --q or --core that a genuine certificate contradicts is now reported as
# the certificate's mismatch, ahead of what building the problem would have
# said (a witness that is not q-modular, a core outside it, an unknown name);
# both are invalid input, exit 2.
CLAIM_FAULTS = {kind for kind in ARGV_MUTATIONS if kind.startswith(("argv-q-", "argv-core-"))}


def mutate(payload, problem, kinds, rnd):
    """Apply each edit in turn; None when one of them does not apply."""
    payload = copy.deepcopy(payload)
    for kind in kinds:
        if kind == "top-level-list":
            payload = [payload]
            continue
        try:
            if CERT_MUTATIONS[kind](payload, problem, rnd) is False:
                return None
        except (ArithmeticError, AttributeError, KeyError, TypeError, ValueError):
            return None  # an earlier edit removed the field or changed its type
    return payload


def run_both(capsys, monkeypatch, argv, payload, cert_path):
    cert_path.write_text(json.dumps(payload), encoding="utf-8")
    command = ["verify-cert", argv["graph"], "--json", "--certificate", str(cert_path),
               "--witness", argv["--witness"], "--core", argv["--core"], "--q", argv["--q"]]
    new = run_cli(capsys, command)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_cmd_verify_cert", ref.cmd_verify_cert)
        old = run_cli(capsys, command)
    return new, old


def instances(count, seed):
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        m = rnd.randint(1, 6)
        q = rnd.choice((2, 4))
        full = (1 << m) - 1
        masks = [rnd.randint(1, full) for _ in range(rnd.randint(0, 4))] if m > 1 else []
        problem = realize_problem(m, q, masks, rnd.randint(0, full))
        if problem is not None:
            out.append(relabeled(problem, rnd))
    out.append(path_pair_trace_problem(2))
    return out


def setup_instance(tmp_path, problem, index):
    graph_path = tmp_path / f"graph{index}.txt"
    graph_path.write_text(edge_list_text(problem.graph), encoding="utf-8")
    bad_path = tmp_path / f"bad{index}.txt"
    bad_path.write_text(f"n {problem.graph.n}\n0 {problem.graph.n}\n", encoding="utf-8")
    argv = {"graph": str(graph_path), "bad_graph": str(bad_path),
            "--witness": ",".join(_names(sorted(problem.witness.members))),
            "--core": ",".join(_names(problem.core)), "--q": str(problem.q)}
    payload = certificate_to_json(solve_core_correction(problem), name_of=str)
    return argv, payload


def test_every_single_fault_ends_as_before(tmp_path, capsys, monkeypatch):
    rnd = random.Random(13)
    cert_path = tmp_path / "cert.json"
    exits = {}
    for index, problem in enumerate(instances(24, seed=13)):
        argv, payload = setup_instance(tmp_path, problem, index)
        cases = [("genuine", payload, argv)]
        cases += [(kind, mutate(payload, problem, [kind], rnd), argv) for kind in CERT_MUTATIONS]
        cases += [(kind, payload, edit(argv, problem, rnd)) for kind, edit in ARGV_MUTATIONS.items()]
        for kind, mutant, mutant_argv in cases:
            if mutant is None or mutant_argv is False:
                continue
            new, old = run_both(capsys, monkeypatch, mutant_argv, mutant, cert_path)
            if kind in CLAIM_FAULTS:
                assert new[0] == old[0] == 2 and new[2].count("\n") == 1, (kind, new, old)
            else:
                assert new == old, (kind, mutant, mutant_argv)
            assert "Traceback" not in new[2]
            exits.setdefault(kind, set()).add(new[0])
    # The corpus reaches every verdict, and every kind ran somewhere.
    assert set().union(*exits.values()) == {0, 1, 2}
    assert set(exits) == {"genuine", *CERT_MUTATIONS, *ARGV_MUTATIONS}
    for kind in ("trace-drop", "residue+1", "cut-flip-two", "deleted-swap"):
        assert 1 in exits[kind], kind


def test_every_multiple_fault_exits_as_before(tmp_path, capsys, monkeypatch):
    rnd = random.Random(29)
    cert_path = tmp_path / "cert.json"
    kinds = [kind for kind in CERT_MUTATIONS if kind != "top-level-list"]
    exits = []
    for index, problem in enumerate(instances(30, seed=29)):
        argv, payload = setup_instance(tmp_path, problem, index)
        for _ in range(24):
            mutant = mutate(payload, problem, rnd.sample(kinds, rnd.randint(1, 3)), rnd)
            mutant_argv = argv
            if rnd.random() < 0.5:
                mutant_argv = rnd.choice(list(ARGV_MUTATIONS.values()))(argv, problem, rnd)
            if mutant is None or mutant_argv is False:
                continue
            new, old = run_both(capsys, monkeypatch, mutant_argv, mutant, cert_path)
            assert new[0] == old[0], (mutant, mutant_argv, new, old)
            assert "Traceback" not in new[2]
            exits.append(new[0])
    assert len(exits) > 300 and {1, 2} <= set(exits)


@pytest.mark.parametrize("edit,message", [
    (lambda c: [c], "must be a JSON object"),
    (lambda c: {**c, "version": "modcert-v0"}, "unsupported certificate version"),
    (lambda c: {k: v for k, v in c.items() if k != "q"}, "needs an integer 'q'"),
    (lambda c: {**c, "d": 1.5}, "needs an integer 'd'"),
    (lambda c: {**c, "core": c["core"] * 2}, "repeats a vertex name in 'core'"),
    (lambda c: {**c, "kind": "cut"}, "unknown certificate kind"),
    (lambda c: {**c, "chosen_traces": [{"trace": []}]}, "vertex names in 'deleted_vertices'"),
    (lambda c: {**c, "residue_achieved": "0"}, "needs an integer 'residue_achieved'"),
    (lambda c: {**c, "q": 2 * c["q"]}, "certificate modulus 4 does not match the problem's 2"),
    (lambda c: {**c, "core": c["core"][1:]}, "certificate core does not match the problem core"),
    (lambda c: {**c, "core": c["core"] + ["no-such-vertex"]}, "certificate core does not match"),
])
def test_certificate_that_cannot_hold_fails_before_the_graph_is_opened(tmp_path, capsys, edit, message):
    problem = path_pair_trace_problem(2)
    payload = certificate_to_json(solve_core_correction(problem), name_of=str)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(edit(payload)), encoding="utf-8")
    code, out, err = run_cli(capsys, [
        "verify-cert", str(tmp_path / "no-such-graph.txt"), "--json", "--certificate", str(cert_path),
        "--witness", ",".join(_names(sorted(problem.witness.members))),
        "--core", ",".join(_names(problem.core)), "--q", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert "no-such-graph" not in err


def test_verdicts_still_need_the_graph(tmp_path, capsys):
    # A false trace is exit 1 only against a valid problem; without the graph it is exit 2.
    problem = path_pair_trace_problem(2)
    payload = certificate_to_json(solve_core_correction(problem), name_of=str)
    payload["chosen_traces"][0]["trace"].pop()
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run_cli(capsys, [
        "verify-cert", str(tmp_path / "no-such-graph.txt"), "--json", "--certificate", str(cert_path),
        "--witness", ",".join(_names(sorted(problem.witness.members))),
        "--core", ",".join(_names(problem.core)), "--q", "2"])
    assert (code, out) == (2, "") and "no-such-graph" in err


class TestNoTraceTable:
    @pytest.fixture
    def traced(self, monkeypatch):
        calls = []
        real = traces.compute_traces

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (traces, absorb, cli):
            monkeypatch.setattr(module, "compute_traces", spy)
        return calls

    def _verify(self, tmp_path, capsys, traced, problem, edit=None):
        """Exit code, stdout and the compute_traces calls of one verify-cert run."""
        argv, payload = setup_instance(tmp_path, problem, 0)
        if edit is not None:
            edit(payload)
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(payload), encoding="utf-8")
        traced.clear()
        code, out, _ = run_cli(capsys, ["verify-cert", argv["graph"], "--json", "--certificate", str(cert_path),
                                        "--witness", argv["--witness"], "--core", argv["--core"],
                                        "--q", argv["--q"]])
        return code, out, len(traced)

    def test_deletion_certificate_builds_no_trace_table(self, tmp_path, capsys, traced):
        problem = path_pair_trace_problem(2)
        assert self._verify(tmp_path, capsys, traced, problem)[::2] == (0, 0)
        assert self._verify(tmp_path, capsys, traced, problem,
                            lambda c: c["chosen_traces"][0]["trace"].pop())[::2] == (1, 0)
        assert self._verify(tmp_path, capsys, traced, problem,
                            lambda c: c.update(residue_achieved=3))[::2] == (1, 0)

    def test_cut_builds_no_trace_table(self, tmp_path, capsys, traced):
        problem = realize_problem(4, 2, [0b0011, 0b1100], 0b0001)
        code, out, calls = self._verify(tmp_path, capsys, traced, problem)
        assert code == 0 and json.loads(out)["valid"] is True
        assert calls == 0

    def test_problem_builds_its_table_on_first_use(self, traced):
        problem = path_pair_trace_problem(2)
        traced.clear()
        rebuilt = AbsorptionProblem.build(problem.witness, problem.core)
        assert traced == []
        assert rebuilt.table is rebuilt.table
        assert len(traced) == 1
        assert rebuilt.table == traces.compute_traces(problem.graph, problem.core, _tail(problem))
