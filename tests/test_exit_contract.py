"""The exit contract under fuzzed input: every run exits 0, 1 or 2, never 3.

Seeded realized problems (cores of 2 to 5 vertices, q = 2 and 4) and the
certificate ``absorb`` emits for each are mutated one step at a time: the
graph file, the certificate file and the command line.  Each mutant runs in
process through ``cli.main``.  A mutant is either still valid (exit 0 or 1)
or invalid input (exit 2); exit 3 would report malformed input as a defect
of the program.  No run may print a traceback, and the JSON of every run
that exits 0 or 1 must parse without ``NaN`` or ``Infinity``.
"""

import json
import random

from modcert.cli import main
from synth import realize_problem

from conftest import edges_of

# Values that every certificate key, the first chosen trace and each of its
# lists take in turn; DROP removes the key instead.
DROP = object()
VALUES = (None, True, 1.5, "2", [], {}, 10 ** 30, -1, DROP)
NESTED = 3000
RAW_CERTIFICATES = ("", "[", "[" * NESTED + "]" * NESTED, '{"a": ' * NESTED + "1" + "}" * NESTED, "NaN", "1e400")
GRAPH_COMMANDS = ("absorb", "traces", "next-bit", "pair-trace", "nd", "parity", "verify-cert")


def _instances():
    """One realized problem per core size and modulus, drawn from a fixed seed."""
    rng = random.Random(0xE817)
    problems = []
    for m in (2, 3, 4, 5):
        for q in (2, 4):
            problem = None
            while problem is None:
                masks = rng.sample(range(1, 1 << m), k=rng.randrange(0, min(6, (1 << m) - 1)))
                problem = realize_problem(m, q, masks, rng.getrandbits(m))
            problems.append(problem)
    return problems


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


class Runner:
    """Runs argv through ``cli.main`` and records every run that breaks the contract."""

    def __init__(self, capsys):
        self.capsys = capsys
        self.runs = 0
        self.broken = []

    def __call__(self, label, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        out, err = self.capsys.readouterr()
        self.runs += 1
        fault = None
        if code not in (0, 1, 2):
            fault = f"exit {code}"
        elif "Traceback" in err:
            fault = "traceback"
        elif code in (0, 1):
            try:
                json.loads(out, parse_constant=_reject_constant)
            except ValueError as exc:
                fault = f"stdout is not strict JSON: {exc}"
        if fault is not None:
            self.broken.append((label, argv, fault, err.strip()[-200:]))


def _graph_text(problem) -> str:
    return "".join([f"n {problem.graph.n}\n"] + [f"{u} {v}\n" for u, v in edges_of(problem.graph)])


def _graph_mutants(text: str, n: int, rng: random.Random):
    """(label, bytes) of one-step mutations of a headed edge list."""
    lines = text.splitlines(keepends=True)
    header, body = lines[0], lines[1:]
    at = rng.randrange(len(body) + 1)

    def inserted(line):
        return "".join([header] + body[:at] + [line] + body[at:]).encode()

    if body:
        i = rng.randrange(len(body))
        yield "deleted line", "".join([header] + body[:i] + body[i + 1:]).encode()
        yield "duplicated line", "".join([header] + body[:i + 1] + body[i:]).encode()
        yield "truncated line", "".join([header] + body[:i] + [body[i][:len(body[i]) // 2] + "\n"] + body[i + 1:]).encode()
        yield "truncated file", "".join([header] + body[:i] + [body[i][:len(body[i]) // 2]]).encode()
        yield "NUL", "".join([header] + body[:i] + [body[i].replace(" ", " \0", 1)] + body[i + 1:]).encode()
    yield "junk line", inserted("hello there\n")
    yield "self-loop", inserted(f"{n // 2} {n // 2}\n")
    yield "id out of range", inserted(f"{n} 0\n")
    yield "second header", inserted(f"n {n}\n")
    yield "negative count", ("n -3\n" + "".join(body)).encode()
    yield "BOM", ("\ufeff" + text).encode()
    yield "CRLF", text.replace("\n", "\r\n").encode()
    yield "tabs", text.replace(" ", "\t").encode()
    arabic_indic = "".join(chr(0x660 + d) for d in range(10))
    yield "non-ASCII digits", text.translate(str.maketrans("0123456789", arabic_indic)).encode()
    yield "non-UTF-8 byte", inserted("0 1\n").replace(b"0 1\n", b"0 \xff1\n", 1)


def _set(container, key, value):
    out = dict(container)
    if value is DROP:
        del out[key]
    else:
        out[key] = value
    return out


def _certificate_mutants(payload: dict):
    """(label, text) of one-step mutations of a certificate payload."""
    for key in payload:
        for value in VALUES:
            yield f"{key}={value!r}", json.dumps(_set(payload, key, value))
    entries = payload["chosen_traces"]
    if entries:
        for value in VALUES:
            rest = entries[1:] if value is DROP else [value] + entries[1:]
            yield f"first entry={value!r}", json.dumps({**payload, "chosen_traces": rest})
            for key in ("trace", "deleted_vertices"):
                entry = _set(entries[0], key, value)
                yield f"first {key}={value!r}", json.dumps({**payload, "chosen_traces": [entry] + entries[1:]})
    for text in RAW_CERTIFICATES:
        yield f"raw {text[:12]!r}", text


def _names(ids) -> str:
    return ",".join(str(v) for v in ids)


def test_every_mutant_exits_0_1_or_2(tmp_path, capsys):
    run = Runner(capsys)
    rng = random.Random(0xC0DE)
    kinds = set()
    for index, problem in enumerate(_instances()):
        graph_path = tmp_path / f"graph{index}.txt"
        text = _graph_text(problem)
        graph_path.write_text(text, encoding="utf-8")
        witness, core, q = _names(sorted(problem.witness.members)), _names(problem.core), str(problem.q)
        cert_path = tmp_path / f"cert{index}.json"

        def argv(command, path, witness=witness, core=core, q=q):
            args = [command, str(path), "--json"]
            if command in ("nd", "parity"):
                return args
            args += ["--witness", witness, "--core", core]
            if command in ("absorb", "pair-trace", "verify-cert"):
                args.append(f"--q={q}")
            if command == "verify-cert":
                args += ["--certificate", str(cert_path)]
            return args

        assert main(argv("absorb", graph_path)) in (0, 1)
        payload = json.loads(capsys.readouterr().out)
        kinds.add(payload["kind"])
        cert_path.write_text(json.dumps(payload), encoding="utf-8")

        mutated = tmp_path / f"mutated{index}.txt"
        for label, data in _graph_mutants(text, problem.graph.n, rng):
            mutated.write_bytes(data)
            for command in GRAPH_COMMANDS:
                run(f"graph {label}", argv(command, mutated))

        for label, cert_text in _certificate_mutants(payload):
            cert_path.write_text(cert_text, encoding="utf-8")
            run(f"certificate {label}", argv("verify-cert", graph_path))
        cert_path.write_text(json.dumps(payload), encoding="utf-8")

        first = min(problem.witness.members)
        changes = [{"q": value} for value in ("0", "-2", "3", str(2 ** 70), "1")]
        changes += [
            {"witness": core, "core": witness},
            {"witness": ""}, {"core": ""},
            {"witness": witness + ",nowhere"}, {"core": core + ",nowhere"},
            {"witness": witness + f",{first}"}, {"core": core + f",{problem.core[0]}"},
        ]
        for change in changes:
            for command in ("absorb", "traces", "next-bit", "pair-trace", "verify-cert"):
                run(f"argv {change}", argv(command, graph_path, **change))

    assert kinds == {"deletion", "parity-cut"}
    assert run.runs > 1500
    assert not run.broken, f"{len(run.broken)} of {run.runs} runs broke the contract, first: {run.broken[:3]}"
