"""How often each expensive step runs in one CLI run.

Every subcommand runs through ``cli.main`` in process on small fixed inputs
while a counter wraps each step in ``STEPS``, rebound wherever the package
binds it (modules import with ``from .x import y``, so patching the defining
module alone would miss most calls).  The counts per argv must equal those
recorded in ``golden_work_ledger.json``.  Counts are deterministic, so a step
that starts running twice -- a problem built twice, a table grouped for a
check that does not read it -- fails here where a timing could not show it.
A change of count on purpose updates the golden file and says why.
"""

import json
import os
import sys
from collections import Counter

import pytest

import modcert.cli  # noqa: F401  (loads every module that STEPS names)
from modcert.cli import main

from test_acceptance import SCATTERED_BASE_EDGES

GOLDEN_LEDGER = os.path.join(os.path.dirname(__file__), "golden_work_ledger.json")

STEPS = (
    ("graph", "Graph.from_edges"),
    ("graph", "induced_degrees"),
    ("witness", "top_bit_label"),
    ("traces", "compute_traces"),
    ("gf2", "_eliminate"),
    ("witness", "quotient_matrix"),
    ("absorb", "_deletion_outcome"),
    ("absorb", "_cut_failure"),
    ("reservoir", "_spans"),
    ("reservoir", "_verify_basis"),
)
# The ledger's key for each step: its bare function name.
KEYS = [name.rsplit(".", 1)[-1] for _, name in STEPS]

# The scattered-core golden runs' graph: 20 twins, every degree even.
TWIN_EDGES = [(a, b) for u, v in SCATTERED_BASE_EDGES for a in (2 * u, 2 * u + 1) for b in (2 * v, 2 * v + 1)]
# Two twin pairs with singleton traces on a four-vertex core: small enough
# for the brute-force subcommands.
PAIR_EDGES = [(4, 0), (5, 0), (6, 2), (7, 2), (4, 5), (6, 7)]


def _counting(counts: Counter, key: str, fn):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.fixture
def ledger(monkeypatch):
    """A Counter of calls per step, with every binding of each step wrapped."""
    counts: Counter = Counter()
    packages = [module for name, module in list(sys.modules.items())
                if name == "modcert" or name.startswith("modcert.")]
    for (short, name), key in zip(STEPS, KEYS):
        module = sys.modules[f"modcert.{short}"]
        if "." in name:
            cls = getattr(module, name.split(".")[0])
            wrapped = _counting(counts, key, vars(cls)[key].__func__)
            monkeypatch.setattr(cls, key, classmethod(wrapped))
            continue
        original = getattr(module, name)
        wrapper = _counting(counts, key, original)
        for holder in packages:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    monkeypatch.setattr(holder, attr, wrapper)
    return counts


def _write_graph(path, n: int, edges) -> str:
    path.write_text("".join([f"n {n}\n"] + [f"{u} {v}\n" for u, v in edges]), encoding="utf-8")
    return str(path)


def _invocations(tmp_path, capsys) -> list[list[str]]:
    """Every subcommand, both absorb branches, and verify-cert's exits 0, 1 and 2."""
    twin = _write_graph(tmp_path / "twin.txt", 20, TWIN_EDGES)
    pair = _write_graph(tmp_path / "pair.txt", 8, PAIR_EDGES)
    witness = ["--witness", ",".join(map(str, range(20)))]
    q = ["--q", "2"]
    deletion = witness + ["--core", "10,12,14,16,18"]
    cut = witness + ["--core", "6,8,10,16,18"]
    small = ["--witness", "0,1,2,3,4,5,6,7", "--core", "0,1,2,3"]
    certs = {}
    for label, sets in (("deletion", deletion), ("cut", cut)):
        main(["absorb", twin, "--json", *sets, *q])
        certs[label] = tmp_path / f"{label}.json"
        certs[label].write_text(capsys.readouterr().out, encoding="utf-8")
    forged = json.loads(certs["cut"].read_text(encoding="utf-8"))
    forged["parity_cut_Y"] = forged["parity_cut_Y"][:-2] or forged["core"][:2]
    certs["forged"] = tmp_path / "forged.json"
    certs["forged"].write_text(json.dumps(forged), encoding="utf-8")
    return [
        ["parity", twin, "--json"],
        ["absorb", twin, "--json", *deletion, *q],
        ["absorb", twin, "--json", *cut, *q],
        ["check-modular", twin, "--json", *witness, *q],
        ["traces", twin, "--json", *deletion],
        ["next-bit", twin, "--json", *deletion],
        ["next-bit", twin, "--json", *cut],
        ["pair-trace", twin, "--json", *deletion, *q],
        ["nd", twin, "--json"],
        ["oracle-f", pair, "--json"],
        ["oracle-absorb", pair, "--json", *small, *q],
        ["reservoir", "--json", "--m", "3", "--q", "2", "--samples", "24", "--trials", "20", "--seed", "7"],
        ["reservoir", "--json", "--m", "9", "--q", "1", "--samples", "600", "--trials", "4", "--seed", "7"],
        ["ladder-budget", "--json", "--C", "1.5", "--a", "0.5", "--C0", "2", "--r", "4"],
        ["verify-cert", twin, "--json", *deletion, *q, "--certificate", str(certs["deletion"])],
        ["verify-cert", twin, "--json", *cut, *q, "--certificate", str(certs["cut"])],
        ["verify-cert", twin, "--json", *cut, *q, "--certificate", str(certs["forged"])],
        # Rejected before the graph is read: the certificate claims q = 2.
        ["verify-cert", twin, "--json", *cut, "--q", "4", "--certificate", str(certs["cut"])],
        # Rejected after the parse: a witness name the graph does not have.
        ["verify-cert", twin, "--json", "--witness", "6,8,10,16,18,99", "--core", "6,8,10,16,18", *q,
         "--certificate", str(certs["cut"])],
    ]


def test_work_per_run_matches_golden_ledger(tmp_path, capsys, ledger):
    invocations = _invocations(tmp_path, capsys)
    runs = []
    for argv in invocations:
        ledger.clear()
        code = main(argv)
        capsys.readouterr()
        shown = [arg.replace(str(tmp_path), "<work>") for arg in argv]
        runs.append({"argv": shown, "exit": code, "counts": {key: ledger[key] for key in KEYS}})
    with open(GOLDEN_LEDGER, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert [run["argv"] for run in runs] == [run["argv"] for run in golden]
    for run, want in zip(runs, golden):
        assert run["exit"] == want["exit"], run["argv"]
        assert run["counts"] == want["counts"], f"{' '.join(run['argv'][:2])}: work per run changed"

