"""The benchmark's own runs at seed 1 keep their output bytes.

The 19 argv of ``perfbench/run.py``'s pass at seed 1 (``make_ops``: all three
workloads, the tampered certificates included) run through ``cli.main`` in
process.  Each must keep the exit code and the SHA-256 of stdout and stderr
recorded in ``golden_bench_seed1.json``; stdout is up to 71 KB a run, too big
to commit as bytes.  The inputs come from the harness's ``workloads.build``
and the tampered certificates from its ``checks.tamper_set``, imported
read-only; the argv and the files are laid out as ``make_ops`` lays them out.
A change of output on purpose updates the golden file and says why.
"""

import hashlib
import json
import os
import sys

import pytest

from modcert.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402

GOLDEN_BENCH = os.path.join(os.path.dirname(__file__), "golden_bench_seed1.json")
SEED = 1


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def bench_runs(workload: str, workdir: str, capsys) -> list[dict]:
    """Exit code and output digests of one pass of ``workload`` at seed 1, in
    ``make_ops`` order.  In the recorded argv, paths under ``workdir`` read as
    ``<work>`` and a list of vertex ids as its length."""
    inst = workloads.build(workload, SEED, workdir)
    runs = []

    def run(argv: list[str]) -> str:
        code = main(argv)
        out, err = capsys.readouterr()
        shown = [f"<{arg.count(',') + 1} ids>" if "," in arg else arg.replace(workdir, "<work>")
                 for arg in argv]
        runs.append({"argv": shown, "exit": code,
                     "stdout_sha256": _sha256(out), "stderr_sha256": _sha256(err)})
        return out

    graph = inst.graph
    if workload == "dense-2k":
        run(["parity", graph.path, "--json"])
    for core in inst.cores:
        problem = ["--witness", ",".join(map(str, core.witness)),
                   "--core", ",".join(map(str, core.core)), "--q", str(core.q)]
        payload = json.loads(run(["absorb", graph.path, *problem, "--json"]))
        certs = [os.path.join(workdir, f"{core.label}.cert.json")]
        _write_json(certs[0], payload)
        for i, (_, mutant) in enumerate(checks.tamper_set(payload)):
            certs.append(os.path.join(workdir, f"{core.label}.tamper{i}.json"))
            _write_json(certs[-1], mutant)
        for cert in certs:
            run(["verify-cert", graph.path, *problem, "--certificate", cert, "--json"])
    if graph is not None:
        run(["nd", graph.path, "--json"])
    for m, q, samples, trials, seed in inst.reservoir:
        run(["reservoir", "--m", str(m), "--q", str(q), "--samples", str(samples),
             "--trials", str(trials), "--seed", str(seed), "--json"])
    return runs


def test_golden_covers_the_benchmark_pass():
    with open(GOLDEN_BENCH, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert sorted(golden) == sorted(workloads.WORKLOADS)
    assert sum(len(runs) for runs in golden.values()) == 19


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_bench_seed1_golden_output(workload, tmp_path, capsys):
    runs = bench_runs(workload, str(tmp_path), capsys)
    with open(GOLDEN_BENCH, encoding="utf-8") as handle:
        golden = json.load(handle)[workload]
    assert [run["argv"] for run in runs] == [want["argv"] for want in golden]
    for run, want in zip(runs, golden):
        assert run == want, f"{' '.join(run['argv'][:1])}: stdout, stderr or exit code changed"
