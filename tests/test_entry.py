"""The process entry prints what ``cli.main`` prints, and only it freezes the heap.

``python -m modcert`` and the installed ``modcert`` script both start a run
through ``modcert.__main__.run``, which freezes the import-time heap before
it calls ``cli.main``.  The children here run the four ``reservoir`` argv of
the benchmark's seed-1 pass, which need no input files, and must keep the
exit code and the stdout and stderr digests in ``golden_bench_seed1.json``.
The script is run from its ``[project.scripts]`` target in
``pyproject.toml``, not from an installed copy.
"""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from modcert.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDEN_BENCH = os.path.join(ROOT, "tests", "golden_bench_seed1.json")

with open(GOLDEN_BENCH, encoding="utf-8") as _handle:
    RESERVOIR_RUNS = json.load(_handle)["reservoir-sweep"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _child(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


def _script_target() -> str:
    """The ``modcert`` line under ``[project.scripts]``, read without ``tomllib`` (3.11+)."""
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as handle:
        section = handle.read().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.search(r'^modcert\s*=\s*"([\w.]+:\w+)"\s*$', section, re.MULTILINE).group(1)


def _script(argv: list[str]) -> subprocess.CompletedProcess:
    """Run the script's target as the generated console script does: ``sys.exit(target())``."""
    module, attr = _script_target().split(":")
    return _child(["-c", f"import sys; from {module} import {attr}; sys.exit({attr}())", *argv])


@pytest.mark.parametrize("run", RESERVOIR_RUNS, ids=lambda run: f"m{run['argv'][2]}-q{run['argv'][4]}")
def test_module_launcher_prints_the_golden_bytes(run):
    child = _child(["-m", "modcert", *run["argv"]])
    assert (child.returncode, _sha256(child.stdout), _sha256(child.stderr)) == (
        run["exit"], run["stdout_sha256"], run["stderr_sha256"])


def test_script_target_prints_the_golden_bytes():
    assert _script_target() == "modcert.__main__:run"
    run = RESERVOIR_RUNS[0]
    child = _script(run["argv"])
    assert (child.returncode, _sha256(child.stdout), _sha256(child.stderr)) == (
        run["exit"], run["stdout_sha256"], run["stderr_sha256"])


def test_an_input_error_matches_cli_main(tmp_path, capsys):
    argv = ["nd", str(tmp_path / "missing.txt"), "--json"]
    code = main(argv)
    captured = capsys.readouterr()
    child = _child(["-m", "modcert", *argv])
    assert code == 2
    assert (child.returncode, child.stdout, child.stderr) == (
        code, captured.out.encode(), captured.err.encode())
    assert child.stderr.startswith(b"error: ")


def test_cli_main_does_not_freeze(capsys):
    before = gc.get_freeze_count()
    for run in RESERVOIR_RUNS[:2]:
        assert main(run["argv"]) == run["exit"]
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_the_process_entry_freezes():
    # The count is read at exit, after run() has returned through sys.exit.
    code = ("import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
            "runpy.run_module('modcert', run_name='__main__', alter_sys=True)\n")
    run = RESERVOIR_RUNS[0]
    child = _child(["-c", code, *run["argv"]])
    assert (child.returncode, _sha256(child.stdout)) == (run["exit"], run["stdout_sha256"])
    assert int(child.stderr) > 0
