"""What ``python -m modcert`` imports before it reads its input.

Every CLI run is a fresh interpreter, so each module on the import path is
paid for by every run.  ``dataclasses`` (with ``inspect``), ``traceback``
and the oracle and instance-builder modules stay off it.  The modules whose
functions the benchmark tracer wraps must stay on it: the tracer wraps only
modules already loaded by ``import modcert``.  ``-S`` keeps the host's
``site`` hooks out of the result.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

OFF_PATH = {"dataclasses", "inspect", "traceback", "modcert.oracle", "modcert.synth"}
TRACED = ("graph", "gf2", "parity", "witness", "traces", "absorb", "reservoir", "cli")


def test_cli_import_path():
    code = "import sys, modcert, modcert.cli; print('\\n'.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    assert not loaded & OFF_PATH
    assert {f"modcert.{name}" for name in TRACED} <= loaded
