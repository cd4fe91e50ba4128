"""The README's library quick start runs as written."""

import os
import re

from modcert.absorb import DeletionCertificate, ParityCut

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_quick_start_runs():
    with open(README, encoding="utf-8") as handle:
        section = handle.read().split("\n## Library quick start\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)\n```\n", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert isinstance(namespace["certificate"], (DeletionCertificate, ParityCut))
