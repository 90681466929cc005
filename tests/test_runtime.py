"""The installed package needs numpy and the standard library, nothing else."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# run in a fresh interpreter, so modules the test session already loaded
# (pytest, hypothesis) cannot hide an import the package makes
_PROBE = """
import json, sys
before = set(sys.modules)
import tspheat, tspheat.cli
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_adds_only_numpy_and_stdlib_modules():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    added = set(json.loads(out.stdout))
    assert "tspheat" in added
    assert added - sys.stdlib_module_names - {"numpy", "tspheat"} == set()
