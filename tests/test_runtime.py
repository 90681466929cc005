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


def test_import_loads_no_process_machinery():
    # the search imports multiprocessing when a run first splits, so that
    # importing the package and the CLI costs no more than it did
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = "import sys, tspheat, tspheat.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
