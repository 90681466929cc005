"""The installed package needs numpy and the standard library, nothing else,
and holds only what its own code or the benchmark runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

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
    # the search forks its worker with os.fork and talks to it through two
    # os.pipe()s: neither importing the package and the CLI nor a split run,
    # which forks the worker, loads multiprocessing
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = (
        "import sys, tspheat, tspheat.cli, tspheat.search as s\n"
        "print('multiprocessing' in sys.modules)\n"
        "inst = tspheat.generate_random(30, 1)\n"
        "params = tspheat.preset_for(30).with_budget(max_rounds=2)\n"
        "tspheat.run_search(inst, tspheat.distance_matrix(inst), params, 1)\n"
        "print(s._worker is not None, 'multiprocessing' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.split() == ["False", "True", "False"]


def _names_read(node):
    """Every name node reads, as a bare name, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_definition_is_run_by_the_package_or_the_benchmark():
    # a top-level def or class of a package module must be read by another
    # statement of the package or by the benchmark's code; neither the tests
    # nor an export from __init__ count, so a test oracle lives in tests/
    statements = []  # (module, statement, the names it reads)
    for path in sorted((SRC / "tspheat").glob("*.py")):
        if path.name != "__init__.py":
            statements += [(path.stem, node, _names_read(node))
                           for node in ast.parse(path.read_text()).body]
    benchmark = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if not path.name.startswith("test_"):
            benchmark |= _names_read(ast.parse(path.read_text()))
    unread = [
        f"{module}.{node.name}" for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in benchmark
        and not any(node.name in names for _, other, names in statements if other is not node)
    ]
    assert not unread, f"defined in the package, run by neither it nor the benchmark: {unread}"


def test_no_module_imports_private_names_of_another():
    # a module's private names (search.py's frame _Frame and the routines
    # that read it, generator.py's kernel workspace) stay inside it, so that
    # a change to them touches one module: neither an import statement nor
    # an attribute read through a package module bound to a name (such as
    # cli.py's `from . import bench as bench_mod`) may reach one
    crossings = []
    for path in sorted((SRC / "tspheat").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # the names this module binds to package modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").partition(".")[0] == "tspheat"):
                crossings += [f"{path.stem}.{alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
                if node.level and not node.module:  # from . import bench as bench_mod
                    modules.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                modules.update(alias.asname or alias.name for alias in node.names
                               if alias.name.partition(".")[0] == "tspheat")
        crossings += [
            f"{path.stem}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and node.attr.startswith("_")
        ]
    assert not crossings, f"private names of one package module read by another: {crossings}"
