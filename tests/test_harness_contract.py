"""The names the benchmark harness in ``perfbench/`` reaches into procshap
for still exist: every target its tracer wraps, and every name (and
attribute of such a name) its output checker imports.  A renamed target
makes ``--trace 1`` report null for the metrics built on it."""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

INSTALL = """
import json, sys
sys.path.insert(0, sys.argv[1])
import procshap.cli
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
print(json.dumps(tracer.missing))
"""


def test_tracer_finds_every_target():
    # install() rebinds module globals, so it runs in an interpreter of its own.
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    result = subprocess.run(
        [sys.executable, "-c", INSTALL, str(PERFBENCH)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def checker_imports() -> list[tuple[str, str, set[str]]]:
    """(module, name, attributes used on it) for every procshap name that
    ``workloads.Checker`` imports."""
    source = (PERFBENCH / "workloads.py").read_text()
    checker = next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == "Checker"
    )
    imports = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(checker)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("procshap")
        for alias in node.names
    }
    used: dict[str, set[str]] = {name: set() for name in imports}
    for node in ast.walk(checker):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imports):
            used[node.value.id].add(node.attr)
    return [(*imports[name], used[name]) for name in imports]


def test_checker_imports_resolve():
    imported = checker_imports()
    assert ("procshap.oracle", "evaluate", set()) in imported
    assert ("procshap.process_tree", "Coalition", {"full", "empty"}) in imported
    for module, name, attributes in imported:
        value = getattr(importlib.import_module(module), name)
        for attribute in attributes:
            assert hasattr(value, attribute), f"{module}.{name}.{attribute}"


def test_checker_accepts_a_report_and_rejects_a_perturbed_phi(monkeypatch, tiny_log_file):
    """Run the checker itself, so that a changed signature or meaning of a
    name it calls fails here, not only a missing name."""
    from procshap.oracle import Property, PropertySpec
    from procshap.reports import RunConfig, run_matrix

    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    config = RunConfig(
        log_path=str(tiny_log_file), noise_levels=(0.0,), method="exact",
        properties=(PropertySpec(Property.SAT), PropertySpec(Property.LIV),
                    PropertySpec(Property.SAF, safety_pair=("a", "b"))),
    )
    report = json.loads(run_matrix(config).to_json())
    assert [record["node_count"] for record in report["configurations"]] == [5, 5, 5]
    workload = workloads.Workload("tiny", [], configs=3, exact=False, compare_oracle=True)
    checker = workloads.Checker(workload)
    assert checker.check(report, 0) == []

    record = report["configurations"][1]
    node = next(iter(record["phi"]))
    record["phi"][node] += 0.25
    assert checker.check(report, 0) == [
        f"{record['id']}: prover phi differs from the oracle's exact phi"]
