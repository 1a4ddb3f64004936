"""The four benchmark workloads: their inputs, CLI arguments and output
checks.

Each workload is a closed loop of ``procshap matrix`` passes with one
client.  Inputs depend only on the workload name and the seed.  Synthetic
trees are drawn with a fixed node count and, for the large log, within
fixed windows of trace length and miner work, so that changing the seed
changes the content of a workload but hardly its amount of work: a spread
across seeds would otherwise swamp the bounds.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import stat
import sys
from dataclasses import dataclass, field
from pathlib import Path

from simulate import (Node, REDO_P, concurrency_complete, random_tree, simulate,
                      write_xes)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUNDLED_LOG = ROOT / "src" / "procshap" / "data" / "running_example.xes"
BUNDLED_PAIR = "pay compensation,reject request"
REFERENCES = BENCH / "references.json"

WHY = {
    "bundled-exact": "bundled 6-trace log, 12 configurations by 2^n enumeration: "
                     "shapley, oracle and ValueCache do the work; parse and mining ~0",
    "synth-mc": "3k-trace simulated log, 43-node tree, MC sampling: oracle and sampler "
                "with partial query reuse, the large-model path",
    "synth-large": "~20k-trace simulated log with >10k variants, light game: XES parsing "
                   "and discovery dominate",
    "prover-exact": "8-node tree, exact sat/liv through the stub TPTP prover: the only "
                    "workload that runs logic_encoder, one subprocess per query",
}

MC_WEIGHTS = {"seq": 1.0, "xor": 1.0, "and": 0.7, "loop": 0.5, "optional": 0.1}
LARGE_WEIGHTS = {"seq": 1.0, "xor": 0.7, "and": 1.2, "loop": 0.5, "optional": 0.1}
MC_LENGTH = (5.5, 7.0)  # mean events per trace
MC_VISITED = (10.8, 11.2)  # expected nodes per query, see _visited
PROVER_SAT = (3, 3)  # sat coalitions of the 8-node tree, see _sat_coalitions
LARGE_EVENTS = 200_000
LARGE_LENGTH = (9.0, 11.0)  # mean events per trace
LARGE_DEPTH = (3.4, 3.75)  # miner work: events in all sub-logs per event
LARGE_PILOT = (2000, 1750)  # pilot traces, least distinct variants among them


@dataclass
class Workload:
    name: str
    cli_args: list[str]
    configs: int
    exact: bool
    compare_oracle: bool = False
    reference: dict | None = None
    info: dict = field(default_factory=dict)


def _expected(node: Node) -> float:
    """Expected events one execution of *node* emits."""
    if node.op is None:
        return 1.0 if node.label else 0.0
    if node.op == "xor":
        return sum(map(_expected, node.children)) / len(node.children)
    if node.op == "loop":
        do, redo = node.children
        redos = REDO_P / (1 - REDO_P)
        return _expected(do) + redos * (_expected(redo) + _expected(do))
    return sum(map(_expected, node.children))


def _sublog_events(node: Node, executions: float = 1.0) -> float:
    """Expected events per trace summed over the sub-logs of every
    operator node: the events a miner rediscovering the tree scans."""
    if node.op is None:
        return 0.0
    own = executions * _expected(node)
    if node.op == "xor":
        share = [executions / len(node.children)] * len(node.children)
    elif node.op == "loop":
        redos = REDO_P / (1 - REDO_P)
        share = [executions * (1 + redos), executions * redos]
    else:
        share = [executions] * len(node.children)
    return own + sum(_sublog_events(c, s) for c, s in zip(node.children, share))


def _visited(node: Node, depth: int = 0) -> float:
    """Expected nodes one Monte Carlo query walks.  A node is reached when
    all its *depth* ancestors are in the coalition; for a prefix of random
    length of a random permutation that has probability 1/(depth + 1)."""
    return 1 / (depth + 1) + sum(_visited(c, depth + 1) for c in node.children)


def _mc_work(tree: Node, rng: random.Random) -> bool:
    return (MC_VISITED[0] <= _visited(tree) <= MC_VISITED[1]
            and MC_LENGTH[0] <= _expected(tree) <= MC_LENGTH[1])


def _large_work(tree: Node, rng: random.Random) -> bool:
    length = _expected(tree)
    if not (LARGE_LENGTH[0] <= length <= LARGE_LENGTH[1]
            and LARGE_DEPTH[0] <= _sublog_events(tree) / length <= LARGE_DEPTH[1]):
        return False
    # A pilot this varied gives more than 10k variants in the full log.
    pilot = simulate(tree, LARGE_PILOT[0], rng)
    return len(set(map(tuple, pilot))) >= LARGE_PILOT[1]


def _sat_coalitions(tree: Node) -> int:
    """Coalitions (masks over the preorder nodes) whose reduced tree has a
    complete run, i.e. sat in blocked mode.  For each of these a liv query
    costs a second prover call."""
    nodes = []

    def index(node: Node) -> None:
        nodes.append(node)
        for child in node.children:
            index(child)

    index(tree)
    position = {id(node): i for i, node in enumerate(nodes)}

    def completes(node: Node, mask: int) -> bool:
        if not mask >> position[id(node)] & 1:
            return False
        if node.op == "xor":
            return any(completes(c, mask) for c in node.children)
        if node.op == "loop":
            return completes(node.children[0], mask)
        return all(completes(c, mask) for c in node.children)

    return sum(completes(tree, mask) for mask in range(1 << len(nodes)))


def _prover_work(tree: Node, rng: random.Random) -> bool:
    return PROVER_SAT[0] <= _sat_coalitions(tree) <= PROVER_SAT[1]


def _draw(rng: random.Random, activities: int, nodes: int, weights: dict,
          accept, traces: int = 0, events: int = 0) -> tuple[Node, list]:
    """A tree passing *accept* and a log of *traces* traces (or of at least
    *events* events) that shows all its concurrency."""
    while True:
        tree = random_tree(rng, activities, nodes, weights)
        if not accept(tree, rng):
            continue
        if events:
            log, total = [], 0
            while total < events:
                log.append(simulate(tree, 1, rng)[0])
                total += len(log[-1])
        else:
            log = simulate(tree, traces, rng)
        if concurrency_complete(tree, log):
            return tree, log


def _write_log(tree: Node, log: list, workdir: Path) -> dict:
    path = workdir / "log.xes"
    size = write_xes(log, str(path))
    return {"log": str(path), "traces": len(log), "events": sum(map(len, log)),
            "variants": len(set(map(tuple, log))), "xes_mb": size / 1e6,
            "tree_nodes": tree.size()}


def _pair(tree: Node) -> str:
    first, second = tree.labels()[:2]
    return f"{first},{second}"


def _stub_prover(workdir: Path) -> str:
    """An executable copy of stub_prover.py; -S skips site-packages, so a
    call costs little more than an interpreter start."""
    path = workdir / "stub_prover"
    source = (BENCH / "stub_prover.py").read_text()
    path.write_text(f"#!{sys.executable} -S\n{source}")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    if name == "bundled-exact":
        workload = Workload(name, [
            "matrix", "--log", str(BUNDLED_LOG), "--noise", "0,0.25,0.5,1",
            "--property", "sat,liv,saf", "--safety-pair", BUNDLED_PAIR,
            "--method", "exact"], configs=12, exact=True)
    elif name == "synth-mc":
        tree, log = _draw(rng, 24, 43, MC_WEIGHTS, _mc_work, traces=3000)
        info = _write_log(tree, log, workdir)
        workload = Workload(name, [
            "matrix", "--log", info["log"], "--noise", "0", "--property", "sat,liv,saf",
            "--safety-pair", _pair(tree), "--method", "mc", "--permutations", "1000",
            "--seed", str(seed)], configs=3, exact=False, info=info)
    elif name == "synth-large":
        tree, log = _draw(rng, 24, 43, LARGE_WEIGHTS, _large_work, events=LARGE_EVENTS)
        info = _write_log(tree, log, workdir)
        workload = Workload(name, [
            "matrix", "--log", info["log"], "--noise", "0", "--property", "sat,liv,saf",
            "--safety-pair", _pair(tree), "--method", "mc", "--permutations", "50",
            "--seed", str(seed)], configs=3, exact=False, info=info)
    elif name == "prover-exact":
        tree, log = _draw(rng, 5, 8, MC_WEIGHTS, _prover_work, traces=100)
        info = _write_log(tree, log, workdir)
        workload = Workload(name, [
            "matrix", "--log", info["log"], "--noise", "0", "--property", "sat,liv",
            "--method", "exact", "--backend", "prover",
            "--prover-path", _stub_prover(workdir)],
            configs=2, exact=True, compare_oracle=True, info=info)
    else:
        raise ValueError(f"unknown workload {name!r}")
    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    entry = references.get(name)
    if entry and entry["seed"] in (None, seed):
        workload.reference = entry["configs"]
    return workload


def tree_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_entry(workload: Workload, report: dict, seed: int) -> dict:
    """The references a later run compares against: mined-tree digests for
    every configuration and exact phi where the method is exact."""
    configs = {}
    for record in report["configurations"]:
        entry = {"tree_sha256": tree_digest(record["tree"])}
        if workload.exact:
            entry["phi"] = record["phi"]
        configs[record["id"]] = entry
    return {"seed": None if workload.name == "bundled-exact" else seed, "configs": configs}


class Checker:
    """Output checks of one pass; values computed with procshap itself
    (oracle exact phi, v(N) and v(empty)) are cached across passes."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.memo: dict = {}

    def check(self, report: dict | None, exit_code: int) -> list[str]:
        """One message per failed configuration; a pass that exits non-zero
        or writes no full report fails every configuration."""
        w = self.workload
        if exit_code != 0 or report is None:
            return [f"pass failed (exit {exit_code})"] * w.configs
        records = report.get("configurations", [])
        failures = ["missing configuration"] * max(0, w.configs - len(records))
        for record in records:
            problem = self._problem(record)
            if problem:
                failures.append(f"{record.get('id')}: {problem}")
        return failures

    def _problem(self, record: dict) -> str | None:
        if record.get("error"):
            return f"error {record['error']}"
        # No workload expects a warning; the prover's Timeout and Unknown
        # verdicts are reported as warnings.
        warnings = record["cache"]["warnings"]
        if warnings:
            return f"{len(warnings)} warnings, the first: {warnings[0]}"
        reference = (self.workload.reference or {}).get(record["id"])
        if self.workload.reference is not None:
            if reference is None:
                return "no reference for this configuration"
            if tree_digest(record["tree"]) != reference["tree_sha256"]:
                return "mined tree differs from the reference"
            if "phi" in reference and record["phi"] != reference["phi"]:
                return "exact phi differs from the reference"
        if self.workload.compare_oracle and record["phi"] != self._oracle_phi(record):
            return "prover phi differs from the oracle's exact phi"
        if not self.workload.exact:
            gap = sum(record["phi"].values()) - self._grand_value(record)
            if abs(gap) > 1e-9:
                return f"efficiency violated: sum(phi) - (v(N) - v(empty)) = {gap!r}"
        return None

    def _spec(self, record: dict):
        from procshap.oracle import Property, PropertySpec, TauMode

        pair = tuple(record["safety_pair"]) if record["safety_pair"] else None
        return PropertySpec(Property(record["property"]), safety_pair=pair,
                            mode=TauMode(record["tau_mode"]),
                            loop_bound=record["loop_bound"])

    def _grand_value(self, record: dict) -> int:
        from procshap.oracle import evaluate
        from procshap.process_tree import Coalition, node_count, tree_from_text

        key = ("grand", record["tree"], record["id"])
        if key not in self.memo:
            tree = tree_from_text(record["tree"])
            n = node_count(tree)
            spec = self._spec(record)
            self.memo[key] = (evaluate(tree, Coalition.full(n), spec)
                              - evaluate(tree, Coalition.empty(n), spec))
        return self.memo[key]

    def _oracle_phi(self, record: dict) -> dict:
        from procshap.oracle import ValueCache, evaluate
        from procshap.process_tree import iter_nodes, tree_from_text
        from procshap.shapley import Game, exact_shapley

        key = ("phi", record["tree"], record["id"])
        if key not in self.memo:
            tree = tree_from_text(record["tree"])
            nodes = list(iter_nodes(tree))
            spec, cache = self._spec(record), ValueCache()
            game = Game(n=len(nodes), value=lambda c: evaluate(tree, c, spec, cache))
            phi = exact_shapley(game).phi
            self.memo[key] = {nodes[p].node_id.text: float(v) for p, v in phi.items()}
        return self.memo[key]


def run_record() -> dict:
    import platform

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "src_lines": src_lines}
