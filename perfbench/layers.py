"""Per-layer metrics computed from the spans of one traced pass.

A layer is a procshap module; its spans come from ``tracing.TARGETS``.  A
span's self time is its duration minus the time its direct children cover.
Durations are wall time per thread: with the CLI's two worker threads a
sum over spans can reach twice the pass, and time spent waiting for the GIL
counts where the wait happens.  A metric whose traced function no longer
exists is reported as absent (None), not zero; a metric of a layer the
workload never calls is zero, also for a percentile of no samples.

``MOVES`` records, before any optimisation, which end-to-end metric on
which workload each layer's metrics should move.
"""

from __future__ import annotations

import json
from collections import defaultdict

import numpy as np

from tracing import FIELDS

MOVES = {
    "event_log": "run_s and cpu_s on synth-large; about 0 on bundled-exact",
    "miner": "run_s on synth-large, a little on synth-mc",
    "process_tree": "run_s on bundled-exact and synth-mc",
    "oracle": "run_s and cpu_s on bundled-exact and synth-mc; "
              "cache_entries moves peak_rss_mb on bundled-exact",
    "shapley": "run_s on bundled-exact (enumeration) and synth-mc (sampler)",
    "logic_encoder": "run_s and cpu_s on prover-exact only",
    "diagnostics": "run_s everywhere, a small share",
    "reports": "run_s against cpu_s on every matrix workload",
    "trace": "nothing: the cost of tracing itself",
}

DECISIVE = {"Theorem", "CounterSatisfiable", "Satisfiable", "Unsatisfiable"}
PROPS = ("sat", "liv", "saf")


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class Trace:
    def __init__(self, prefix: str) -> None:
        with open(prefix + ".json") as handle:
            meta = json.load(handle)
        spans = np.fromfile(prefix + ".bin", dtype=np.float64).reshape(-1, FIELDS)
        self.names = meta["names"]
        self.missing = set(meta["missing"])
        self.configs = meta["configs"]
        self.run_s = meta["t_end"] - meta["t_start"]
        self.extras: dict[tuple[str, str], list] = defaultdict(list)
        for span, key, value in meta["extras"]:
            self.extras[(span, key)].append(value)
        self.name = spans[:, 0].astype(np.int64)
        self.t0 = spans[:, 3]
        self.t1 = spans[:, 4]
        self.dur = self.t1 - self.t0
        self.self_time = self.dur - spans[:, 5]

    def select(self, prefix: str) -> np.ndarray:
        """Mask of spans named *prefix* or ``prefix.*``."""
        ids = [i for i, n in enumerate(self.names)
               if n == prefix or n.startswith(prefix + ".")]
        return np.isin(self.name, ids)

    def total(self, prefix: str) -> float:
        return float(self.dur[self.select(prefix)].sum())

    def self_s(self, prefix: str) -> float:
        return float(self.self_time[self.select(prefix)].sum())

    def count(self, prefix: str) -> int:
        return int(self.select(prefix).sum())

    def durations(self, prefix: str) -> np.ndarray:
        return self.dur[self.select(prefix)]

    def extra(self, span: str, key: str) -> list:
        return self.extras.get((span, key), [])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _parallelism(t: Trace) -> float:
    sel = t.select("reports.run_single")
    if not sel.any():
        return 0.0
    wall = t.t1[sel].max() - t.t0[sel].min()
    return _ratio(float(t.dur[sel].sum()), float(wall))


def _canonical_ratio(t: Trace) -> float:
    raw = sum(c["distinct_raw"] for c in t.configs.values())
    canonical = sum(c["distinct_canonical"] for c in t.configs.values())
    return _ratio(canonical, raw)


def _queries_per_player(t: Trace) -> float:
    return _ratio(t.count("oracle.evaluate"), sum(t.extra("shapley", "players")))


def _compute_us(prop: str, q: float):
    return lambda t: 1e6 * _pct(t.durations(f"oracle.compute.{prop}"), q)


def _unknown(t: Trace) -> int:
    return sum(1 for s in t.extra("logic_encoder.prover", "status") if s not in DECISIVE)


# name, unit, better, traced span names it needs, computation
METRICS = [
    ("event_log.parse_s", "s", "lower", ["event_log.parse"], lambda t: t.total("event_log.parse")),
    ("event_log.parse_mb_per_s", "MB/s", "higher", ["event_log.parse"],
     lambda t: _ratio(sum(t.extra("event_log.parse", "bytes")) / 1e6, t.total("event_log.parse"))),
    ("event_log.dfg_s", "s", "lower", ["event_log.dfg"], lambda t: t.total("event_log.dfg")),
    ("event_log.dfg_calls", "count", "lower", ["event_log.dfg"], lambda t: t.count("event_log.dfg")),
    ("event_log.dfg_events", "count", "lower", ["event_log.dfg"],
     lambda t: sum(t.extra("event_log.dfg", "events"))),
    ("event_log.self_s", "s", "lower", ["event_log.parse", "event_log.dfg"],
     lambda t: t.self_s("event_log")),
    ("miner.discover_s", "s", "lower", ["miner.discover"], lambda t: t.total("miner.discover")),
    ("miner.self_s", "s", "lower", ["miner.discover"], lambda t: t.self_s("miner")),
    ("miner.ms_per_1k_traces", "ms", "lower", ["miner.discover"],
     lambda t: _ratio(1e3 * t.total("miner.discover"), sum(t.extra("miner.discover", "traces")) / 1e3)),
    ("miner.tree_nodes", "count", "lower", ["miner.discover"],
     lambda t: float(np.mean(t.extra("miner.discover", "nodes") or [0]))),
    ("process_tree.substitute_calls", "count", "lower", ["process_tree.substitute"],
     lambda t: t.count("process_tree.substitute")),
    ("process_tree.substitute_s", "s", "lower", ["process_tree.substitute"],
     lambda t: t.total("process_tree.substitute")),
    ("process_tree.export_dot_s", "s", "lower", ["process_tree.export_dot"],
     lambda t: t.total("process_tree.export_dot")),
    ("process_tree.self_s", "s", "lower", ["process_tree.substitute", "process_tree.export_dot"],
     lambda t: t.self_s("process_tree")),
    ("oracle.queries", "count", "lower", ["oracle.evaluate"], lambda t: t.count("oracle.evaluate")),
    ("oracle.distinct", "count", "lower", ["oracle.compute"], lambda t: t.count("oracle.compute")),
    ("oracle.hit_ratio", "ratio", "higher", ["oracle.evaluate", "oracle.compute"],
     lambda t: 1.0 - _ratio(t.count("oracle.compute"), t.count("oracle.evaluate"))),
    ("oracle.canonical_ratio", "ratio", "higher", ["oracle.compute", "reports.run_single"],
     _canonical_ratio),
    *((f"oracle.compute_us_p50.{p}", "us", "lower", ["oracle.compute"], _compute_us(p, 50))
      for p in PROPS),
    *((f"oracle.compute_us_p99.{p}", "us", "lower", ["oracle.compute"], _compute_us(p, 99))
      for p in PROPS),
    ("oracle.overhead_s", "s", "lower", ["oracle.evaluate", "oracle.compute"],
     lambda t: t.total("oracle.evaluate") - t.total("oracle.compute")),
    ("oracle.cache_entries", "count", "lower", ["oracle.compute", "reports.run_single"],
     lambda t: max((c["cache_entries"] for c in t.configs.values()), default=0)),
    ("oracle.self_s", "s", "lower", ["oracle.evaluate", "oracle.compute"],
     lambda t: t.self_s("oracle")),
    ("shapley.s", "s", "lower", ["shapley.exact", "shapley.mc", "shapley.rs"],
     lambda t: t.total("shapley")),
    ("shapley.self_s", "s", "lower", ["shapley.exact", "shapley.mc", "shapley.rs"],
     lambda t: t.self_s("shapley")),
    ("shapley.samples", "count", "higher", ["shapley.exact", "shapley.mc", "shapley.rs"],
     lambda t: sum(t.extra("shapley", "samples"))),
    ("shapley.queries_per_player", "count", "lower",
     ["shapley.exact", "shapley.mc", "shapley.rs", "oracle.evaluate"], _queries_per_player),
    ("logic_encoder.encode_us_p50", "us", "lower", ["logic_encoder.encode"],
     lambda t: 1e6 * _pct(t.durations("logic_encoder.encode"), 50)),
    ("logic_encoder.emit_us_p50", "us", "lower", ["logic_encoder.emit"],
     lambda t: 1e6 * _pct(t.durations("logic_encoder.emit"), 50)),
    ("logic_encoder.problem_bytes_p50", "bytes", "lower", ["logic_encoder.emit"],
     lambda t: _pct(t.extra("logic_encoder.emit", "bytes"), 50)),
    ("logic_encoder.prover_calls", "count", "lower", ["logic_encoder.prover"],
     lambda t: t.count("logic_encoder.prover")),
    ("logic_encoder.prover_calls_per_distinct", "ratio", "lower",
     ["logic_encoder.prover", "oracle.compute"],
     lambda t: _ratio(t.count("logic_encoder.prover"), t.count("oracle.compute"))),
    ("logic_encoder.prover_ms_p50", "ms", "lower", ["logic_encoder.prover"],
     lambda t: 1e3 * _pct(t.durations("logic_encoder.prover"), 50)),
    ("logic_encoder.prover_ms_p95", "ms", "lower", ["logic_encoder.prover"],
     lambda t: 1e3 * _pct(t.durations("logic_encoder.prover"), 95)),
    ("logic_encoder.prover_wait_s", "s", "lower", ["logic_encoder.prover"],
     lambda t: t.total("logic_encoder.prover")),
    ("logic_encoder.prover_unknown", "count", "lower", ["logic_encoder.prover"], _unknown),
    ("logic_encoder.self_s", "s", "lower",
     ["logic_encoder.encode", "logic_encoder.emit", "logic_encoder.prover"],
     lambda t: t.self_s("logic_encoder")),
    ("diagnostics.s", "s", "lower", ["diagnostics.classify"], lambda t: t.self_s("diagnostics")),
    ("reports.run_single_s_p50", "s", "lower", ["reports.run_single"],
     lambda t: _pct(t.durations("reports.run_single"), 50)),
    ("reports.run_single_s_max", "s", "lower", ["reports.run_single"],
     lambda t: _pct(t.durations("reports.run_single"), 100)),
    ("reports.emit_s", "s", "lower", ["reports.emit"], lambda t: t.total("reports.emit")),
    ("reports.parallelism", "ratio", "higher", ["reports.run_single"], _parallelism),
    ("reports.self_s", "s", "lower", ["reports.run_single", "reports.emit"],
     lambda t: t.self_s("reports")),
    ("trace.run_s", "s", "lower", [], lambda t: t.run_s),
]

# The self time of each layer; diagnostics.s already excludes nesting.
SELF_TIMES = ("event_log.self_s", "miner.self_s", "process_tree.self_s", "oracle.self_s",
              "shapley.self_s", "logic_encoder.self_s", "diagnostics.s", "reports.self_s")

# Filled in by the benchmark from the traced and untraced passes.
OVERHEAD = ("trace.overhead_s", "s", "lower")


def analyze(prefix: str) -> dict[str, float | None]:
    t = Trace(prefix)
    return {
        name: None if t.missing.intersection(needs) else float(compute(t))
        for name, _unit, _better, needs, compute in METRICS
    }


def units() -> dict[str, str]:
    out = {name: unit for name, unit, *_ in METRICS}
    out[OVERHEAD[0]] = OVERHEAD[1]
    return out
