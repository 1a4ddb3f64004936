"""Configuration sweeps (noise level x property), report assembly and
file emission.

A *configuration* is one (noise level, property) pair on one log.  Each
configuration mines a tree, estimates Shapley values over the coalition
game of all its nodes and runs the per-configuration diagnostics;
cross-configuration analyses (ranking stability, noise correlation,
adaptive nodes) follow.  Reports are canonical: re-running with the same
config and seed reproduces report.json byte for byte, whatever the log's
location and the working directory, since the log is named by its
basename and the sha256 of its bytes, never by its path.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import (
    DiagnosticsConfig,
    adaptive_nodes,
    classify,
    jaccard,
    noise_correlation,
    quality_perspectives,
    summarize_attributions,
    top_k,
)
from .event_log import parse_xes
from .logic_encoder import ProverConfig
from .miner import MinerConfig, discover
from .oracle import (
    Property,
    PropertySpec,
    TauMode,
    ValueCache,
    evaluate_rows,
)
from .process_tree import (
    ProcessTree,
    export_dot,
    iter_nodes,
    tree_from_text,
    tree_to_text,
)
from .shapley import (
    mc_permutation_shapley,
    rooted_shapley,
    rs_subset_shapley,
    tree_shapley,
)

DEFAULT_NOISE_LEVELS = (0.0, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class RunConfig:
    log_path: str
    noise_levels: tuple[float, ...] = DEFAULT_NOISE_LEVELS
    properties: tuple[PropertySpec, ...] = (PropertySpec(Property.SAT),)
    method: str = "mc"  # exact | mc | rs
    permutations: int = 2000
    checkpoint_every: int = 100
    epsilon: float = 0.01
    min_permutations: int = 1000
    samples_per_player: int = 200
    seed: int | None = None
    prover: ProverConfig | None = None  # None: the oracle
    diagnostics: DiagnosticsConfig = DiagnosticsConfig()

    def __post_init__(self) -> None:
        if not self.noise_levels:
            raise ValueError("at least one noise level is required")
        if not self.properties:
            raise ValueError("at least one property is required")
        if self.method not in ("exact", "mc", "rs"):
            raise ValueError("method must be exact, mc or rs")
        if self.method in ("mc", "rs") and self.seed is None:
            raise ValueError(
                f"method {self.method!r} requires an explicit seed for "
                f"reproducibility"
            )
        if self.permutations < 1:
            raise ValueError("permutations must be at least 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        if self.samples_per_player < 1:
            raise ValueError("samples_per_player must be at least 1")
        # Equal ids would write their configurations to the same files.
        ids = [config_id(noise, spec)
               for noise in self.noise_levels for spec in self.properties]
        duplicates = [i for i in dict.fromkeys(ids) if ids.count(i) > 1]
        if duplicates:
            raise ValueError(f"duplicate configurations: {', '.join(duplicates)}")

    @property
    def backend(self) -> str:
        """"prover" when a ``ProverConfig`` is set, else "oracle"."""
        return "oracle" if self.prover is None else "prover"


@dataclass
class AttributionReport:
    meta: dict
    configurations: list[dict]
    cross: dict

    def to_json(self) -> str:
        payload = {
            "meta": self.meta,
            "configurations": self.configurations,
            "cross": self.cross,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AttributionReport":
        """The report in *text*; ``ValueError`` names the first missing or
        mistyped key among the ones that ``emit_report`` and
        ``render_summary`` read: the top-level, ``meta`` and ``cross``
        keys, each label's ``cross`` entries, and each record's by index."""

        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("not a report: the JSON is not an object")
        for where, types in _REPORT_KEYS.items():
            _check_keys(payload if where == "report" else payload[where], types, where)
        cross = payload["cross"]
        for label, pairs in cross["topk_jaccard_across_noise"].items():
            _check_keys(pairs, dict.fromkeys(pairs, _NUMBER),
                        f"cross topk_jaccard_across_noise {label!r}")
        for label, corr in cross["noise_correlation"].items():
            _check_keys(corr, {"r": _NUMBER, "zero_variance": bool},
                        f"cross noise_correlation {label!r}")
        adaptive = cross["adaptive_nodes"]
        _check_keys(adaptive, dict.fromkeys(adaptive, list), "cross adaptive_nodes")
        for label, nodes in adaptive.items():
            for index, entry in enumerate(nodes):
                _check_keys(entry, {"node": str, "reason": str},
                            f"cross adaptive_nodes {label!r} entry {index}")
        for index, record in enumerate(payload["configurations"]):
            where = f"configuration {index}"
            _check_keys(record, {"id": str}, where)
            if record.get("error"):
                continue
            _check_keys(record, _RECORD_KEYS, where)
            for part, types in _RECORD_PARTS.items():
                _check_keys(record[part], types, f"{where} {part}")
            phi, classes = record["phi"], record["classification"]
            _check_keys(phi, dict.fromkeys(phi, _NUMBER), f"{where} phi")
            _check_keys(classes, dict.fromkeys(phi, dict), f"{where} classification")
            for node in phi:
                _check_keys(classes[node], {"class": str, "sign": str},
                            f"{where} classification {node!r}")
            for node in record["top_k"]:
                if not isinstance(node, str) or node not in phi:
                    raise ValueError(f"not a report: {where} top_k names {node!r}, "
                                     "which phi lacks")
        return cls(
            meta=payload["meta"],
            configurations=payload["configurations"],
            cross=payload["cross"],
        )


def _check_keys(part: object, types: dict, where: str) -> None:
    if not isinstance(part, dict):
        raise ValueError(f"not a report: {where} is not an object")
    for key, kind in types.items():
        if key not in part or not isinstance(part[key], kind):
            problem = "mistyped" if key in part else "missing"
            raise ValueError(f"not a report: {where} key {key!r} is {problem}")


# The keys render_summary and emit_report read, with their JSON types, by
# part of the report: the report's, and a configuration record's that has
# no error.
_NUMBER = (int, float)
_REPORT_KEYS = {
    "report": {"meta": dict, "configurations": list, "cross": dict},
    "meta": {"configuration_count": int, "noise_levels": list, "properties": list,
             "method": str, "backend": str, "seed": (int, type(None))},
    "cross": {"topk_jaccard_across_noise": dict, "noise_correlation": dict,
              "adaptive_nodes": dict, "baseline_noise": _NUMBER},
}
_RECORD_KEYS = {"noise": _NUMBER, "property": str, "tree": str, "node_count": int,
                "phi": dict, "classification": dict, "class_counts": dict,
                "cache": dict, "summary": dict, "top_k": list}
_RECORD_PARTS = {
    "class_counts": {"critical": int, "neutral": int, "redundant": int},
    "cache": {"total_queries": int, "distinct_queries": int, "warnings": list},
    "summary": {"mean_abs_phi": _NUMBER, "positive_sum": _NUMBER, "negative_sum": _NUMBER},
}


def property_label(spec: PropertySpec) -> str:
    if spec.prop is Property.SAF and spec.safety_pair:
        pair = "_".join(_fs_safe(x) for x in spec.safety_pair)
        return f"saf_{pair}"
    return spec.prop.value


def _fs_safe(text: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in text)


def config_id(noise: float, spec: PropertySpec) -> str:
    return f"noise{noise:g}_{property_label(spec)}"


def _config_seed(base: int, index: int) -> int:
    return (base * 1_000_003 + index) & 0x7FFFFFFF


def _finite(x: float | None) -> float | None:
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def warn_if_degenerate(spec: PropertySpec, cache: ValueCache) -> None:
    """Record the warning for sat and liv in skip mode: every coalition wins."""

    if spec.mode is TauMode.SKIP and spec.prop in (Property.SAT, Property.LIV):
        cache.warnings.append(
            f"{spec.prop.value} is degenerate in skip mode: every coalition "
            f"evaluates to 1"
        )


def run_single(
    config: RunConfig,
    tree: ProcessTree,
    noise: float,
    spec: PropertySpec,
    seed: int | None,
    prover_memo: dict | None = None,
) -> dict:
    """Attribution and diagnostics for one mined tree and one property.

    Exact values on the oracle backend come from ``tree_shapley``, which
    evaluates no coalition, so the cache counters read 0 there.  Every
    other estimator asks one ``verdicts`` function, built here once, for
    batches of coalitions as 0/1 rows: it is ``evaluate_rows`` over this
    configuration's cache, the one query path.  The oracle folds every
    row it is handed; ``total_queries`` counts the rows and
    ``distinct_queries`` the distinct ones (distinct canonical forms on
    the prover).  Exact values on the prover backend come from
    ``rooted_shapley``, which asks for one verdict per canonical form
    (rooted subtree or empty set) in one batch, so the counters count
    canonical forms; the samplers ask per rotation block (MC) or once
    (RS), plus v(empty) first for MC, and for sat and liv, which are
    monotone, the permutation sampler ties the veto players after two
    more batches; rows change how a batch is represented, not what it
    holds.  The prover decides a batch in rounds from the maximal forms
    down, so it is handed only the forms no real verdict on a larger or
    smaller form settles, whether that verdict came in the same batch
    or an earlier one of this configuration.  Prover calls go through
    *prover_memo* (problem text to SZS status), which ``run_matrix``
    shares across its configurations."""

    nodes = list(iter_nodes(tree))
    n = len(nodes)
    id_text = {i: node.node_id.text for i, node in enumerate(nodes)}
    cache = ValueCache()
    warn_if_degenerate(spec, cache)

    def verdicts(rows: np.ndarray) -> np.ndarray:
        return evaluate_rows(tree, rows, spec, cache, config.prover, prover_memo)

    convergence = None
    if config.method == "exact" and config.prover is None:
        estimate = tree_shapley(tree, spec)
    elif config.method == "exact":
        estimate = rooted_shapley(tree, verdicts)
    elif config.method == "mc":
        estimate, report = mc_permutation_shapley(
            n,
            verdicts,
            permutations=config.permutations,
            seed=seed,
            checkpoint_every=config.checkpoint_every,
            epsilon=config.epsilon,
            min_permutations=config.min_permutations,
            monotone=spec.prop in (Property.SAT, Property.LIV),
        )
        convergence = {
            "delta_max": _finite(report.delta_max),
            "checkpoints": [
                {"permutations": k, "phi": {id_text[p]: v for p, v in snap.items()}}
                for k, snap in report.checkpoints
            ],
        }
    else:
        estimate = rs_subset_shapley(
            n, verdicts, samples_per_player=config.samples_per_player, seed=seed
        )

    phi = {id_text[p]: float(v) for p, v in estimate.phi.items()}
    classification = classify(phi, config.diagnostics)
    ranked = top_k(phi, config.diagnostics.top_k)

    return {
        "noise": noise,
        "property": spec.prop.value,
        "safety_pair": list(spec.safety_pair) if spec.safety_pair else None,
        "tau_mode": spec.mode.value,
        "loop_bound": spec.loop_bound,
        "tree": tree_to_text(tree),
        "node_count": n,
        "phi": phi,
        "method": {
            "name": estimate.method,
            "seed": estimate.seed,
            "samples": max(estimate.samples.values()) if estimate.samples else 0,
            "convergence": convergence,
        },
        "cache": {
            "total_queries": cache.total_queries,
            "distinct_queries": cache.distinct_queries,
            "warnings": list(cache.warnings),
        },
        "classification": {
            key: {"class": c.label, "sign": c.sign, "harmful": c.harmful}
            for key, c in classification.classes.items()
        },
        "class_counts": classification.counts(),
        "top_k": list(ranked),
        "summary": summarize_attributions(phi, tree),
        "quality_perspectives": quality_perspectives(phi),
        "error": None,
    }


def run_matrix(config: RunConfig) -> AttributionReport:
    """Run the full noise x property sweep over one log.

    Configuration failures are recorded in the report without aborting
    sibling configurations.  Deterministic for a fixed seed.

    Configurations run in order on the calling thread, whatever the
    backend: the oracle is pure Python under the GIL, and the prover
    backend overlaps its calls within one configuration
    (``logic_encoder.values_via_prover``).  The configurations share one
    prover memo from problem text to SZS status, made afresh for each
    call: equal problems cost one prover call, whichever configuration
    or liv's sat gate asks for them."""

    log = parse_xes(config.log_path)
    if not log.variants:
        raise ValueError(f"event log {config.log_path} has no traces")
    trees: dict[float, ProcessTree] = {}
    mining_errors: dict[float, str] = {}
    for noise in config.noise_levels:
        try:
            trees[noise] = discover(log, MinerConfig(noise=noise))
        except Exception as exc:  # recorded per configuration below
            mining_errors[noise] = f"{type(exc).__name__}: {exc}"

    prover_memo: dict = {}

    def run_job(index: int, noise: float, spec: PropertySpec) -> dict:
        base = {
            "id": config_id(noise, spec),
            "noise": noise,
            "property": spec.prop.value,
        }
        if noise in mining_errors:
            return {**base, "error": mining_errors[noise], "phi": {}}
        seed = (
            _config_seed(config.seed, index) if config.seed is not None else None
        )
        try:
            record = run_single(config, trees[noise], noise, spec, seed, prover_memo)
            return {**base, **record}
        except Exception as exc:
            return {**base, "error": f"{type(exc).__name__}: {exc}", "phi": {}}

    records = [
        run_job(index, noise, spec)
        for index, (noise, spec) in enumerate(
            (n, s) for n in config.noise_levels for s in config.properties
        )
    ]

    cross = _cross_analyses(config, records)
    meta = {
        "log_name": Path(config.log_path).name,
        "log_sha256": _file_sha256(config.log_path),
        "trace_count": len(log),
        "alphabet_size": len(log.alphabet),
        "noise_levels": list(config.noise_levels),
        "properties": [
            {
                "property": s.prop.value,
                "safety_pair": list(s.safety_pair) if s.safety_pair else None,
                "tau_mode": s.mode.value,
                "loop_bound": s.loop_bound,
            }
            for s in config.properties
        ],
        "configuration_count": len(records),
        "method": config.method,
        "seed": config.seed,
        "backend": config.backend,
        "top_k": config.diagnostics.top_k,
        "thresholds": {
            "critical": config.diagnostics.critical_threshold,
            "redundant": config.diagnostics.redundant_threshold,
        },
    }
    return AttributionReport(meta=meta, configurations=records, cross=cross)


def _file_sha256(path: str | Path) -> str:
    """Hex sha256 of a file's bytes as stored (a .xes.gz is hashed
    compressed), read into one reused 64 KiB buffer so that hashing a
    large log allocates nothing per chunk."""

    digest = hashlib.sha256()
    buffer = bytearray(1 << 16)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as handle:
        while size := handle.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


def _cross_analyses(config: RunConfig, records: list[dict]) -> dict:
    by_property: dict[str, list[dict]] = {}
    for record in records:
        if record.get("error"):
            continue
        spec_label = record["property"]
        if record.get("safety_pair"):
            spec_label += ":" + ",".join(record["safety_pair"])
        by_property.setdefault(spec_label, []).append(record)

    stability: dict[str, dict] = {}
    correlations: dict[str, dict] = {}
    adaptive: dict[str, list] = {}
    for label, group in by_property.items():
        group = sorted(group, key=lambda r: r["noise"])
        tops = {
            r["noise"]: top_k(r["phi"], config.diagnostics.top_k) for r in group
        }
        pairs = {}
        levels = [r["noise"] for r in group]
        for i, a in enumerate(levels):
            for b in levels[i + 1 :]:
                pairs[f"{a:g} vs {b:g}"] = jaccard(tops[a], tops[b])
        stability[label] = pairs

        if len(group) >= 2:
            corr = noise_correlation(
                [(r["noise"], r["summary"]["mean_abs_phi"]) for r in group]
            )
            correlations[label] = {
                "r": corr.r,
                "zero_variance": corr.zero_variance,
            }

        baseline = min(levels)
        per_noise = {r["noise"]: r["phi"] for r in group}
        adaptive[label] = adaptive_nodes(per_noise, baseline, config.diagnostics)

    return {
        "topk_jaccard_across_noise": stability,
        "noise_correlation": correlations,
        "adaptive_nodes": adaptive,
        "baseline_noise": min(config.noise_levels),
    }


def emit_report(report: AttributionReport, out_dir: str | Path) -> list[Path]:
    """Write report.json, rankings.csv, noise_series.csv, one DOT file per
    configuration and a plain-text summary into *out_dir*.  Every file's
    text is rendered before the first is written, so a report that does
    not render leaves nothing behind."""

    files = [("report.json", report.to_json())]

    rankings = io.StringIO()
    writer = csv.writer(rankings, lineterminator="\n")
    writer.writerow(["config", "node_id", "phi", "abs_phi", "rank", "class", "sign"])
    for record in report.configurations:
        if record.get("error"):
            continue
        phi = record["phi"]
        ranked = top_k(phi, max(len(phi), 1)) if phi else []
        for rank, node in enumerate(ranked, start=1):
            cls = record["classification"][node]
            writer.writerow(
                [
                    record["id"],
                    node,
                    f"{phi[node]:.6f}",
                    f"{abs(phi[node]):.6f}",
                    rank,
                    cls["class"],
                    cls["sign"],
                ]
            )
    files.append(("rankings.csv", rankings.getvalue()))

    series = io.StringIO()
    writer = csv.writer(series, lineterminator="\n")
    writer.writerow(
        ["config", "property", "noise", "mean_abs_phi", "positive_sum", "negative_sum"]
    )
    for record in report.configurations:
        if record.get("error"):
            continue
        summary = record["summary"]
        writer.writerow(
            [
                record["id"],
                record["property"],
                f"{record['noise']:g}",
                f"{summary['mean_abs_phi']:.6f}",
                f"{summary['positive_sum']:.6f}",
                f"{summary['negative_sum']:.6f}",
            ]
        )
    files.append(("noise_series.csv", series.getvalue()))

    for record in report.configurations:
        if record.get("error") or not record.get("tree"):
            continue
        tree = tree_from_text(record["tree"])
        files.append((f"tree_{record['id']}.dot", export_dot(tree, record["phi"])))

    files.append(("summary.txt", render_summary(report)))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files:
        (out / name).write_text(text)
    return [out / name for name, _ in files]


def render_summary(report: AttributionReport) -> str:
    lines = [
        # reports written before log_name existed carry log_path instead
        f"log: {report.meta.get('log_name', report.meta.get('log_path'))}",
        f"configurations: {report.meta['configuration_count']} "
        f"({len(report.meta['noise_levels'])} noise levels x "
        f"{len(report.meta['properties'])} properties)",
        f"method: {report.meta['method']}  backend: {report.meta['backend']}  "
        f"seed: {report.meta['seed']}",
        "",
    ]
    for record in report.configurations:
        lines.append(f"[{record['id']}]")
        if record.get("error"):
            lines.append(f"  error: {record['error']}")
            lines.append("")
            continue
        counts = record["class_counts"]
        cache = record["cache"]
        lines.append(
            f"  nodes: {record['node_count']}  "
            f"critical: {counts['critical']}  neutral: {counts['neutral']}  "
            f"redundant: {counts['redundant']}"
        )
        lines.append(
            f"  queries: {cache['total_queries']} total, "
            f"{cache['distinct_queries']} distinct"
            + (f", {len(cache['warnings'])} warnings" if cache["warnings"] else "")
        )
        tops = ", ".join(
            f"{node} ({record['phi'][node]:+.3f})" for node in record["top_k"]
        )
        lines.append(f"  top-{len(record['top_k'])}: {tops}")
        lines.append("")
    lines.append("ranking stability (top-k Jaccard across noise levels):")
    for label, pairs in sorted(report.cross["topk_jaccard_across_noise"].items()):
        for pair, value in sorted(pairs.items()):
            lines.append(f"  {label}  {pair}: {value:.3f}")
    lines.append("")
    lines.append("noise correlation of mean |phi|:")
    for label, corr in sorted(report.cross["noise_correlation"].items()):
        flag = " (zero variance)" if corr["zero_variance"] else ""
        lines.append(f"  {label}: r={corr['r']:.3f}{flag}")
    lines.append("")
    lines.append("adaptive nodes vs baseline noise "
                 f"{report.cross['baseline_noise']:g}:")
    for label, nodes in sorted(report.cross["adaptive_nodes"].items()):
        if not nodes:
            lines.append(f"  {label}: none")
        for entry in nodes:
            lines.append(f"  {label}: {entry['node']} - {entry['reason']}")
    return "\n".join(lines) + "\n"
