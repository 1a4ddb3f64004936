"""Configuration sweeps (noise level x property), report assembly and
file emission.

A *configuration* is one (noise level, property) pair on one log.  Each
configuration mines a tree, builds the coalition game over all nodes,
estimates Shapley values and runs the per-configuration diagnostics;
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
    evaluate,
    evaluate_masks,
    tree_game,
)
from .process_tree import (
    ProcessTree,
    export_dot,
    iter_nodes,
    tree_from_text,
    tree_to_text,
)
from .shapley import (
    Game,
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
    backend: str = "oracle"  # oracle | prover
    prover: ProverConfig | None = None
    diagnostics: DiagnosticsConfig = DiagnosticsConfig()
    max_depth: int = 64

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
        if self.backend not in ("oracle", "prover"):
            raise ValueError("backend must be oracle or prover")
        if self.backend == "prover" and self.prover is None:
            raise ValueError("prover backend requires a ProverConfig")


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
        payload = json.loads(text)
        return cls(
            meta=payload["meta"],
            configurations=payload["configurations"],
            cross=payload["cross"],
        )


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
        cache.add_warning(
            f"{spec.prop.value} is degenerate in skip mode: every coalition "
            f"evaluates to 1"
        )


def run_single(
    config: RunConfig,
    tree: ProcessTree,
    noise: float,
    spec: PropertySpec,
    seed: int | None,
) -> dict:
    """Attribution and diagnostics for one mined tree and one property.

    Exact values on the oracle backend come from ``tree_shapley``, which
    evaluates no coalition, so the cache counters read 0 there.  Exact
    values on the prover backend come from ``rooted_shapley``, which asks
    for one verdict per canonical form (rooted subtree or empty set) in
    one batch, so the counters count canonical forms.  Sampling queries
    the game through the cache; for sat and liv, which are monotone, the
    permutation sampler ties the veto players."""

    nodes = list(iter_nodes(tree))
    n = len(nodes)
    id_text = {i: node.node_id.text for i, node in enumerate(nodes)}
    cache = ValueCache()
    warn_if_degenerate(spec, cache)

    game = Game(
        n=n,
        value=lambda coalition: evaluate(
            tree, coalition, spec, cache, config.backend, config.prover
        ),
    )

    convergence = None
    if config.method == "exact" and config.backend == "oracle":
        estimate = tree_shapley(tree_game(tree, spec))
    elif config.method == "exact":
        estimate = rooted_shapley(
            tree,
            lambda masks: evaluate_masks(
                tree, masks, spec, cache, config.backend, config.prover
            ),
        )
    elif config.method == "mc":
        estimate, report = mc_permutation_shapley(
            game,
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
            game, samples_per_player=config.samples_per_player, seed=seed
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
    (``logic_encoder.values_via_prover``)."""

    log = parse_xes(config.log_path)
    if not log.traces:
        raise ValueError(f"event log {config.log_path} has no traces")
    trees: dict[float, ProcessTree] = {}
    mining_errors: dict[float, str] = {}
    for noise in config.noise_levels:
        try:
            trees[noise] = discover(
                log, MinerConfig(noise=noise, max_depth=config.max_depth)
            )
        except Exception as exc:  # recorded per configuration below
            mining_errors[noise] = f"{type(exc).__name__}: {exc}"

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
            record = run_single(config, trees[noise], noise, spec, seed)
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
    configuration and a plain-text summary into *out_dir*."""

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    path = out / "report.json"
    path.write_text(report.to_json())
    written.append(path)

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
    path = out / "rankings.csv"
    path.write_text(rankings.getvalue())
    written.append(path)

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
    path = out / "noise_series.csv"
    path.write_text(series.getvalue())
    written.append(path)

    for record in report.configurations:
        if record.get("error") or not record.get("tree"):
            continue
        tree = tree_from_text(record["tree"])
        path = out / f"tree_{record['id']}.dot"
        path.write_text(export_dot(tree, record["phi"]))
        written.append(path)

    path = out / "summary.txt"
    path.write_text(render_summary(report))
    written.append(path)
    return written


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
