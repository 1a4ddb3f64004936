"""Analytic views over attribution values: classification into critical,
neutral and redundant nodes, rankings, stability, noise sensitivity,
per-operator dominance, adaptive nodes, and the three-perspective quality
table."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, NamedTuple, Sequence

import numpy as np

from .process_tree import ProcessTree, iter_nodes

PERSPECTIVES: tuple[tuple[str, float, float], ...] = (
    ("standard", 0.1, 0.01),
    ("high_sensitivity", 0.05, 0.005),
    ("low_sensitivity", 0.2, 0.02),
)


@dataclass(frozen=True)
class DiagnosticsConfig:
    critical_threshold: float = 0.1
    redundant_threshold: float = 0.01
    top_k: int = 5
    adaptive_magnitude: float = 0.05

    def __post_init__(self) -> None:
        if not 0 <= self.redundant_threshold < self.critical_threshold:
            raise ValueError(
                "thresholds must satisfy 0 <= redundant < critical"
            )
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


class NodeClass(NamedTuple):
    label: str  # critical | neutral | redundant
    sign: str  # positive | negative | zero
    harmful: bool


@dataclass(frozen=True)
class Classification:
    classes: dict[Hashable, NodeClass]

    def counts(self) -> dict[str, int]:
        out = {"critical": 0, "neutral": 0, "redundant": 0}
        for c in self.classes.values():
            out[c.label] += 1
        return out


def classify(
    values: Mapping[Hashable, float], config: DiagnosticsConfig = DiagnosticsConfig()
) -> Classification:
    """Magnitude-based partition: |phi| >= critical threshold is critical,
    |phi| <= redundant threshold is redundant, anything between is
    neutral.  Sign is recorded orthogonally; a negative non-redundant node
    is flagged harmful."""

    classes: dict[Hashable, NodeClass] = {}
    for key, phi in values.items():
        magnitude = abs(phi)
        if magnitude >= config.critical_threshold:
            label = "critical"
        elif magnitude <= config.redundant_threshold:
            label = "redundant"
        else:
            label = "neutral"
        sign = "zero" if phi == 0 else ("positive" if phi > 0 else "negative")
        classes[key] = NodeClass(
            label=label, sign=sign, harmful=(sign == "negative" and label != "redundant")
        )
    return Classification(classes=classes)


def top_k(values: Mapping[Hashable, float], k: int) -> list[Hashable]:
    """Nodes ranked by |phi| descending; ties broken by key ascending so
    rankings are stable across runs.  Returns at most k nodes."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = sorted(values, key=lambda key: (-abs(values[key]), _order(key)))
    return ranked[:k]


def _order(key: Hashable):
    # Node indices sort numerically, node-id texts by their @index suffix.
    if isinstance(key, str) and "@" in key:
        head, _, idx = key.rpartition("@")
        if idx.isdigit():
            return (int(idx), head)
    return (key,) if not isinstance(key, (int, float)) else (key, "")


def jaccard(set_a, set_b) -> float:
    """|A intersect B| / |A union B|; 1.0 when both sets are empty."""
    a, b = set(set_a), set(set_b)
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


class Correlation(NamedTuple):
    r: float
    zero_variance: bool


def noise_correlation(points: Sequence[tuple[float, float]]) -> Correlation:
    """Pearson correlation of (noise level, statistic) pairs.  Degenerate
    series (either coordinate constant) return r=0 with the flag set
    instead of an undefined value."""

    if len(points) < 2:
        raise ValueError("correlation needs at least two points")
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    if np.ptp(xs) == 0 or np.ptp(ys) == 0:
        return Correlation(0.0, True)
    r = float(np.corrcoef(xs, ys)[0, 1])
    return Correlation(r, False)


def summarize_attributions(
    values: Mapping[str, float], tree: ProcessTree
) -> dict:
    """Positive/negative/zero totals plus mean |phi| per operator kind,
    the pattern-dominance view.  *values* is keyed by node id text."""

    pos = [v for v in values.values() if v > 0]
    neg = [v for v in values.values() if v < 0]
    zero = [v for v in values.values() if v == 0]

    kind_of: dict[str, str] = {}
    for node in iter_nodes(tree):
        if node.node_id is None:
            raise ValueError("summary requires an id-assigned tree")
        kind = node.op.value if node.op is not None else "leaf"
        kind_of[node.node_id.text] = kind

    by_kind: dict[str, list[float]] = {}
    for key, phi in values.items():
        by_kind.setdefault(kind_of.get(key, "leaf"), []).append(abs(phi))

    return {
        "positive_sum": float(sum(pos)),
        "negative_sum": float(sum(neg)),
        "counts": {"positive": len(pos), "negative": len(neg), "zero": len(zero)},
        "mean_abs_phi": float(np.mean([abs(v) for v in values.values()]))
        if values
        else 0.0,
        "mean_abs_phi_by_kind": {
            kind: float(np.mean(mags)) for kind, mags in sorted(by_kind.items())
        },
    }


def adaptive_nodes(
    per_noise: Mapping[float, Mapping[Hashable, float]],
    baseline_noise: float,
    config: DiagnosticsConfig = DiagnosticsConfig(),
) -> list[dict]:
    """Nodes whose value changes sign, or shifts by at least the adaptive
    magnitude, at some noise level relative to the baseline level."""

    if baseline_noise not in per_noise:
        raise ValueError(f"baseline noise level {baseline_noise} not in series")
    baseline = per_noise[baseline_noise]
    flagged: dict[Hashable, dict] = {}
    for level in sorted(per_noise):
        if level == baseline_noise:
            continue
        values = per_noise[level]
        for key, base_phi in baseline.items():
            if key not in values or key in flagged:
                continue
            phi = values[key]
            if (base_phi > 0 and phi < 0) or (base_phi < 0 and phi > 0):
                flagged[key] = {
                    "node": key,
                    "reason": f"sign change at noise {level} "
                    f"({base_phi:+.4f} -> {phi:+.4f})",
                }
            elif abs(phi - base_phi) >= config.adaptive_magnitude:
                flagged[key] = {
                    "node": key,
                    "reason": f"magnitude shift at noise {level} "
                    f"(|{phi:+.4f} - {base_phi:+.4f}| >= {config.adaptive_magnitude})",
                }
    return sorted(flagged.values(), key=lambda d: _order(d["node"]))


def quality_perspectives(values: Mapping[Hashable, float]) -> dict:
    """Classify under the three fixed threshold perspectives and report
    counts and percentages per class."""

    n = len(values)
    out: dict[str, dict] = {}
    for name, critical, redundant in PERSPECTIVES:
        cfg = DiagnosticsConfig(
            critical_threshold=critical, redundant_threshold=redundant
        )
        counts = classify(values, cfg).counts()
        out[name] = {
            "critical_threshold": critical,
            "redundant_threshold": redundant,
            "counts": counts,
            "percentages": {
                label: (100.0 * count / n if n else 0.0)
                for label, count in counts.items()
            },
        }
    return out
