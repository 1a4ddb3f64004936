"""The miner's splits as written before they read one part map, kept as
the reference that ``miner._split`` and ``miner._xor_split`` are checked
against: ``project`` keeps one group's events of every variant, one
group per pass, and ``xor_split`` counts a variant's overlap with each
group in turn."""

from __future__ import annotations

from collections import Counter

from procshap.event_log import Variants


def project(variants: Variants, keep: set[str]) -> Variants:
    projected: Variants = Counter()
    for s, count in variants.items():
        projected[tuple(a for a in s if a in keep)] += count
    return projected


def xor_split(variants: Variants, groups: list[list[str]]) -> list[Variants]:
    group_sets = [set(g) for g in groups]
    parts: list[Variants] = [Counter() for _ in groups]
    for s, count in variants.items():
        overlaps = [sum(1 for a in s if a in g) for g in group_sets]
        best = max(range(len(groups)), key=lambda i: (overlaps[i], -i))
        parts[best][tuple(a for a in s if a in group_sets[best])] += count
    return parts
