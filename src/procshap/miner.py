"""Inductive discovery of block-structured process trees from event logs.

The variant implemented here works on the directly-follows graph of the
current sub-log, filters infrequent edges relative to the strongest edge
of each source (the noise threshold), and tries cuts in a fixed order:
exclusive choice, sequence, parallel, loop.  When no cut applies it falls
back to the flower model.  All tie-breaking is lexicographic, so discovery
is deterministic across runs and platforms.

A sub-log is a multiset of traces (Leemans, Fahland & van der Aalst,
2013): a mapping from each distinct variant to its number of occurrences.
Every split hands a piece the count of the variant it came from, and
pieces that coincide merge, so each distinct sequence is handled once per
sub-log while every frequency, and so the noise filter and the tree, is
what the trace-by-trace log would give.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .event_log import DirectlyFollowsGraph, EventLog, Variants, dfg_from_sequences
from .process_tree import (
    ProcessTree,
    activity,
    assign_node_ids,
    loop,
    par,
    seq,
    tau,
    xor,
)


@dataclass(frozen=True)
class MinerConfig:
    noise: float = 0.0
    max_depth: int = 64

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise threshold must lie in [0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


def filter_dfg(dfg: DirectlyFollowsGraph, noise: float) -> DirectlyFollowsGraph:
    """Drop, per source activity, every outgoing edge whose frequency is
    below ``noise`` times the strongest outgoing edge; start and end
    multisets are filtered the same way against their own maxima.
    Activity totals are left untouched."""

    if not 0.0 <= noise <= 1.0:
        raise ValueError("noise threshold must lie in [0, 1]")
    if noise == 0.0:
        return DirectlyFollowsGraph(
            edge_freq=dict(dfg.edge_freq),
            start_freq=dict(dfg.start_freq),
            end_freq=dict(dfg.end_freq),
            activity_freq=dict(dfg.activity_freq),
        )

    max_out: dict[str, int] = {}
    for (a, _), f in dfg.edge_freq.items():
        max_out[a] = max(max_out.get(a, 0), f)
    edges = {
        (a, b): f
        for (a, b), f in dfg.edge_freq.items()
        if f >= noise * max_out[a]
    }

    def filter_multiset(freq: dict[str, int]) -> dict[str, int]:
        if not freq:
            return {}
        m = max(freq.values())
        return {a: f for a, f in freq.items() if f >= noise * m}

    return DirectlyFollowsGraph(
        edge_freq=edges,
        start_freq=filter_multiset(dfg.start_freq),
        end_freq=filter_multiset(dfg.end_freq),
        activity_freq=dict(dfg.activity_freq),
    )


def discover(log: EventLog, config: MinerConfig = MinerConfig()) -> ProcessTree:
    """Mine a process tree and assign preorder node ids."""
    tree = _discover(log.variants, config, depth=0)
    return assign_node_ids(tree)


def _discover(variants: Variants, config: MinerConfig, depth: int) -> ProcessTree:
    if not variants:
        return tau()
    if () in variants:
        # Empty traces present: the model may skip the rest entirely.
        nonempty = Counter({s: c for s, c in variants.items() if s})
        return xor(tau(), _discover(nonempty, config, depth + 1)) if nonempty else tau()

    alphabet = sorted({a for s in variants for a in s})
    if len(alphabet) == 1 and all(len(s) == 1 for s in variants):
        return activity(alphabet[0])

    if depth >= config.max_depth:
        return _flower(alphabet)

    dfg = filter_dfg(dfg_from_sequences(variants), config.noise)

    groups = _xor_cut(alphabet, dfg)
    if groups:
        parts = _xor_split(variants, groups)
        return xor(*(_discover(p, config, depth + 1) for p in parts))

    groups = _sequence_cut(alphabet, dfg)
    if groups:
        parts = [_project(variants, set(g)) for g in groups]
        return seq(*(_discover(p, config, depth + 1) for p in parts))

    groups = _parallel_cut(alphabet, dfg)
    if groups:
        parts = [_project(variants, set(g)) for g in groups]
        return par(*(_discover(p, config, depth + 1) for p in parts))

    cut = _loop_cut(alphabet, dfg)
    if cut:
        do_group, redo_groups = cut
        do_log, redo_logs = _loop_split(variants, do_group, redo_groups)
        do_tree = _discover(do_log, config, depth + 1)
        redo_trees = [_discover(r, config, depth + 1) for r in redo_logs]
        redo_tree = redo_trees[0] if len(redo_trees) == 1 else xor(*redo_trees)
        return loop(do_tree, redo_tree)

    return _flower(alphabet)


def _flower(alphabet: list[str]) -> ProcessTree:
    body = activity(alphabet[0]) if len(alphabet) == 1 else xor(
        *(activity(a) for a in alphabet)
    )
    return loop(body, tau())


def _sorted_groups(groups: list[set[str]]) -> list[list[str]]:
    return sorted((sorted(g) for g in groups), key=lambda g: g[0])


def _undirected_components(alphabet: list[str], edges) -> list[set[str]]:
    adjacent: dict[str, set[str]] = {a: set() for a in alphabet}
    for a, b in edges:
        if a != b:
            adjacent[a].add(b)
            adjacent[b].add(a)
    seen: set[str] = set()
    components: list[set[str]] = []
    for start in alphabet:
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            for nxt in adjacent[frontier.pop()]:
                if nxt not in component:
                    component.add(nxt)
                    frontier.append(nxt)
        seen |= component
        components.append(component)
    return components


def _xor_cut(alphabet: list[str], dfg: DirectlyFollowsGraph) -> list[list[str]] | None:
    components = _undirected_components(alphabet, dfg.edge_freq)
    if len(components) < 2:
        return None
    return _sorted_groups(components)


def _xor_split(variants: Variants, groups: list[list[str]]) -> list[Variants]:
    group_sets = [set(g) for g in groups]
    parts: list[Variants] = [Counter() for _ in groups]
    for s, count in variants.items():
        overlaps = [sum(1 for a in s if a in g) for g in group_sets]
        best = max(range(len(groups)), key=lambda i: (overlaps[i], -i))
        parts[best][tuple(a for a in s if a in group_sets[best])] += count
    return parts


def _strongly_connected_components(
    alphabet: list[str], edges
) -> list[set[str]]:
    # Iterative Tarjan, nodes visited in lexicographic order for determinism.
    succ: dict[str, list[str]] = {a: [] for a in alphabet}
    for a, b in edges:
        if a != b:
            succ[a].append(b)
    for a in succ:
        succ[a].sort()

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[set[str]] = []
    counter = 0

    for root in alphabet:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


def _sequence_cut(alphabet: list[str], dfg: DirectlyFollowsGraph) -> list[list[str]] | None:
    sccs = _strongly_connected_components(alphabet, dfg.edge_freq)
    if len(sccs) < 2:
        return None
    comp_of = {a: i for i, scc in enumerate(sccs) for a in scc}
    k = len(sccs)
    succ: list[set[int]] = [set() for _ in range(k)]
    for a, b in dfg.edge_freq:
        ca, cb = comp_of[a], comp_of[b]
        if ca != cb:
            succ[ca].add(cb)

    reach: list[set[int]] = [set() for _ in range(k)]
    for i in range(k):
        frontier = list(succ[i])
        while frontier:
            j = frontier.pop()
            if j not in reach[i]:
                reach[i].add(j)
                frontier.extend(succ[j])

    # Merge pairwise-unreachable components until the groups form a chain.
    parent = list(range(k))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    changed = True
    while changed:
        changed = False
        group_reach: dict[int, set[int]] = {}
        for i in range(k):
            group_reach.setdefault(find(i), set()).update(
                find(j) for j in reach[i]
            )
        roots = sorted(group_reach)
        for x in roots:
            for y in roots:
                if x < y and y not in group_reach[x] and x not in group_reach[y]:
                    parent[find(y)] = find(x)
                    changed = True

    merged: dict[int, set[str]] = {}
    for i, scc in enumerate(sccs):
        merged.setdefault(find(i), set()).update(scc)
    if len(merged) < 2:
        return None

    group_list = list(merged.values())
    rep = {id(g): next(iter(g)) for g in group_list}

    def reaches(g1: set[str], g2: set[str]) -> bool:
        c2 = {comp_of[a] for a in g2}
        return any(bool(reach[comp_of[a]] & c2) for a in g1)

    # Total order now holds; sort by how many groups reach this one.
    order = sorted(
        group_list,
        key=lambda g: sum(1 for other in group_list if other is not g and reaches(other, g)),
    )
    for first, second in zip(order, order[1:]):
        if not reaches(first, second):
            return None  # defensive: ordering was not total
    return [sorted(g) for g in order]


def _parallel_cut(alphabet: list[str], dfg: DirectlyFollowsGraph) -> list[list[str]] | None:
    if not dfg.start_freq or not dfg.end_freq:
        return None
    edges = set(dfg.edge_freq)
    pairs_requiring_merge = [
        (a, b)
        for i, a in enumerate(alphabet)
        for b in alphabet[i + 1 :]
        if (a, b) not in edges or (b, a) not in edges
    ]
    components = _undirected_components(alphabet, pairs_requiring_merge)
    if len(components) < 2:
        return None
    starts, ends = set(dfg.start_freq), set(dfg.end_freq)
    for component in components:
        if not (component & starts) or not (component & ends):
            return None
    return _sorted_groups(components)


def _loop_cut(
    alphabet: list[str], dfg: DirectlyFollowsGraph
) -> tuple[list[str], list[list[str]]] | None:
    starts, ends = set(dfg.start_freq), set(dfg.end_freq)
    if not starts or not ends:
        return None
    body = starts | ends
    residual = [a for a in alphabet if a not in body]
    if not residual:
        return None
    residual_set = set(residual)
    residual_edges = [
        (a, b) for a, b in dfg.edge_freq if a in residual_set and b in residual_set
    ]
    components = _undirected_components(residual, residual_edges)

    do_extra: set[str] = set()
    redo_groups: list[set[str]] = []
    for component in components:
        valid = True
        for a, b in dfg.edge_freq:
            if b in component and a not in component and a not in ends:
                valid = False
                break
            if a in component and b not in component and b not in starts:
                valid = False
                break
        if valid:
            redo_groups.append(component)
        else:
            do_extra |= component
    if not redo_groups:
        return None
    do_group = sorted(body | do_extra)
    return do_group, _sorted_groups(redo_groups)


def _project(variants: Variants, keep: set[str]) -> Variants:
    projected: Variants = Counter()
    for s, count in variants.items():
        projected[tuple(a for a in s if a in keep)] += count
    return projected


def _loop_split(
    variants: Variants, do_group: list[str], redo_groups: list[list[str]]
) -> tuple[Variants, list[Variants]]:
    """Cut each variant into maximal runs of do activities and of one redo
    group's activities; each run goes, with the variant's count, to the do
    log or to that redo group's log."""
    part_of = dict.fromkeys(do_group, 0)
    for i, group in enumerate(redo_groups, 1):
        part_of.update(dict.fromkeys(group, i))
    logs: list[Variants] = [Counter() for _ in range(len(redo_groups) + 1)]
    for s, count in variants.items():
        begin = 0
        for i in range(1, len(s)):
            if part_of[s[i]] != part_of[s[i - 1]]:
                logs[part_of[s[begin]]][s[begin:i]] += count
                begin = i
        logs[part_of[s[begin]]][s[begin:]] += count
    return logs[0], logs[1:]
