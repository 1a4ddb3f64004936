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

The cuts read one bitset graph: bit i is the i-th activity of the sorted
alphabet, ``succ[i]`` and ``pred[i]`` its successors and predecessors
(self-loops dropped), and ``_closure`` the bits reachable from i, i itself
included.  Each cut takes the components of a symmetric graph, listed by
lowest bit, so groups and their members come out sorted:

* xor: the components of ``succ | pred``.
* sequence: i and j share a group when both or neither reaches the other.
  Reachability partially orders the strongly connected components, and
  the components of a partial order's incomparability graph are linearly
  ordered, each wholly before the next (Gallai, 1967).  A member of an
  earlier group thus reaches every later activity, so the groups sort by
  how much one member reaches, most first.
* parallel: the components of ``~(succ & pred)``; each needs a start and
  an end activity.
* loop: the starts and ends form the do part; the other activities split
  into the components of ``succ | pred`` among themselves.  A component
  is a redo part when its ``pred`` bits outside it lie within the ends
  and its ``succ`` bits within the starts; else it joins the do part.
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
    multisets are filtered the same way against their own maxima."""

    if not 0.0 <= noise <= 1.0:
        raise ValueError("noise threshold must lie in [0, 1]")
    max_out: dict[str, int] = {}
    for (a, _), f in dfg.edge_freq.items():
        max_out[a] = max(max_out.get(a, 0), f)
    edges = {
        (a, b): f
        for (a, b), f in dfg.edge_freq.items()
        if f >= noise * max_out[a]
    }

    def filter_multiset(freq: dict[str, int]) -> dict[str, int]:
        m = max(freq.values(), default=0)
        return {a: f for a, f in freq.items() if f >= noise * m}

    return DirectlyFollowsGraph(
        edge_freq=edges,
        start_freq=filter_multiset(dfg.start_freq),
        end_freq=filter_multiset(dfg.end_freq),
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

    for cut, op in ((_sequence_cut, seq), (_parallel_cut, par)):
        groups = cut(alphabet, dfg)
        if groups:
            parts = [_project(variants, set(g)) for g in groups]
            return op(*(_discover(p, config, depth + 1) for p in parts))

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


def _bits(mask: int):
    """The indices of the set bits of *mask*, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(alphabet: list[str], names) -> int:
    return sum(1 << i for i, a in enumerate(alphabet) if a in names)


def _names(alphabet: list[str], mask: int) -> list[str]:
    return [alphabet[i] for i in _bits(mask)]


def _graph(alphabet: list[str], edges) -> tuple[list[int], list[int]]:
    """Successor and predecessor bitsets of the directly-follows graph,
    self-loops dropped."""
    index = {a: i for i, a in enumerate(alphabet)}
    succ, pred = [0] * len(alphabet), [0] * len(alphabet)
    for a, b in edges:
        if a != b:
            i, j = index[a], index[b]
            succ[i] |= 1 << j
            pred[j] |= 1 << i
    return succ, pred


def _closure(adjacent: list[int], start: int, known: list[int]) -> int:
    """The bits reachable from *start*, itself included, recorded in
    ``known[start]``.  A nonzero ``known[i]`` must be i's whole closure: the
    walk takes it as is and does not step out of i again."""
    reached = frontier = 1 << start
    while frontier:
        step = 0
        for i in _bits(frontier):
            if known[i]:
                reached |= known[i]
            else:
                step |= adjacent[i]
        frontier = step & ~reached
        reached |= frontier
    known[start] = reached
    return reached


def _components(adjacent: list[int], among: int) -> list[int]:
    """The components of a symmetric graph whose edges stay inside
    *among*, ordered by lowest bit."""
    known = [0] * len(adjacent)
    groups = []
    while among:
        group = _closure(adjacent, (among & -among).bit_length() - 1, known)
        groups.append(group)
        among &= ~group
    return groups


def _xor_cut(alphabet: list[str], dfg: DirectlyFollowsGraph) -> list[list[str]] | None:
    succ, pred = _graph(alphabet, dfg.edge_freq)
    linked = [s | p for s, p in zip(succ, pred)]
    groups = _components(linked, (1 << len(alphabet)) - 1)
    if len(groups) < 2:
        return None
    return [_names(alphabet, g) for g in groups]


def _xor_split(variants: Variants, groups: list[list[str]]) -> list[Variants]:
    group_sets = [set(g) for g in groups]
    parts: list[Variants] = [Counter() for _ in groups]
    for s, count in variants.items():
        overlaps = [sum(1 for a in s if a in g) for g in group_sets]
        best = max(range(len(groups)), key=lambda i: (overlaps[i], -i))
        parts[best][tuple(a for a in s if a in group_sets[best])] += count
    return parts


def _sequence_cut(alphabet: list[str], dfg: DirectlyFollowsGraph) -> list[list[str]] | None:
    n = len(alphabet)
    succ, pred = _graph(alphabet, dfg.edge_freq)
    after, before = [0] * n, [0] * n  # filled with each bit's closures
    for i in range(n):
        _closure(succ, i, after)
        _closure(pred, i, before)
    full = (1 << n) - 1
    # i and j share a group when both or neither reaches the other.
    alike = [full & ~(a ^ b) for a, b in zip(after, before)]
    groups = _components(alike, full)
    if len(groups) < 2:
        return None
    # The groups form a chain; an earlier group's members reach more.
    groups.sort(key=lambda g: -after[(g & -g).bit_length() - 1].bit_count())
    return [_names(alphabet, g) for g in groups]


def _parallel_cut(alphabet: list[str], dfg: DirectlyFollowsGraph) -> list[list[str]] | None:
    if not dfg.start_freq or not dfg.end_freq:
        return None
    succ, pred = _graph(alphabet, dfg.edge_freq)
    full = (1 << len(alphabet)) - 1
    apart = [full & ~(s & p) for s, p in zip(succ, pred)]
    groups = _components(apart, full)
    if len(groups) < 2:
        return None
    starts, ends = _mask(alphabet, dfg.start_freq), _mask(alphabet, dfg.end_freq)
    if not all(g & starts and g & ends for g in groups):
        return None
    return [_names(alphabet, g) for g in groups]


def _loop_cut(
    alphabet: list[str], dfg: DirectlyFollowsGraph
) -> tuple[list[str], list[list[str]]] | None:
    if not dfg.start_freq or not dfg.end_freq:
        return None
    starts, ends = _mask(alphabet, dfg.start_freq), _mask(alphabet, dfg.end_freq)
    do_group = starts | ends
    residual = (1 << len(alphabet)) - 1 & ~do_group
    if not residual:
        return None
    succ, pred = _graph(alphabet, dfg.edge_freq)
    linked = [(s | p) & residual for s, p in zip(succ, pred)]
    redo_groups = []
    for group in _components(linked, residual):
        if any(pred[i] & ~group & ~ends or succ[i] & ~group & ~starts
               for i in _bits(group)):
            do_group |= group
        else:
            redo_groups.append(group)
    if not redo_groups:
        return None
    return _names(alphabet, do_group), [_names(alphabet, g) for g in redo_groups]


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
