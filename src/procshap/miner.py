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

Each sub-log's filtered graph is built once, as a ``Graph`` of bitsets:
bit i is the i-th activity of the sorted alphabet, ``succ[i]`` and
``pred[i]`` its successors and predecessors (self-loops dropped), and
``starts`` and ``ends`` the start and end activities.  ``_closure`` gives
the bits reachable from i, i itself included.  Every cut takes the graph
and returns bitset groups, each from the components of a symmetric graph
listed by lowest bit, so groups and their members come out sorted:

* xor: the components of ``succ | pred``.
* sequence: i and j share a group when both or neither reaches the other.
  Reachability partially orders the strongly connected components, and
  the components of a partial order's incomparability graph are linearly
  ordered, each wholly before the next (Gallai, 1967).  A member of an
  earlier group thus reaches every later activity, so the groups sort by
  how much one member reaches, most first.
* parallel: the components of ``~(succ & pred)``; each needs a start and
  an end activity.
* loop: the do part first, then the redo parts.  The starts and ends form
  the do part; the other activities split into the components of
  ``succ | pred`` among themselves.  A component is a redo part when its
  ``pred`` bits outside it lie within the ends and its ``succ`` bits
  within the starts; else it joins the do part.

The applied cut's groups become one part map, activity -> group index,
which its split reads: exclusive choice sends each variant to the group
holding most of its events, sequence and parallel send each variant's
events to all groups in one pass, and loop cuts each variant into runs of
one part.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

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

    graph = _graph(alphabet, filter_dfg(dfg_from_sequences(variants), config.noise))
    for cut, split, op in (
        (_xor_cut, _xor_split, xor),
        (_sequence_cut, _split, seq),
        (_parallel_cut, _split, par),
        (_loop_cut, _loop_split, _loop_tree),
    ):
        groups = cut(graph)
        if groups:
            part_of = {alphabet[i]: k for k, group in enumerate(groups) for i in _bits(group)}
            return op(*(_discover(p, config, depth + 1)
                        for p in split(variants, part_of, len(groups))))
    return _flower(alphabet)


def _flower(alphabet: list[str]) -> ProcessTree:
    body = activity(alphabet[0]) if len(alphabet) == 1 else xor(
        *(activity(a) for a in alphabet)
    )
    return loop(body, tau())


def _loop_tree(do_tree: ProcessTree, *redo_trees: ProcessTree) -> ProcessTree:
    return loop(do_tree, redo_trees[0] if len(redo_trees) == 1 else xor(*redo_trees))


def _bits(mask: int):
    """The indices of the set bits of *mask*, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph(NamedTuple):
    """A directly-follows graph as bitsets over the sorted alphabet."""

    succ: list[int]
    pred: list[int]
    starts: int
    ends: int


def _graph(alphabet: list[str], dfg: DirectlyFollowsGraph) -> Graph:
    """*dfg* as bitsets over *alphabet*, self-loops dropped."""
    index = {a: i for i, a in enumerate(alphabet)}
    succ, pred = [0] * len(alphabet), [0] * len(alphabet)
    for a, b in dfg.edge_freq:
        if a != b:
            i, j = index[a], index[b]
            succ[i] |= 1 << j
            pred[j] |= 1 << i
    starts = sum(1 << index[a] for a in dfg.start_freq)
    ends = sum(1 << index[a] for a in dfg.end_freq)
    return Graph(succ, pred, starts, ends)


def _closure(adjacent: list[int], start: int, known: list[int]) -> int:
    """The bits reachable from *start*, itself included, recorded in
    ``known[start]``.  A nonzero ``known[i]`` must be i's whole closure: the
    walk takes it as is, and steps out of no bit inside it."""
    reached = frontier = 1 << start
    while frontier:
        step = 0
        while frontier:  # lowest bit first, dropping the bits a closure covers
            low = frontier & -frontier
            i = low.bit_length() - 1
            if known[i]:
                reached |= known[i]
                frontier &= ~known[i]
            else:
                step |= adjacent[i]
                frontier ^= low
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


def _xor_cut(graph: Graph) -> list[int] | None:
    linked = [s | p for s, p in zip(graph.succ, graph.pred)]
    groups = _components(linked, (1 << len(linked)) - 1)
    return groups if len(groups) > 1 else None


def _sequence_cut(graph: Graph) -> list[int] | None:
    n = len(graph.succ)
    after, before = [0] * n, [0] * n  # filled with each bit's closures
    for i in range(n):
        _closure(graph.pred, i, before)
    # The most reached first, so that each walk meets the closures of the
    # activities it reaches.
    for i in sorted(range(n), key=lambda i: -before[i].bit_count()):
        _closure(graph.succ, i, after)
    full = (1 << n) - 1
    # i and j share a group when both or neither reaches the other.
    alike = [full & ~(a ^ b) for a, b in zip(after, before)]
    groups = _components(alike, full)
    if len(groups) < 2:
        return None
    # The groups form a chain; an earlier group's members reach more.
    groups.sort(key=lambda g: -after[(g & -g).bit_length() - 1].bit_count())
    return groups


def _parallel_cut(graph: Graph) -> list[int] | None:
    succ, pred, starts, ends = graph
    if not starts or not ends:
        return None
    full = (1 << len(succ)) - 1
    groups = _components([full & ~(s & p) for s, p in zip(succ, pred)], full)
    if len(groups) > 1 and all(g & starts and g & ends for g in groups):
        return groups
    return None


def _loop_cut(graph: Graph) -> list[int] | None:
    succ, pred, starts, ends = graph
    if not starts or not ends:
        return None
    do_group = starts | ends
    residual = (1 << len(succ)) - 1 & ~do_group
    linked = [(s | p) & residual for s, p in zip(succ, pred)]
    redo_groups = []
    for group in _components(linked, residual):
        if any(pred[i] & ~group & ~ends or succ[i] & ~group & ~starts
               for i in _bits(group)):
            do_group |= group
        else:
            redo_groups.append(group)
    return [do_group, *redo_groups] if redo_groups else None


def _xor_split(variants: Variants, part_of: dict[str, int], k: int) -> list[Variants]:
    """Each variant to the group holding most of its events, the first on a
    tie, kept to that group's events."""
    logs: list[Variants] = [Counter() for _ in range(k)]
    for s, count in variants.items():
        overlaps = [0] * k
        for a in s:
            overlaps[part_of[a]] += 1
        best = overlaps.index(max(overlaps))
        logs[best][tuple(a for a in s if part_of[a] == best)] += count
    return logs


def _split(variants: Variants, part_of: dict[str, int], k: int) -> list[Variants]:
    """Each variant to every group, kept to that group's events; one pass
    over its events."""
    logs: list[Variants] = [Counter() for _ in range(k)]
    for s, count in variants.items():
        pieces: list[list[str]] = [[] for _ in range(k)]
        for a in s:
            pieces[part_of[a]].append(a)
        for log, piece in zip(logs, pieces):
            log[tuple(piece)] += count
    return logs


def _loop_split(variants: Variants, part_of: dict[str, int], k: int) -> list[Variants]:
    """Cut each variant into maximal runs of one part's activities; each run
    goes, with the variant's count, to that part's log."""
    logs: list[Variants] = [Counter() for _ in range(k)]
    for s, count in variants.items():
        begin = 0
        for i in range(1, len(s)):
            if part_of[s[i]] != part_of[s[i - 1]]:
                logs[part_of[s[begin]]][s[begin:i]] += count
                begin = i
        logs[part_of[s[begin]]][s[begin:]] += count
    return logs
