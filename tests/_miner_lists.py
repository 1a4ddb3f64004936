"""The trace-by-trace inductive miner, kept as the reference that
``procshap.miner.discover`` (which carries each sub-log as variant -> count)
is checked against.

Every sub-log is a plain list holding one sequence per trace, duplicates
included, and ``dfg_of_traces`` counts it one trace at a time.  The cuts,
the noise filter and the flower fallback are the package's own, so the two
differ only in how sub-logs are carried.  The cuts are reached through
``named_cut``, which ``test_cuts`` also uses: the graph goes in, and the
bitset groups come back as lists of names.
"""

from __future__ import annotations

from collections import Counter

from procshap.event_log import DirectlyFollowsGraph
from procshap.miner import (
    MinerConfig,
    _bits,
    _flower,
    _graph,
    _loop_cut,
    _parallel_cut,
    _sequence_cut,
    _xor_cut,
    filter_dfg,
)
from procshap.process_tree import (
    ProcessTree,
    activity,
    assign_node_ids,
    loop,
    par,
    seq,
    tau,
    xor,
)

Sequences = list[tuple[str, ...]]


def named_cut(cut, alphabet: list[str], dfg: DirectlyFollowsGraph):
    """*cut*, one of ``miner``'s cuts, on *dfg* in the form ``_cuts_ref``
    gives: groups as sorted lists of names, the loop cut as (do part, redo
    parts), and None where the cut does not apply."""
    groups = cut(_graph(alphabet, dfg))
    if groups is None:
        return None
    names = [[alphabet[i] for i in _bits(group)] for group in groups]
    return (names[0], names[1:]) if cut is _loop_cut else names


def discover_lists(sequences: Sequences, config: MinerConfig = MinerConfig()) -> ProcessTree:
    return assign_node_ids(_discover(list(sequences), config, depth=0))


def dfg_of_traces(sequences: Sequences) -> DirectlyFollowsGraph:
    """Directly-follows counts of a trace list, each occurrence counting
    once."""
    edges: Counter = Counter()
    starts: Counter = Counter()
    ends: Counter = Counter()
    for seq in sequences:
        if seq:
            starts[seq[0]] += 1
            ends[seq[-1]] += 1
        edges.update(zip(seq, seq[1:]))
    return DirectlyFollowsGraph(
        edge_freq=dict(edges),
        start_freq=dict(starts),
        end_freq=dict(ends),
    )


def _discover(sequences: Sequences, config: MinerConfig, depth: int) -> ProcessTree:
    if not sequences:
        return tau()

    nonempty = [s for s in sequences if s]
    if not nonempty:
        return tau()
    if len(nonempty) < len(sequences):
        return xor(tau(), _discover(nonempty, config, depth + 1))

    alphabet = sorted({a for s in nonempty for a in s})
    if len(alphabet) == 1 and all(len(s) == 1 for s in nonempty):
        return activity(alphabet[0])

    if depth >= config.max_depth:
        return _flower(alphabet)

    dfg = filter_dfg(dfg_of_traces(nonempty), config.noise)

    groups = named_cut(_xor_cut, alphabet, dfg)
    if groups:
        parts = _xor_split(nonempty, groups)
        return xor(*(_discover(p, config, depth + 1) for p in parts))

    groups = named_cut(_sequence_cut, alphabet, dfg)
    if groups:
        parts = [_project(nonempty, set(g)) for g in groups]
        return seq(*(_discover(p, config, depth + 1) for p in parts))

    groups = named_cut(_parallel_cut, alphabet, dfg)
    if groups:
        parts = [_project(nonempty, set(g)) for g in groups]
        return par(*(_discover(p, config, depth + 1) for p in parts))

    cut = named_cut(_loop_cut, alphabet, dfg)
    if cut:
        do_group, redo_groups = cut
        do_log, redo_logs = _loop_split(nonempty, do_group, redo_groups)
        do_tree = _discover(do_log, config, depth + 1)
        redo_trees = [_discover(r, config, depth + 1) for r in redo_logs]
        redo_tree = redo_trees[0] if len(redo_trees) == 1 else xor(*redo_trees)
        return loop(do_tree, redo_tree)

    return _flower(alphabet)


def _xor_split(sequences: Sequences, groups: list[list[str]]) -> list[Sequences]:
    group_sets = [set(g) for g in groups]
    parts: list[Sequences] = [[] for _ in groups]
    for s in sequences:
        overlaps = [sum(1 for a in s if a in g) for g in group_sets]
        best = max(range(len(groups)), key=lambda i: (overlaps[i], -i))
        parts[best].append(tuple(a for a in s if a in group_sets[best]))
    return parts


def _project(sequences: Sequences, keep: set[str]) -> Sequences:
    return [tuple(a for a in s if a in keep) for s in sequences]


def _loop_split(
    sequences: Sequences, do_group: list[str], redo_groups: list[list[str]]
) -> tuple[Sequences, list[Sequences]]:
    do_set = set(do_group)
    membership: dict[str, int] = {}
    for i, group in enumerate(redo_groups):
        for a in group:
            membership[a] = i
    do_log: Sequences = []
    redo_logs: list[Sequences] = [[] for _ in redo_groups]

    for s in sequences:
        current: list[str] = []
        current_part: int | None = None  # None = do, int = redo group
        for a in s:
            part = None if a in do_set else membership[a]
            if part != current_part and current:
                _emit_segment(current, current_part, do_log, redo_logs)
                current = []
            current_part = part
            current.append(a)
        if current:
            _emit_segment(current, current_part, do_log, redo_logs)
    return do_log, redo_logs


def _emit_segment(
    segment: list[str],
    part: int | None,
    do_log: Sequences,
    redo_logs: list[Sequences],
) -> None:
    if part is None:
        do_log.append(tuple(segment))
    else:
        redo_logs[part].append(tuple(segment))
