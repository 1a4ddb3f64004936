"""The trace-by-trace inductive miner, kept as the reference that
``procshap.miner.discover`` (which carries each sub-log as variant -> count)
is checked against.

Every sub-log is a plain list holding one sequence per trace, duplicates
included.  The cuts, the noise filter and the flower fallback are the
package's own, so the two differ only in how sub-logs are carried.
"""

from __future__ import annotations

from procshap.event_log import EventLog, dfg_from_sequences
from procshap.miner import (
    MinerConfig,
    _flower,
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


def discover_lists(log: EventLog, config: MinerConfig = MinerConfig()) -> ProcessTree:
    return assign_node_ids(_discover(log.activity_sequences(), config, depth=0))


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

    dfg = filter_dfg(dfg_from_sequences(nonempty), config.noise)

    groups = _xor_cut(alphabet, dfg)
    if groups:
        parts = _xor_split(nonempty, groups)
        return xor(*(_discover(p, config, depth + 1) for p in parts))

    groups = _sequence_cut(alphabet, dfg)
    if groups:
        parts = [_project(nonempty, set(g)) for g in groups]
        return seq(*(_discover(p, config, depth + 1) for p in parts))

    groups = _parallel_cut(alphabet, dfg)
    if groups:
        parts = [_project(nonempty, set(g)) for g in groups]
        return par(*(_discover(p, config, depth + 1) for p in parts))

    cut = _loop_cut(alphabet, dfg)
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
