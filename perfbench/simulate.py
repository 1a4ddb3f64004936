"""Seeded event-log simulator: random block-structured process trees,
play-out to traces, and a plain XES writer.

Nothing here imports procshap, so the inputs a seed produces do not depend
on the code under test.

Play-out semantics: Seq runs its children in order, Xor picks one child
uniformly, Loop runs its body and then redoes (redo child, then body again)
with probability 0.3 each time, And interleaves its children's events in a
uniformly random order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

REDO_P = 0.3


@dataclass
class Node:
    op: str | None = None  # seq | xor | and | loop; None for a leaf
    label: str | None = None  # None for a silent (tau) leaf
    children: list["Node"] = field(default_factory=list)

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)

    def labels(self) -> list[str]:
        if self.op is None:
            return [self.label] if self.label else []
        return [a for c in self.children for a in c.labels()]


def _split(rng: random.Random, items: list[str], parts: int) -> list[list[str]]:
    cuts = sorted(rng.sample(range(1, len(items)), parts - 1))
    bounds = [0, *cuts, len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _build(rng: random.Random, acts: list[str], parent: str | None,
           banned: frozenset[str], weights: dict[str, float]) -> Node:
    if len(acts) == 1:
        leaf = Node(label=acts[0])
        if ("optional" not in banned and parent != "xor"
                and rng.random() < weights.get("optional", 0.0)):
            return Node(op="xor", children=[Node(), leaf])
        return leaf
    # Shapes the miner cannot rediscover from a clean log of a few thousand
    # traces are not drawn: a child repeating its parent's operator
    # (flattened), loops, nested concurrency or optional (tau) branches under
    # And, and loops or optional branches inside a loop.
    ops = {op: w for op, w in weights.items()
           if op in ("seq", "xor", "and", "loop")
           and op != parent and op not in banned}
    op = rng.choices(list(ops), weights=list(ops.values()))[0]
    if op == "loop":
        inner = banned | {"loop", "optional", "and"}
        do, redo = _split(rng, acts, 2)
        if len(redo) > len(do):
            do, redo = redo, do
        return Node(op="loop", children=[_build(rng, do, "loop", inner, weights),
                                         _build(rng, redo, "loop", inner, weights)])
    inner = banned | {"loop", "and", "optional"} if op == "and" else banned
    parts = rng.randint(2, min(4, len(acts)))
    return Node(op=op, children=[_build(rng, g, op, inner, weights)
                                 for g in _split(rng, acts, parts)])


def _skippable(node: Node) -> bool:
    if node.op is None:
        return node.label is None
    if node.op == "xor":
        return any(map(_skippable, node.children))
    if node.op == "loop":
        return _skippable(node.children[0])
    return all(map(_skippable, node.children))


def _hidden_skip(node: Node) -> bool:
    """True when a node other than an optional leaf can run empty: the
    miner would model that skip as a separate tau branch."""
    if node.op is None or (node.op == "xor" and any(c.op is None and c.label is None
                                                    for c in node.children)):
        return False
    return _skippable(node) or any(map(_hidden_skip, node.children))


def random_tree(rng: random.Random, activities: int, nodes: int,
                weights: dict[str, float]) -> Node:
    """A random tree over *activities* distinct labels with exactly *nodes*
    nodes, drawn by rejection from the recursive splitter."""
    labels = [f"act_{i:02d}" for i in range(activities)]
    while True:
        order = labels[:]
        rng.shuffle(order)
        tree = _build(rng, order, None, frozenset(), weights)
        if tree.size() == nodes and not _hidden_skip(tree):
            return tree


def play(node: Node, rng: random.Random, out: list[str]) -> None:
    if node.op is None:
        if node.label:
            out.append(node.label)
    elif node.op == "seq":
        for child in node.children:
            play(child, rng, out)
    elif node.op == "xor":
        play(rng.choice(node.children), rng, out)
    elif node.op == "loop":
        do, redo = node.children
        play(do, rng, out)
        while rng.random() < REDO_P:
            play(redo, rng, out)
            play(do, rng, out)
    else:  # and: uniform random interleaving of the children's runs
        runs = []
        for child in node.children:
            run: list[str] = []
            play(child, rng, run)
            runs.append(run)
        slots = [i for i, run in enumerate(runs) for _ in run]
        rng.shuffle(slots)
        cursors = [0] * len(runs)
        for i in slots:
            out.append(runs[i][cursors[i]])
            cursors[i] += 1


def simulate(tree: Node, traces: int, rng: random.Random) -> list[list[str]]:
    log = []
    for _ in range(traces):
        trace: list[str] = []
        play(tree, rng, trace)
        log.append(trace)
    return log


def concurrency_complete(tree: Node, log: list[list[str]]) -> bool:
    """True when every And node's children are seen directly following each
    other both ways, for every pair of their activities, in the log
    projected on that And's activities.  Without that the log does not show
    the concurrency, and no miner could rediscover the And."""
    if tree.op is None:
        return True
    if tree.op == "and":
        groups = [set(c.labels()) for c in tree.children]
        keep = set().union(*groups)
        seen = set()
        for trace in log:
            projected = [a for a in trace if a in keep]
            seen.update(zip(projected, projected[1:]))
        for i, left in enumerate(groups):
            for right in groups[i + 1:]:
                for a in left:
                    for b in right:
                        if (a, b) not in seen or (b, a) not in seen:
                            return False
    return all(concurrency_complete(c, log) for c in tree.children)


def write_xes(log: list[list[str]], path: str) -> int:
    """Write *log* as XES with a case id, and per event an activity name,
    a lifecycle transition and a timestamp.  Returns the bytes written."""
    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n',
             '<log xes.version="1.0" xes.features="">\n']
    second = 0
    for case, trace in enumerate(log):
        parts.append(f'  <trace>\n    <string key="concept:name" value="case_{case}"/>\n')
        for act in trace:
            second += 37
            minutes, sec = divmod(second, 60)
            hours, minute = divmod(minutes, 60)
            days, hour = divmod(hours, 24)
            parts.append(
                "    <event>\n"
                f'      <string key="concept:name" value="{act}"/>\n'
                '      <string key="lifecycle:transition" value="complete"/>\n'
                f'      <date key="time:timestamp" value="2024-{1 + days // 28:02d}-'
                f'{1 + days % 28:02d}T{hour:02d}:{minute:02d}:{sec:02d}.000+00:00"/>\n'
                "    </event>\n"
            )
        parts.append("  </trace>\n")
    parts.append("</log>\n")
    data = "".join(parts).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)
