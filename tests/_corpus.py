"""Seeded generators shared by the test modules: random process trees,
random boolean games, and the tree corpus used by the exhaustive
oracle/encoder comparisons; plus the commitment enumeration that the
oracle tests use as an independent reference for its verdicts."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from procshap.process_tree import (
    Op,
    ProcessTree,
    TauMode,
    activity,
    assign_node_ids,
    iter_nodes,
    loop,
    par,
    seq,
    tau,
    xor,
)

LABEL_POOL = ["a", "b", "c", "d", "e"]


def random_tree(
    rng: random.Random,
    max_nodes: int = 10,
    label_pool: list[str] | None = None,
    allow_loops: bool = True,
    allow_taus: bool = True,
) -> ProcessTree:
    """A random well-formed tree with at most *max_nodes* nodes.
    Labels are drawn with repetition so activities can recur."""

    pool = label_pool or LABEL_POOL

    def leaf() -> ProcessTree:
        if allow_taus and rng.random() < 0.15:
            return tau()
        return activity(rng.choice(pool))

    def build(budget: int) -> tuple[ProcessTree, int]:
        if budget < 3 or rng.random() < 0.3:
            return leaf(), 1
        ops = [seq, xor, par] + ([loop] if allow_loops else [])
        op = rng.choice(ops)
        if op is loop:
            do, used_do = build((budget - 1) // 2)
            redo, used_redo = build(budget - 1 - used_do)
            return loop(do, redo), 1 + used_do + used_redo
        arity = rng.randint(2, min(3, budget - 1))
        children = []
        used = 1
        for i in range(arity):
            remaining = budget - used - (arity - 1 - i)
            child, child_used = build(max(remaining, 1))
            children.append(child)
            used += child_used
        return op(*children), used

    tree, used = build(max_nodes)
    assert used <= max_nodes, (used, max_nodes)
    return assign_node_ids(tree)


def corpus(count: int, max_nodes: int = 10, seed: int = 2024) -> list[ProcessTree]:
    rng = random.Random(seed)
    return [random_tree(rng, max_nodes) for _ in range(count)]


def distinct_label_tree(rng: random.Random, depth: int) -> ProcessTree:
    """Loop-free tree with globally distinct activity labels, for the
    miner rediscovery suite."""

    counter = [0]

    def fresh() -> ProcessTree:
        counter[0] += 1
        return activity(f"x{counter[0]}")

    def build(d: int) -> ProcessTree:
        if d == 0 or rng.random() < 0.25:
            return fresh()
        op = rng.choice([seq, xor, par])
        arity = rng.randint(2, 3)
        children = [build(d - 1) for _ in range(arity)]
        if op is xor and rng.random() < 0.25:
            children[rng.randrange(len(children))] = tau()
        return op(*children)

    root = build(depth)
    if root.is_leaf:  # ensure at least one operator so the log is non-trivial
        root = seq(root, fresh())
    return assign_node_ids(root)


def random_boolean_game_table(rng: random.Random, n: int) -> dict[int, int]:
    """A uniformly random boolean value table over all 2^n masks."""
    return {mask: rng.randint(0, 1) for mask in range(1 << n)}


def threshold_game_table(rng: random.Random, n: int) -> dict[int, int]:
    """v(S) = 1 iff |S & T| >= t for a random subset T and threshold t.
    Members of T are symmetric, non-members are dummies."""
    size = rng.randint(1, n)
    members = rng.sample(range(n), size)
    t = rng.randint(1, size)
    t_mask = 0
    for m in members:
        t_mask |= 1 << m
    return {
        mask: int(bin(mask & t_mask).count("1") >= t) for mask in range(1 << n)
    }


@dataclass(frozen=True)
class Commitment:
    """Static resolution of all choices: one child ordinal per Xor node,
    one redo count per Loop node (by node index)."""

    xor_choice: tuple[tuple[int, int], ...] = ()
    loop_redo: tuple[tuple[int, int], ...] = ()

    def choice_for(self, index: int) -> int:
        return dict(self.xor_choice)[index]

    def redos_for(self, index: int) -> int:
        return dict(self.loop_redo)[index]


def iter_commitments(tree_c: ProcessTree, bound: int) -> Iterator[Commitment]:
    """Enumerate every commitment of a (substituted, id-assigned) tree.
    Exponential; intended for small trees and testing."""

    xors = [n for n in iter_nodes(tree_c) if n.op is Op.XOR]
    loops = [n for n in iter_nodes(tree_c) if n.op is Op.LOOP]
    choice_spaces = [range(len(n.children)) for n in xors]
    redo_spaces = [range(bound + 1) for _ in loops]
    for combo in itertools.product(*choice_spaces, *redo_spaces):
        choices = combo[: len(xors)]
        redos = combo[len(xors) :]
        yield Commitment(
            xor_choice=tuple(
                (n.node_id.index, c) for n, c in zip(xors, choices)  # type: ignore[union-attr]
            ),
            loop_redo=tuple(
                (n.node_id.index, r) for n, r in zip(loops, redos)  # type: ignore[union-attr]
            ),
        )


def commitment_run(
    tree_c: ProcessTree, commitment: Commitment, mode: TauMode
) -> tuple[str, ...] | None:
    """The trace produced by executing the tree under *commitment*, or
    None when the run deadlocks on a blocked removed-tau.  And-children
    are concatenated in order; occurrence judgements are order-insensitive
    so this canonical interleaving is sufficient."""

    xor_choice = dict(commitment.xor_choice)
    loop_redo = dict(commitment.loop_redo)

    def run(node: ProcessTree) -> tuple[str, ...] | None:
        if node.is_leaf:
            if node.removed and mode is TauMode.BLOCKED:
                return None
            if node.is_activity:
                return (node.label,)
            return ()
        if node.op is Op.XOR:
            chosen = node.children[xor_choice[node.node_id.index]]  # type: ignore[union-attr]
            return run(chosen)
        if node.op is Op.LOOP:
            do, redo = node.children
            do_trace = run(do)
            if do_trace is None:
                return None
            redos = loop_redo[node.node_id.index]  # type: ignore[union-attr]
            if redos == 0:
                return do_trace
            redo_trace = run(redo)
            if redo_trace is None:
                return None
            return do_trace + (redo_trace + do_trace) * redos
        parts: tuple[str, ...] = ()
        for child in node.children:
            sub = run(child)
            if sub is None:
                return None
            parts += sub
        return parts

    return run(tree_c)
