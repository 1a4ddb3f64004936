"""The per-coalition references of ``oracle.evaluate_rows``: the
recursive fold of the oracle's rules (``oracle._rules``) that the batch
fold and its compiled automaton are checked against, and the recursive
walk to a coalition's canonical form that the prover's batch pass
(``oracle._forms``) is checked against; and ``verdicts_of_masks``, the
batch evaluator asked with int masks."""

from __future__ import annotations

from typing import Hashable

from procshap.oracle import PropertySpec, ValueCache, _rules, coalition_rows, evaluate_rows
from procshap.process_tree import ProcessTree


def fold_value(tree: ProcessTree, spec: PropertySpec, mask: int) -> int:
    """The verdict under *spec* on the coalition *mask* over *tree*'s node
    ids: ``wins`` of the root's state, folding present nodes only."""

    if tree.node_id is None:
        raise ValueError("fold_value requires an id-assigned tree (assign_node_ids)")
    leaf, removed, join, wins = _rules(spec)

    def state(node: ProcessTree) -> Hashable:
        if not mask >> node.node_id.index & 1:
            return removed
        if node.is_leaf:
            return leaf(node)
        first, *rest = node.children
        acc = state(first)
        for child in rest:
            acc = join(node.op, acc, state(child))
        return acc

    return int(wins(state(tree)))


def canonical_mask(tree: ProcessTree, mask: int) -> int:
    """*mask* with every node that has an absent ancestor cleared, and
    every id *tree* lacks: a rooted subtree of the id-assigned *tree*, or
    0, by a walk from the root."""

    def walk(node: ProcessTree) -> int:
        bit = 1 << node.node_id.index
        if not mask & bit:
            return 0
        for child in node.children:
            bit |= walk(child)
        return bit

    return walk(tree)


def verdicts_of_masks(cache: ValueCache, masks: list[int]) -> list[int]:
    """``evaluate_rows(cache, rows)`` as a list, with the rows made from
    int *masks* over the cache's node ids by ``coalition_rows``."""
    return evaluate_rows(cache, coalition_rows(masks, cache.program[0])).tolist()
