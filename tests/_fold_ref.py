"""The per-coalition reference fold of the oracle's rules
(``oracle._rules``): the recursive walk the oracle's batch fold
(``oracle.evaluate_masks``) and its compiled automaton are checked
against."""

from __future__ import annotations

from typing import Hashable

from procshap.oracle import PropertySpec, _rules
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
