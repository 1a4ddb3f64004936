"""The per-coalition reference fold of a ``TreeGame``: the recursive walk
the oracle's batch fold (``oracle.evaluate_masks``) is checked against."""

from __future__ import annotations

from typing import Hashable

from procshap.process_tree import ProcessTree
from procshap.shapley import TreeGame


def fold_value(game: TreeGame, mask: int) -> int:
    """The value of the coalition *mask* over node ids: ``wins`` of the
    root's state, folding present nodes only."""

    if game.tree.node_id is None:
        raise ValueError("fold_value requires an id-assigned tree (assign_node_ids)")

    def state(node: ProcessTree) -> Hashable:
        if not mask >> node.node_id.index & 1:
            return game.removed
        if node.is_leaf:
            return game.leaf(node)
        first, *rest = node.children
        acc = state(first)
        for child in rest:
            acc = game.join(node.op, acc, state(child))
        return acc

    return int(game.wins(state(game.tree)))
