"""The oracle: satisfiability, liveness and safety verdicts on the
coalition-reduced tree, stated once as a bottom-up tree summary
(``tree_game``), and the memoizing evaluation front-end.

Removing a node collapses its subtree to one removed tau.  Semantics are
commitment-based.  A commitment resolves every choice in the tree up
front: one child per Xor node and one redo count (0..K) per Loop node.  A
committed run *completes* when no blocked removed-tau lies on its
execution path.  Then

* sat  = some commitment completes,
* liv  = every commitment completes (choices are made blindly, so a
  deadlock-able branch violates liveness even if other runs complete),
* saf  = no completed run's trace contains both activities of the
  forbidden pair (vacuously safe when nothing completes).

``shapley.tree_shapley`` counts the summary over all coalitions at once.
Everything that asks for the verdicts of particular coalitions asks
``evaluate_masks`` for a batch of masks, the package's one coalition
evaluator.  The oracle decides a batch by running the summary as a
bottom-up tree automaton: ``tree_game``'s states, integer-coded once per
property spec, and its rules as lookup tables, so one numpy step per node
decides every mask of the batch.  The prover backend decides the
substituted trees' encodings.  ``evaluate`` is its batch of one.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable

import numpy as np

from .process_tree import (
    Coalition,
    Op,
    ProcessTree,
    TauMode,
    canonical_mask,
    iter_nodes,
    node_count,
    removed_tau,
    substitute,
    tau,
)
from .shapley import TreeGame

__all__ = [
    "TauMode",
    "Property",
    "PropertySpec",
    "ValueCache",
    "evaluate",
    "evaluate_masks",
    "tree_game",
]


class Property(str, Enum):
    SAT = "sat"
    LIV = "liv"
    SAF = "saf"


@dataclass(frozen=True)
class PropertySpec:
    prop: Property
    safety_pair: tuple[str, str] | None = None
    mode: TauMode = TauMode.BLOCKED
    loop_bound: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.prop, str) and not isinstance(self.prop, Property):
            object.__setattr__(self, "prop", Property(self.prop))
        if self.loop_bound < 0:
            raise ValueError("loop bound must be >= 0")
        if self.safety_pair is not None:
            a, b = self.safety_pair
            if a == b:
                raise ValueError("safety pair activities must differ")
        if self.prop is Property.SAF and self.safety_pair is None:
            raise ValueError("safety property requires a safety_pair (A, B)")

    def cache_key(self) -> tuple:
        return (self.prop.value, self.mode.value, self.loop_bound, self.safety_pair)


def tree_game(tree: ProcessTree, spec: PropertySpec) -> TreeGame:
    """The oracle's verdict on every coalition of *tree*'s nodes as a
    bottom-up summary: the only statement of the oracle's semantics.

    For sat and liv the state of a subtree is ``(can, always)``: some of
    its commitments completes, every one does.  A present leaf completes,
    a removed tau completes only in skip mode.  Seq and And need all
    children; Xor can complete through any child but always completes
    only if every child does, since any child may be chosen; Loop(do,
    redo) can complete by committing to zero redos, and always completes
    if do does and, when the bound allows a redo, redo does too.  sat
    wins on ``can``, liv on ``can and always``.

    For saf the state is the set of occurrence profiles: for every
    completing commitment, which of the pair {A, B} its trace contains.
    Xor unites its children's sets, Seq and And combine them pairwise,
    and Loop adds the do-redo combinations when the bound allows a redo.
    saf wins when {A, B} is not a profile."""

    return TreeGame(tree, *_rules(spec))


def _rules(spec: PropertySpec) -> tuple:
    """``tree_game``'s leaf, removed, join and wins for *spec*."""

    bound = spec.loop_bound
    skip = spec.mode is TauMode.SKIP
    if spec.prop is Property.SAF:
        pair = frozenset(spec.safety_pair)
        removed = frozenset({frozenset()}) if skip else frozenset()

        def leaf(node: ProcessTree):
            if node.removed:
                return removed
            return frozenset({frozenset({node.label} & pair)})

        def join(op: Op, a, b):
            if op is Op.XOR:
                return a | b
            both = frozenset(p | q for p in a for q in b)
            if op is Op.LOOP:
                return a if bound == 0 else a | both
            return both  # Seq / And

        return leaf, removed, join, lambda state: pair not in state

    removed = (skip, skip)

    def leaf(node: ProcessTree):
        return removed if node.removed else (True, True)

    def join(op: Op, a, b):
        (can_a, always_a), (can_b, always_b) = a, b
        if op is Op.XOR:
            return can_a or can_b, always_a and always_b
        if op is Op.LOOP:  # (do, redo): commit to zero redos to complete
            return can_a, always_a and (bound == 0 or always_b)
        return can_a and can_b, always_a and always_b  # Seq / And

    if spec.prop is Property.SAT:
        return leaf, removed, join, lambda state: state[0]
    return leaf, removed, join, lambda state: state[0] and state[1]


@functools.cache
def _automaton(spec: PropertySpec) -> tuple[dict, dict, np.ndarray]:
    """``tree_game``'s rules for *spec* over integer state codes, built
    once per spec: ``code`` numbers the states reachable from the removed
    and leaf states under ``join``, 0 being the removed state,
    ``tables[op][a, b]`` is the code of ``join(op, a, b)``, and ``wins``
    holds 0 or 1 per code.  At most 3 states for sat and liv, 16 for saf."""

    leaf, removed, join, wins = _rules(spec)
    # A leaf's state depends only on whether it is removed and on which
    # label of the pair, if any, it carries: these leaves give them all.
    pair = spec.safety_pair or ()
    leaves = (removed_tau(), tau(), *(ProcessTree(label=a) for a in pair))
    states = list(dict.fromkeys([removed, *map(leaf, leaves)]))
    code = {state: i for i, state in enumerate(states)}
    known = 0
    while known < len(states):  # until a round of joins reaches no new state
        known = len(states)
        for op, a, b in itertools.product(Op, states[:known], states[:known]):
            state = join(op, a, b)
            if state not in code:
                code[state] = len(states)
                states.append(state)
    tables = {
        op: np.array([[code[join(op, a, b)] for b in states] for a in states])
        for op in Op
    }
    return code, tables, np.array([int(wins(state)) for state in states])


def _fold(game: TreeGame, automaton: tuple, masks: list[int]) -> list[int]:
    """The verdicts of *game* on *masks*, by one bottom-up pass over a
    (node ids x masks) 0/1 matrix: a node's row of state codes is its
    leaf's code, or its children's rows folded left to right through
    ``tables[op]``, times its presence bits, since the removed state is
    code 0."""

    code, tables, wins = automaton
    tree = game.tree
    if tree.node_id is None:
        raise ValueError("the oracle requires an id-assigned tree (assign_node_ids)")
    nodes = list(iter_nodes(tree))
    ids = 1 + max(node.node_id.index for node in nodes)
    width = (ids + 7) // 8  # bytes, not uint64 words: trees can exceed 64 nodes
    full = (1 << ids) - 1
    packed = np.frombuffer(
        b"".join((mask & full).to_bytes(width, "little") for mask in masks),
        dtype=np.uint8,
    ).reshape(len(masks), width)
    present = np.unpackbits(packed.T, axis=0, count=ids, bitorder="little")
    leaf_code = np.zeros(ids, dtype=np.intp)
    for node in nodes:
        if node.is_leaf:
            leaf_code[node.node_id.index] = code[game.leaf(node)]
    state = leaf_code[:, None] * present  # every leaf's row at once
    for node in reversed(nodes):  # children before parents
        if node.is_leaf:
            continue
        table = tables[node.op]
        first, *rest = node.children
        folded = state[first.node_id.index]
        for child in rest:
            folded = table[folded, state[child.node_id.index]]
        index = node.node_id.index
        np.multiply(folded, present[index], out=state[index])
    return wins[state[tree.node_id.index]].tolist()


class ValueCache:
    """One configuration's memo table for coalition values, used from one
    thread.  Each distinct key is computed once; counters track total and
    distinct queries, and warnings collect what the computations
    reported, in query order."""

    def __init__(self) -> None:
        self._entries: dict[Hashable, int] = {}
        self.total_queries = 0
        self.distinct_queries = 0
        self.warnings: list[str] = []

    def get_or_compute(self, key: Hashable, compute: Callable[[], int]) -> int:
        self.total_queries += 1
        if key not in self._entries:
            self._entries[key] = compute()
            self.distinct_queries += 1
        return self._entries[key]

    def add_warning(self, message: str) -> None:
        self.warnings.append(message)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


def evaluate(
    tree: ProcessTree,
    coalition: Coalition,
    spec: PropertySpec,
    cache: ValueCache | None = None,
    backend: str = "oracle",
    prover_config=None,
    prover_memo: dict | None = None,
) -> int:
    """The property's verdict on *coalition* of *tree*'s nodes:
    ``evaluate_masks`` on a batch of one."""

    return evaluate_masks(
        tree, [coalition.mask], spec, cache, backend, prover_config, prover_memo
    )[0]


def evaluate_masks(
    tree: ProcessTree,
    masks: list[int],
    spec: PropertySpec,
    cache: ValueCache | None = None,
    backend: str = "oracle",
    prover_config=None,
    prover_memo: dict | None = None,
) -> list[int]:
    """The verdicts on many coalitions, given as masks over node ids, in
    order, memoized in *cache* per (key, backend, property, mode, bound,
    pair) and counted there once per mask, in the order of *masks*.

    The oracle keys the cache by raw mask.  It dedupes the masks the cache
    lacks, in mask order, and decides them all in one bottom-up pass of
    table lookups (``_fold``) through ``tree_game``'s rules compiled to
    integer tables once per spec (``_automaton``); a batch the cache
    answers whole compiles and folds nothing.  The prover keys it
    by canonical mask, since coalitions with one canonical form
    substitute to one tree, and decides the distinct canonical forms the
    cache lacks as one batch (``logic_encoder.values_via_prover``), whose
    prover calls go through *prover_memo*, a map from problem text to SZS
    status that callers may share across configurations, so a problem
    already decided, such as the sat problem behind liv's gate, costs no
    call.  It records the forms' warnings in the cache on the calling
    thread, in the order of *masks*, so the cache's contents and warnings
    do not depend on which prover call finished first."""

    if backend not in ("oracle", "prover"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "prover" and prover_config is None:
        raise ValueError("prover backend requires a prover_config")
    if cache is None:
        cache = ValueCache()
    suffix = (backend,) + spec.cache_key()
    if backend == "oracle":
        game = tree_game(tree, spec)
        keys = [(mask,) + suffix for mask in masks]
    else:
        keys = [(canonical_mask(tree, mask),) + suffix for mask in masks]
    batch = list(dict.fromkeys(key[0] for key in keys if key not in cache))
    decided: dict[int, int] = {}
    if batch and backend == "oracle":
        decided = dict(zip(batch, _fold(game, _automaton(spec), batch)))
    elif batch:
        from .logic_encoder import values_via_prover

        n = node_count(tree)
        trees_c = [substitute(tree, Coalition(n, mask)) for mask in batch]
        for mask, (value, warnings) in zip(
            batch,
            values_via_prover(trees_c, spec, prover_config, prover_memo),
            strict=True,
        ):
            for message in warnings:
                cache.add_warning(message)
            decided[mask] = value
    return [cache.get_or_compute(key, lambda: decided[key[0]]) for key in keys]
