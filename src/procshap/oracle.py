"""The oracle: satisfiability, liveness and safety verdicts on the
coalition-reduced tree, stated once as a bottom-up tree summary
(``tree_game``), and the batch evaluation front-end, memoized in one
mask -> verdict table per (backend, spec).

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
substituted trees' encodings; sat and liv grow with the coalition, so it
asks for them in rounds from the largest forms down and infers the
verdicts that a real verdict on a larger or smaller form settles.
``evaluate`` is its batch of one.
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
    """One configuration's memo of coalition verdicts, used from one
    thread: a mask -> verdict dict per (backend, spec) suffix (``table``),
    which ``get_or_compute`` reaches by key ``(mask, *suffix)``, or ``()``
    for a key that is no tuple.  Counters track total and distinct
    queries; warnings collect what the computations reported, in order."""

    def __init__(self) -> None:
        self._tables: dict[tuple, dict[Hashable, int]] = {}
        self.total_queries = 0
        self.distinct_queries = 0
        self.warnings: list[str] = []

    def table(self, suffix: tuple) -> dict[Hashable, int]:
        """The mask -> verdict table of *suffix*, ``(backend,) + spec.cache_key()``."""
        return self._tables.setdefault(suffix, {})

    def get_or_compute(self, key: Hashable, compute: Callable[[], int]) -> int:
        suffix, mask = _split_key(key)
        table = self.table(suffix)
        self.total_queries += 1
        if mask not in table:
            table[mask] = compute()
            self.distinct_queries += 1
        return table[mask]

    def add_warning(self, message: str) -> None:
        self.warnings.append(message)

    def __contains__(self, key: Hashable) -> bool:
        suffix, mask = _split_key(key)
        return mask in self._tables.get(suffix, ())

    def __len__(self) -> int:
        return sum(map(len, self._tables.values()))


def _split_key(key: Hashable) -> tuple[tuple, Hashable]:  # (suffix, mask)
    return (key[1:], key[0]) if isinstance(key, tuple) and key else ((), key)


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
    order, memoized in *cache*'s table of (backend, property, mode, bound,
    pair), keyed by mask, and counted there once per mask.

    The oracle keys the table by raw mask.  It dedupes the masks the table
    lacks, in mask order, and decides them all in one bottom-up pass of
    table lookups (``_fold``) through ``tree_game``'s rules compiled to
    integer tables once per spec (``_automaton``); a batch the table
    answers whole compiles and folds nothing.  The prover keys it by
    canonical mask, since coalitions with one canonical form substitute
    to one tree, and decides the distinct canonical forms the table
    lacks through ``logic_encoder.values_via_prover`` (``_prove``):
    saf as one batch, sat and liv, which are monotone, in rounds from the
    maximal forms down, inferring a form's verdict from a real verdict on
    a larger or smaller form instead of asking for it.  The prover calls
    go through *prover_memo*, a map from problem text to SZS status that
    callers may share across configurations, so a problem already
    decided, such as the sat problem behind liv's gate, costs no call.
    Once the last round is done, the forms' warnings are recorded in the
    cache on the calling thread, in the order of *masks*, so the cache's
    contents and warnings do not depend on which prover call finished
    first; a form whose verdict was inferred raises none.  Under the
    abort policy the error comes from the first failing form, in mask
    order, of the first round that fails."""

    if backend not in ("oracle", "prover"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "prover" and prover_config is None:
        raise ValueError("prover backend requires a prover_config")
    if cache is None:
        cache = ValueCache()
    table = cache.table((backend,) + spec.cache_key())
    if backend == "prover":
        masks = [canonical_mask(tree, mask) for mask in masks]
    else:
        game = tree_game(tree, spec)
    batch = [mask for mask in dict.fromkeys(masks) if mask not in table]
    if batch and backend == "oracle":
        table.update(zip(batch, _fold(game, _automaton(spec), batch)))
    elif batch:
        results = _prove(tree, batch, spec, prover_config, prover_memo)
        for mask in batch:
            table[mask], warnings = results[mask]
            cache.warnings.extend(warnings)
    cache.total_queries += len(masks)
    cache.distinct_queries += len(batch)
    return list(map(table.__getitem__, masks))


def _prove(
    tree: ProcessTree,
    batch: list[int],
    spec: PropertySpec,
    config,
    memo: dict | None,
) -> dict[int, tuple[int, list[str]]]:
    """Each canonical mask of *batch* with its value and the warnings the
    prover raised for it.

    saf goes to ``logic_encoder.values_via_prover`` as one batch.  sat
    and liv are monotone in the coalition, so they go in rounds, one
    batch each: the forms no undecided form strictly contains, plus the
    empty form in the first round.  A verdict of 0 decides every
    undecided sub-form as 0 and a verdict of 1 every undecided super-form
    as 1; a form whose result carries warnings (no verdict) decides only
    itself.  A form counts as maximal when none of its one-node frontier
    extensions is undecided, which may ask a form that a larger
    undecided one contains, never skip one.  Within a round the forms
    keep the order of *batch*, so under the abort policy the error comes
    from the first failing form of the first round that fails."""

    from .logic_encoder import values_via_prover

    n = node_count(tree)

    def ask(masks: list[int]):
        trees_c = [substitute(tree, Coalition(n, mask)) for mask in masks]
        return zip(masks, values_via_prover(trees_c, spec, config, memo), strict=True)

    if spec.prop is Property.SAF:
        return dict(ask(batch))
    children = {
        node.node_id.index: [child.node_id.index for child in node.children]
        for node in iter_nodes(tree)
    }

    def extensions(mask: int) -> list[int]:
        """The rooted subtrees one frontier node larger than *mask*."""
        if not mask:
            return [1 << tree.node_id.index]
        return [
            mask | 1 << child
            for index, below in children.items() if mask >> index & 1
            for child in below if not mask >> child & 1
        ]

    above = {mask: extensions(mask) for mask in batch}
    results: dict[int, tuple[int, list[str]]] = {}
    pending = dict.fromkeys(batch)  # the undecided forms, in batch order
    first = True
    while pending:
        asked = [
            mask for mask in pending
            if (first and not mask) or not any(e in pending for e in above[mask])
        ]
        first = False
        for mask, result in ask(asked):
            results[mask] = result
            del pending[mask]
        for mask in asked:
            value, warnings = results[mask]
            if warnings:
                continue
            for other in [
                other for other in pending
                if (mask & ~other if value else other & ~mask) == 0
            ]:
                results[other] = (value, [])
                del pending[other]
    return results
