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
evaluator: the oracle folds the summary over each coalition
(``TreeGame.value``), the prover backend decides the substituted trees'
encodings.  ``evaluate`` is its batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable

from .process_tree import (
    Coalition,
    Op,
    ProcessTree,
    TauMode,
    canonical_mask,
    node_count,
    substitute,
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

        return TreeGame(tree, leaf, removed, join, lambda state: pair not in state)

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
        return TreeGame(tree, leaf, removed, join, lambda state: state[0])
    return TreeGame(tree, leaf, removed, join, lambda state: state[0] and state[1])


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

    The oracle keys the cache by raw mask and folds one ``tree_game``,
    built per call, over each mask the cache lacks.  The prover keys it
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
    if cache is None:
        cache = ValueCache()
    suffix = (backend,) + spec.cache_key()
    if backend == "oracle":
        keys = [(mask,) + suffix for mask in masks]
        decide = tree_game(tree, spec).value
    else:
        from .logic_encoder import values_via_prover

        if prover_config is None:
            raise ValueError("prover backend requires a prover_config")
        keys = [(canonical_mask(tree, mask),) + suffix for mask in masks]
        batch = list(dict.fromkeys(key[0] for key in keys if key not in cache))
        n = node_count(tree)
        trees_c = [substitute(tree, Coalition(n, mask)) for mask in batch]
        decided = {}
        for mask, (value, warnings) in zip(
            batch,
            values_via_prover(trees_c, spec, prover_config, prover_memo),
            strict=True,
        ):
            for message in warnings:
                cache.add_warning(message)
            decided[mask] = value
        decide = decided.__getitem__
    return [cache.get_or_compute(key, lambda: decide(key[0])) for key in keys]
