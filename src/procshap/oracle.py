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

``evaluate`` folds the summary over one coalition (``TreeGame.value``)
and ``shapley.tree_shapley`` counts it over all of them; the prover
backend decides the same verdicts from the substituted tree's encoding.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable

from .process_tree import Coalition, Op, ProcessTree, TauMode, substitute
from .shapley import TreeGame

__all__ = [
    "TauMode",
    "Property",
    "PropertySpec",
    "ValueCache",
    "evaluate",
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
    """Concurrent memo table for coalition values.  Each distinct key is
    computed exactly once; counters track total and distinct queries."""

    def __init__(self) -> None:
        self._entries: dict[Hashable, int] = {}
        self._pending: dict[Hashable, threading.Event] = {}
        self._lock = threading.Lock()
        self.total_queries = 0
        self.distinct_queries = 0
        self.warnings: list[str] = []

    def get_or_compute(self, key: Hashable, compute: Callable[[], int]) -> int:
        with self._lock:
            self.total_queries += 1
            if key in self._entries:
                return self._entries[key]
            event = self._pending.get(key)
            if event is None:
                event = threading.Event()
                self._pending[key] = event
                owner = True
            else:
                owner = False
        if not owner:
            event.wait()
            with self._lock:
                return self._entries[key]
        try:
            value = compute()
        except BaseException:
            with self._lock:
                del self._pending[key]
            event.set()
            raise
        with self._lock:
            self._entries[key] = value
            self.distinct_queries += 1
            del self._pending[key]
        event.set()
        return value

    def add_warning(self, message: str) -> None:
        with self._lock:
            self.warnings.append(message)

    def __len__(self) -> int:
        return len(self._entries)


def evaluate(
    tree: ProcessTree,
    coalition: Coalition,
    spec: PropertySpec,
    cache: ValueCache | None = None,
    backend: str = "oracle",
    prover_config=None,
) -> int:
    """The property's verdict on *coalition* of *tree*'s nodes, memoized
    per (coalition, property, mode, bound, pair): the oracle folds
    ``tree_game`` over the coalition, the prover backend decides the
    encoding of the substituted tree."""

    def compute() -> int:
        if backend == "oracle":
            return tree_game(tree, spec).value(coalition.mask)
        if backend == "prover":
            from .logic_encoder import value_via_prover

            if prover_config is None:
                raise ValueError("prover backend requires a prover_config")
            warn = cache.add_warning if cache is not None else None
            tree_c = substitute(tree, coalition)
            return value_via_prover(tree_c, spec, prover_config, warn=warn)
        raise ValueError(f"unknown backend {backend!r}")

    if cache is None:
        return compute()
    key = (coalition.mask, backend) + spec.cache_key()
    return cache.get_or_compute(key, compute)
