"""Boolean value functions for coalitions: satisfiability, liveness and
safety of the tau-substituted tree, the memoizing evaluation front-end,
and the same verdicts as a bottom-up tree summary (``tree_game``) from
which ``shapley.tree_shapley`` computes exact Shapley values without
evaluating coalitions one by one.

Semantics are commitment-based.  A commitment resolves every choice in the
tree up front: one child per Xor node and one redo count (0..K) per Loop
node.  A committed run *completes* when no blocked removed-tau lies on its
execution path.  Then

* sat  = some commitment completes,
* liv  = every commitment completes (choices are made blindly, so a
  deadlock-able branch violates liveness even if other runs complete),
* saf  = no completed run's trace contains both activities of the
  forbidden pair (vacuously safe when nothing completes).
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
    "v_sat",
    "v_liv",
    "v_saf",
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


def _leaf_completes(node: ProcessTree, mode: TauMode) -> bool:
    if node.removed:
        return mode is TauMode.SKIP
    return True


def _can_complete(node: ProcessTree, mode: TauMode) -> bool:
    if node.is_leaf:
        return _leaf_completes(node, mode)
    if node.op is Op.XOR:
        return any(_can_complete(c, mode) for c in node.children)
    if node.op is Op.LOOP:
        return _can_complete(node.children[0], mode)  # commit to zero redos
    return all(_can_complete(c, mode) for c in node.children)


def _always_completes(node: ProcessTree, mode: TauMode, bound: int) -> bool:
    if node.is_leaf:
        return _leaf_completes(node, mode)
    if node.op is Op.LOOP:
        do, redo = node.children
        if not _always_completes(do, mode, bound):
            return False
        return bound == 0 or _always_completes(redo, mode, bound)
    # Seq and And need all children; Xor too, since any child may be chosen.
    return all(_always_completes(c, mode, bound) for c in node.children)


def v_sat(tree_c: ProcessTree, spec: PropertySpec) -> int:
    """1 iff at least one commitment yields a complete run."""
    return int(_can_complete(tree_c, spec.mode))


def v_liv(tree_c: ProcessTree, spec: PropertySpec) -> int:
    """1 iff the model is satisfiable and every commitment completes."""
    if not _can_complete(tree_c, spec.mode):
        return 0
    return int(_always_completes(tree_c, spec.mode, spec.loop_bound))


def _profiles(
    node: ProcessTree, mode: TauMode, bound: int, pair: frozenset[str]
) -> frozenset[frozenset[str]]:
    """Achievable occurrence profiles over the safety pair: for every
    commitment with a complete run, which of {A, B} occur in its trace."""

    if node.is_leaf:
        if node.removed and mode is TauMode.BLOCKED:
            return frozenset()
        if node.is_activity:
            return frozenset({frozenset({node.label} & pair)})
        return frozenset({frozenset()})
    if node.op is Op.XOR:
        out: set[frozenset[str]] = set()
        for child in node.children:
            out |= _profiles(child, mode, bound, pair)
        return frozenset(out)
    if node.op is Op.LOOP:
        do, redo = node.children
        dp = _profiles(do, mode, bound, pair)
        if bound == 0:
            return dp
        rp = _profiles(redo, mode, bound, pair)
        return dp | frozenset(p | q for p in dp for q in rp)
    # Seq / And: children commit independently, occurrences accumulate.
    acc: frozenset[frozenset[str]] = frozenset({frozenset()})
    for child in node.children:
        cp = _profiles(child, mode, bound, pair)
        acc = frozenset(p | q for p in acc for q in cp)
        if not acc:
            return acc
    return acc


def v_saf(tree_c: ProcessTree, spec: PropertySpec) -> int:
    """1 iff no complete run's trace contains both forbidden activities;
    vacuously 1 when no run completes."""
    if spec.safety_pair is None:
        raise ValueError("safety evaluation requires a safety_pair (A, B)")
    pair = frozenset(spec.safety_pair)
    profiles = _profiles(tree_c, spec.mode, spec.loop_bound, pair)
    return int(pair not in profiles)


_ORACLE = {
    Property.SAT: v_sat,
    Property.LIV: v_liv,
    Property.SAF: v_saf,
}


def tree_game(tree: ProcessTree, spec: PropertySpec) -> TreeGame:
    """The oracle's verdict on every coalition of *tree*'s nodes as a
    bottom-up summary, for exact Shapley values by ``tree_shapley``.

    The state of a subtree is ``(can_complete, always_completes)`` for sat
    and liv and its set of occurrence profiles for saf; ``join`` applies
    the rules of ``_can_complete``, ``_always_completes`` and ``_profiles``
    to two children's states."""

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
    """Substitute the coalition into *tree* and evaluate the property,
    via the internal oracle or an external prover, memoizing per
    (coalition, property, mode, bound, pair)."""

    def compute() -> int:
        tree_c = substitute(tree, coalition)
        if backend == "oracle":
            return _ORACLE[spec.prop](tree_c, spec)
        if backend == "prover":
            from .logic_encoder import value_via_prover

            if prover_config is None:
                raise ValueError("prover backend requires a prover_config")
            warn = cache.add_warning if cache is not None else None
            return value_via_prover(tree_c, spec, prover_config, warn=warn)
        raise ValueError(f"unknown backend {backend!r}")

    if cache is None:
        return compute()
    key = (coalition.mask, backend) + spec.cache_key()
    return cache.get_or_compute(key, compute)
