"""The oracle: satisfiability, liveness and safety verdicts on the
coalition-reduced tree, stated once as the rules of a bottom-up tree
automaton (``_rules``), and the batch evaluation front-end.

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

``_automaton`` compiles the rules once per property spec: integer state
codes, a leaf coder and one lookup table per operator.  Both exact and
batch evaluation run that one compiled automaton.
``shapley.tree_shapley`` counts it over all coalitions at once.
Everything that asks for the verdicts of particular coalitions asks
``evaluate_rows`` for a batch, the package's one coalition evaluator: a
0/1 coalition matrix, one row per coalition and one column per node id.
Passing a ``logic_encoder.ProverConfig`` selects the prover; without one
the oracle folds every row of the batch in one numpy step per node
(``_fold``), through a node program compiled once per configuration's
tree and spec (``ValueCache.program``), and stores no verdict.  The
prover decides one encoding per distinct canonical form, in rounds from
the largest forms down: sat and liv rise with the coalition and saf
falls, so a real verdict settles larger or smaller forms, in its own
batch and in every later batch of the configuration.  A
configuration's ``ValueCache`` counts every row asked in
``total_queries`` and every distinct row (canonical form, on the prover)
once per (backend, spec) in ``distinct_queries``.  Rows are only how a
batch is represented: which coalitions a batch holds, and how the
estimators split their queries into batches, does not depend on it.
Callers that hold int masks convert them with ``coalition_rows``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable, Sequence

import numpy as np

from .process_tree import (
    Coalition,
    Op,
    ProcessTree,
    TauMode,
    canonical_mask,
    iter_nodes,
    removed_tau,
    substitute,
    tau,
)

__all__ = [
    "TauMode",
    "Property",
    "PropertySpec",
    "ValueCache",
    "coalition_rows",
    "evaluate_rows",
    "row_masks",
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


def _rules(spec: PropertySpec) -> tuple:
    """The oracle's verdict on every coalition of a tree's nodes as a
    bottom-up summary, ``(leaf, removed, join, wins)`` for *spec*: the
    only statement of the oracle's semantics.

    A coalition's verdict is ``wins(state(root))``, where an absent node
    has state ``removed``, a present leaf has state ``leaf(node)``, and a
    present operator folds its children's states left to right:
    ``join(op, join(op, s1, s2), s3) ...``.

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
def _automaton(spec: PropertySpec) -> tuple[Callable, dict, np.ndarray]:
    """``_rules(spec)`` over integer state codes, built once per spec:
    the codes number the states reachable from the removed and leaf
    states under ``join``, 0 being the removed state, ``leaf_code(node)``
    is the code of a leaf's state, ``tables[op][a, b]`` is the code of
    ``join(op, a, b)``, and ``wins`` holds 0 or 1 per code.  At most 3
    states for sat and liv, 16 for saf."""

    leaf, removed, join, wins = _rules(spec)
    # A leaf's state depends only on whether it is removed and on which
    # label of the pair, if any, it carries: these leaves give them all.
    pair = spec.safety_pair or ()
    leaves = (removed_tau(), tau(), *(ProcessTree(label=a) for a in pair))
    states = list(dict.fromkeys([removed, *map(leaf, leaves)]))
    code = {state: i for i, state in enumerate(states)}
    joined = {}  # (op, a, b) -> join(op, a, b), each pair joined once
    for i, new in enumerate(states):  # states grows as joins reach new ones
        for op, old in itertools.product(Op, states[: i + 1]):
            for a, b in dict.fromkeys([(new, old), (old, new)]):
                state = joined[op, a, b] = join(op, a, b)
                if state not in code:
                    code[state] = len(states)
                    states.append(state)
    tables = {
        op: np.array([[code[joined[op, a, b]] for b in states] for a in states])
        for op in Op
    }
    wins_of = np.array([int(wins(state)) for state in states])
    return lambda node: code[leaf(node)], tables, wins_of


def coalition_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """Int masks over players 0..n-1 (bit i keeps player i) as a
    ``(len(masks), n)`` uint8 coalition matrix, one row per mask: the
    one conversion for callers that hold masks.  A negative mask, or one
    with a bit at n or above, raises ``ValueError``."""

    if any(mask < 0 or mask >> n for mask in masks):
        raise ValueError(f"a coalition mask is negative or has a bit past player {n - 1}")
    width = (n + 7) // 8
    data = b"".join(mask.to_bytes(width, "little") for mask in masks)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def row_masks(rows: np.ndarray) -> list[int]:
    """The rows of a 0/1 coalition matrix as int masks, bit i for column i:
    the inverse of ``coalition_rows``."""

    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _checked(rows, width: int) -> np.ndarray:
    """*rows* as a uint8 matrix, if it is a rank-2 matrix of 0/1 integers
    with *width* columns; ``ValueError`` naming its shape otherwise."""

    rows = np.asarray(rows)
    if (
        rows.ndim != 2
        or rows.shape[1] != width
        or rows.dtype.kind not in "biu"
        or (rows.size and (rows.min() < 0 or rows.max() > 1))
    ):
        raise ValueError(
            f"coalition matrix of shape {rows.shape} and dtype {rows.dtype}: "
            f"need 0/1 integer rows of {width} columns, one per node id"
        )
    return rows.astype(np.uint8, copy=False)


def _span(tree: ProcessTree) -> int:
    """One more than *tree*'s largest node id: its coalition matrices' width."""
    if tree.node_id is None:
        raise ValueError("the oracle requires an id-assigned tree (assign_node_ids)")
    return 1 + max(node.node_id.index for node in iter_nodes(tree))


def _compile(tree: ProcessTree, spec: PropertySpec) -> tuple:
    """*tree*'s node program for ``_fold`` under *spec*: ``(ids, root,
    leaves, steps, states, wins)``, with the leaf state code per node id
    and one ``(index, table, children)`` step per operator node, children
    before parents.  ``table`` is the operator's join table of
    ``_automaton(spec)`` flattened to uint8 and read at ``a * states +
    b``, which at most 16 states keep within a byte."""

    ids = _span(tree)
    leaf_code, tables, wins = _automaton(spec)
    flat = {op: table.astype(np.uint8).ravel() for op, table in tables.items()}
    nodes = list(iter_nodes(tree))
    leaves = np.zeros(ids, dtype=np.uint8)
    steps = []
    for node in reversed(nodes):
        if node.is_leaf:
            leaves[node.node_id.index] = leaf_code(node)
        else:
            children = [child.node_id.index for child in node.children]
            steps.append((node.node_id.index, flat[node.op], children))
    return ids, tree.node_id.index, leaves, steps, len(wins), wins


def _fold(program: tuple, rows: np.ndarray) -> np.ndarray:
    """The verdicts of a compiled node *program* (``_compile``) on every
    row of the coalition matrix *rows*, by one bottom-up pass over its
    transpose: a node's row of state codes is its leaf's code, or its
    children's rows folded left to right through its join table, times
    its presence bits, since the removed state is code 0."""

    _, root, leaves, steps, states, wins = program
    present = np.ascontiguousarray(rows.T)
    state = leaves[:, None] * present  # every leaf's row at once
    for index, table, (first, *rest) in steps:
        folded = state[first]
        for child in rest:
            folded = table.take(folded * states + state[child])
        np.multiply(folded, present[index], out=state[index])
    return wins[state[root]]


def _pack(rows: np.ndarray) -> np.ndarray:
    """*rows* packed into uint64 words, one row of words per coalition:
    the rows are padded to whole words, so one flat ``packbits`` packs
    them all."""
    k, n = rows.shape
    words = -(-n // 64)
    bits = np.zeros((k, words * 64), dtype=np.uint8)
    bits[:, :n] = rows
    return np.packbits(bits.reshape(-1), bitorder="little").view(np.uint64).reshape(k, words)


def _distinct(words: np.ndarray) -> np.ndarray:
    """The distinct rows of a word matrix, by sorting (a lexsort when the
    rows take more than one word) and keeping each row that differs from
    the one before (``np.unique`` over rows is far slower)."""
    if len(words) < 2:
        return words
    if words.shape[1] == 1:
        ordered = np.sort(words, axis=0)
    else:
        ordered = words[np.lexsort(words.T)]
    keep = np.ones(len(ordered), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=keep[1:])
    return ordered[keep]


class ValueCache:
    """One configuration's record of its coalition queries, used from one
    thread and one tree.

    The oracle stores no verdict: it keeps the node program it compiled
    for the tree and spec (``program``) and, per (backend, spec) suffix,
    the rows it was asked, packed into uint64 words.  The prover keeps a
    canonical mask -> verdict dict per suffix (``table``) and, beside
    it, the plain list of the verdicts it decided with no warning
    (``verdicts``), from which later batches settle forms.
    ``total_queries`` counts the rows asked; ``distinct_queries``, which
    is ``len``, counts the distinct rows per suffix plus the tables'
    entries.  Warnings collect what the computations reported, in
    order."""

    def __init__(self) -> None:
        self._tables: dict[tuple, dict[Hashable, int]] = {}
        self._verdicts: dict[tuple, list[tuple[int, int]]] = {}
        self._words: dict[tuple, list[np.ndarray]] = {}
        self._programs: dict[PropertySpec, tuple[ProcessTree, tuple]] = {}
        self.total_queries = 0
        self.warnings: list[str] = []

    def table(self, suffix: tuple) -> dict[Hashable, int]:
        """The mask -> verdict table of *suffix*, ``(backend,) + spec.cache_key()``."""
        return self._tables.setdefault(suffix, {})

    def verdicts(self, suffix: tuple) -> list[tuple[int, int]]:
        """The prover's real verdicts under *suffix*: the ``(canonical
        mask, value)`` pairs it decided with no warning, in order."""
        return self._verdicts.setdefault(suffix, [])

    def program(self, tree: ProcessTree, spec: PropertySpec) -> tuple:
        """The oracle's node program for *tree* under *spec*, compiled
        once: the tree is matched by identity, never hashed."""
        held = self._programs.get(spec)
        if held is None or held[0] is not tree:
            held = self._programs[spec] = (tree, _compile(tree, spec))
        return held[1]

    def record_rows(self, suffix: tuple, rows: np.ndarray) -> None:
        """Count the coalition matrix *rows* as asked under *suffix*."""
        self.total_queries += len(rows)
        self._words.setdefault(suffix, []).append(_pack(rows))

    def get_or_compute(self, key: Hashable, compute: Callable[[], int]) -> int:
        """*key*'s value, computed once and kept in ``table(())``: kept
        for perfbench's checker/tracer (ROADMAP item 1)."""
        table = self.table(())
        self.total_queries += 1
        if key not in table:
            table[key] = compute()
        return table[key]

    @property
    def distinct_queries(self) -> int:
        return len(self)

    def __len__(self) -> int:
        for words in self._words.values():
            words[:] = [_distinct(np.concatenate(words))]
        return sum(map(len, self._tables.values())) + sum(
            len(words[0]) for words in self._words.values()
        )


def evaluate(
    tree: ProcessTree,
    coalition: Coalition,
    spec: PropertySpec,
    cache: ValueCache | None = None,
) -> int:
    """The oracle's verdict on *coalition* of *tree*'s nodes, by
    ``evaluate_rows``: kept for perfbench's checker/tracer (ROADMAP item 1)."""

    rows = coalition_rows([coalition.mask], coalition.n)
    return int(evaluate_rows(tree, rows, spec, cache)[0])


def evaluate_rows(
    tree: ProcessTree,
    rows: np.ndarray,
    spec: PropertySpec,
    cache: ValueCache | None = None,
    prover_config=None,
    prover_memo: dict | None = None,
) -> np.ndarray:
    """The verdicts on a batch of coalitions, in order, as an int64
    array: *rows* is a 0/1 coalition matrix with one row per coalition
    and one column per node id of *tree* (``coalition_rows`` makes one
    from int masks).  A matrix of another rank or width, or with other
    entries, raises ``ValueError``.  *cache* counts every row asked in
    ``total_queries`` and every distinct one once per (backend,
    property, mode, bound, pair) in ``distinct_queries``.

    Without a *prover_config* the oracle folds every row, repeats
    included, in one bottom-up pass of table lookups (``_fold``) through
    the node program that *cache* compiled for *tree* and *spec*
    (``_compile``, from ``_rules`` compiled to integer tables once per
    spec by ``_automaton``), and stores no verdict.  With one, the prover
    keys *cache*'s table of the (backend, spec) by canonical mask, since
    coalitions with one canonical form substitute to one tree, and
    decides the distinct canonical forms the table lacks through
    ``logic_encoder.values_via_prover`` in rounds from the maximal forms
    down (``_prove``), inferring a form's verdict from a real verdict on
    a larger or smaller form instead of asking for it.  The real
    verdicts of earlier batches under the same suffix
    (``ValueCache.verdicts``) settle forms as this batch's own do, so a
    form is handed over only when no real verdict the configuration
    holds settles it.  The calls go through *prover_memo*, a map from
    problem text to SZS status that callers may share across
    configurations, so a problem already decided, such as the sat
    problem behind liv's gate, costs no call.
    Once the last round is done, the forms' warnings are recorded in the
    cache on the calling thread, in row order, so the cache's contents
    and warnings do not depend on which prover call finished first; a
    form whose verdict was inferred raises none."""

    if cache is None:
        cache = ValueCache()
    if prover_config is None:
        program = cache.program(tree, spec)
        rows = _checked(rows, program[0])
        cache.record_rows(("oracle",) + spec.cache_key(), rows)
        return _fold(program, rows)
    rows = _checked(rows, _span(tree))
    masks = [canonical_mask(tree, mask) for mask in row_masks(rows)]
    suffix = ("prover",) + spec.cache_key()
    table = cache.table(suffix)
    batch = [mask for mask in dict.fromkeys(masks) if mask not in table]
    if batch:
        verdicts = cache.verdicts(suffix)
        results = _prove(tree, batch, spec, prover_config, prover_memo, verdicts)
        for mask in batch:
            table[mask], warnings = results[mask]
            cache.warnings.extend(warnings)
    cache.total_queries += len(masks)
    return np.fromiter(map(table.__getitem__, masks), dtype=np.int64, count=len(masks))


def _prove(
    tree: ProcessTree,
    batch: list[int],
    spec: PropertySpec,
    config,
    memo: dict | None,
    verdicts: list[tuple[int, int]],
) -> dict[int, tuple[int, list[str]]]:
    """Each canonical mask of *batch* with its value and the warnings the
    prover raised for it, decided in rounds.

    sat and liv are monotone: adding a node never turns them from 1 to
    0.  saf is antitone: never from 0 to 1.  Order saf's states (sets of
    profiles, ``_rules``) by X <= Y when each profile of X lies inside
    one of Y.  A removed node's state, {} blocked and {{}} skipped (no
    skip-mode state is empty), lies below any present subtree's; Xor's
    union, Seq and And's pairwise union and Loop's ``a | both`` preserve
    <=; the winning states are closed downward.  So a node added under
    present ancestors moves the root's state up, and saf can only fall.

    One settle step decides the undecided forms from real verdicts: a
    verdict that rises with the coalition (sat's or liv's 1, saf's 0:
    saf is compared as 1 - v) decides every undecided super-form and
    any other verdict every undecided sub-form, each as that verdict.
    It runs first on *verdicts*, the configuration's real verdicts from
    earlier batches (``ValueCache.verdicts``), and then after each round
    on that round's new ones, which then join *verdicts*.  A form
    whose result carries warnings (no verdict) decides only itself and
    never enters *verdicts*.  Each round hands
    ``logic_encoder.values_via_prover`` one batch: the forms no undecided
    form strictly contains, plus the empty form in the first round.  A
    form counts as maximal when none of its one-node frontier extensions
    is undecided, which may ask a form that a larger undecided one
    contains, never skip one.  Within a round the forms keep the order
    of *batch*."""

    from .logic_encoder import values_via_prover

    def ask(masks: list[int]):
        trees_c = [substitute(tree, mask) for mask in masks]
        return zip(masks, values_via_prover(trees_c, spec, config, memo), strict=True)

    rises = spec.prop in (Property.SAT, Property.LIV)
    children = {
        node.node_id.index: [child.node_id.index for child in node.children]
        for node in iter_nodes(tree)
    }

    def extensions(mask: int) -> list[int]:
        """The rooted subtrees one frontier node larger than a non-empty *mask*."""
        return [
            mask | 1 << child
            for index, below in children.items() if mask >> index & 1
            for child in below if not mask >> child & 1
        ]

    results: dict[int, tuple[int, list[str]]] = {}
    pending = dict.fromkeys(batch)  # the undecided forms, in batch order

    def settle(decided: list[tuple[int, int]]) -> None:
        for mask, value in decided:
            for other in [
                other for other in pending
                if (mask & ~other if value == rises else other & ~mask) == 0
            ]:
                results[other] = (value, [])
                del pending[other]

    settle(verdicts)
    above = {mask: extensions(mask) for mask in pending}
    while pending:
        asked = [mask for mask in pending if not any(e in pending for e in above[mask])]
        for mask, result in ask(asked):
            results[mask] = result
            del pending[mask]
        new = [(mask, results[mask][0]) for mask in asked if not results[mask][1]]
        settle(new)
        verdicts += new
    return results
