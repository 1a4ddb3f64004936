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
codes, a leaf coder and one lookup table per operator.  ``_compile``
makes it one tree's node program, whose players are the node ids:
batch evaluation folds it, ``shapley.tree_shapley`` counts it.
Everything that asks for the verdicts of particular coalitions asks
``evaluate_rows(cache, rows)`` for a batch, the package's one coalition
evaluator: *rows* is a 0/1 coalition matrix, one row per coalition and
one column per node id, and *cache* a ``ValueCache`` made for one
configuration, a tree under a spec on one backend, which compiles its
program once (``ValueCache.program``).  A cache made with a
``logic_encoder.ProverConfig`` asks the prover; without one the oracle
folds every row in one numpy step per node (``_fold``) and stores no
verdict.  The prover decides one encoding per distinct canonical form
(``evaluate_rows``), in rounds from the largest forms down: sat and liv
rise with the coalition and saf falls, so a real verdict settles larger
or smaller forms, in its batch and every later one of the configuration.
Its ``ValueCache`` counts every row asked in ``total_queries`` and every
distinct row (canonical form, on the prover) once in
``distinct_queries``.  Rows are only how a batch is represented: which
coalitions a batch holds, and how the estimators split their queries
into batches, does not depend on it.  Callers that hold int masks
convert them with ``coalition_rows``.
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
    is the code of a leaf's state, ``tables[op]`` is a flat uint8 table
    whose entry ``a * states + b`` is the code of ``join(op, a, b)``, and
    ``wins`` holds 0 or 1 per code.  At most 3 states for sat and liv,
    16 for saf, so every code fits in a byte."""

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
        op: np.array([code[joined[op, a, b]] for a in states for b in states], np.uint8)
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


def _span(nodes: list[ProcessTree]) -> int:
    """One more than the largest id of a tree's *nodes*, root first: its rows' width."""
    if nodes[0].node_id is None:
        raise ValueError("the oracle requires an id-assigned tree (assign_node_ids)")
    return 1 + max(node.node_id.index for node in nodes)


def _compile(tree: ProcessTree, spec: PropertySpec) -> tuple:
    """*tree*'s node program for ``_fold`` under *spec*: ``(ids, root,
    leaves, steps, states, wins)``, with the leaf state code per node id
    and one ``(index, table, children)`` step per operator node, children
    before parents.  ``table`` is the operator's flat join table of
    ``_automaton(spec)``, read at ``a * states + b``."""

    nodes = list(iter_nodes(tree))
    ids = _span(nodes)
    leaf_code, tables, wins = _automaton(spec)
    leaves = np.zeros(ids, dtype=np.uint8)
    steps = []
    for node in reversed(nodes):
        if node.is_leaf:
            leaves[node.node_id.index] = leaf_code(node)
        else:
            children = [child.node_id.index for child in node.children]
            steps.append((node.node_id.index, tables[node.op], children))
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


def _forms(program: tuple, rows: np.ndarray) -> list[int]:
    """The canonical forms of the rows of *rows* as int masks, by one pass
    over *program*'s operator steps, parents before children.  The forms
    start clear, so the columns of ids the tree lacks stay clear."""

    _, root, _, steps, _, _ = program
    present = np.ascontiguousarray(rows.T)
    forms = np.zeros_like(present)
    forms[root] = present[root]
    for index, _, children in reversed(steps):
        forms[children] = present[children] & forms[index]
    return row_masks(forms.T)


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
    """The record of one configuration's coalition queries: *tree* (its
    node ids assigned) under *spec* on one backend, the oracle or the
    prover *prover* selects, asked from one thread.

    The configuration is fixed when the cache is made.  ``program``, the
    configuration's node program, is compiled the first time it is read;
    a cache made without a tree has none, and ``evaluate_rows`` refuses
    it, but it still counts rows and serves ``get_or_compute``.  The
    oracle stores no verdict: it keeps the rows it was asked, packed into
    uint64 words.  The prover keeps a canonical mask (``evaluate_rows``)
    -> verdict dict (``table``) and, beside it, the plain list of the
    verdicts it decided with no warning (``verdicts``), from which later
    batches settle forms; its calls go through *memo*, a map from problem
    text to SZS status that callers may share across configurations, so a
    problem already decided costs no call.  ``total_queries`` counts the
    rows asked; ``distinct_queries``, which is ``len``, counts the
    distinct rows plus the table's entries.  Warnings collect what the
    computations reported, in order."""

    def __init__(self, tree: ProcessTree | None = None, spec: PropertySpec | None = None,
                 prover=None, memo: dict | None = None) -> None:
        self.tree, self.spec, self.prover, self.memo = tree, spec, prover, memo
        self.table: dict[int, int] = {}
        self.verdicts: list[tuple[int, int]] = []
        self._words: list[np.ndarray] = []
        self._stored: dict[Hashable, int] = {}  # get_or_compute's
        self.total_queries = 0
        self.warnings: list[str] = []

    @functools.cached_property
    def program(self) -> tuple:
        """The configuration's node program (``_compile``)."""
        if self.tree is None:
            raise ValueError("this ValueCache was made without a tree: make one "
                             "per configuration, ValueCache(tree, spec[, prover, memo])")
        return _compile(self.tree, self.spec)

    def record_rows(self, rows: np.ndarray) -> None:
        """Count the coalition matrix *rows* as asked of the oracle."""
        self.total_queries += len(rows)
        self._words.append(_pack(rows))

    def get_or_compute(self, key: Hashable, compute: Callable[[], int]) -> int:
        """*key*'s value, computed once and kept apart from ``table``:
        kept for perfbench's checker/tracer (ROADMAP item 1)."""
        self.total_queries += 1
        if key not in self._stored:
            self._stored[key] = compute()
        return self._stored[key]

    @property
    def distinct_queries(self) -> int:
        return len(self)

    def __len__(self) -> int:
        if self._words:
            self._words[:] = [_distinct(np.concatenate(self._words))]
        return len(self.table) + len(self._stored) + sum(map(len, self._words))


def evaluate(
    tree: ProcessTree,
    coalition: Coalition,
    spec: PropertySpec,
    cache: ValueCache | None = None,
) -> int:
    """The oracle's verdict on *coalition* of *tree*'s nodes, folded
    through ``ValueCache(tree, spec)``; *cache*, if given, counts the row:
    kept for perfbench's checker/tracer (ROADMAP item 1)."""

    rows = coalition_rows([coalition.mask], coalition.n)
    [value] = evaluate_rows(ValueCache(tree, spec), rows)
    if cache is not None:
        cache.record_rows(rows)
    return int(value)


def evaluate_rows(cache: ValueCache, rows: np.ndarray) -> np.ndarray:
    """The verdicts of *cache*'s configuration on a batch of coalitions,
    in order, as an int64 array: *rows* is a 0/1 coalition matrix with
    one row per coalition and one column per node id of the cache's tree
    (``coalition_rows`` makes one from int masks).  A matrix of another
    rank or width, or with other entries, raises ``ValueError``, and so
    does a cache made without a tree.  *cache* counts every row asked in
    ``total_queries`` and every distinct one once in
    ``distinct_queries``.  Both backends read the tree through the
    cache's node program (``ValueCache.program``).

    A coalition's canonical form is its row with the columns of every
    node that has an absent ancestor, and of every id the tree lacks,
    cleared: a rooted subtree of the tree, or 0.  Two coalitions
    substitute to the same tree exactly when their canonical forms are
    equal.

    On the oracle (no ``ValueCache.prover``) every row, repeats
    included, is folded in one bottom-up pass of table lookups
    (``_fold``), and no verdict is stored.  On the prover the batch's
    canonical forms are found in one top-down pass (``_forms``) and key
    the cache's table (``ValueCache.table``); the distinct forms it lacks
    are decided through ``logic_encoder.values_via_prover`` in rounds
    from the maximal forms down (``_prove``), inferring a form's verdict
    from a real verdict on a larger or smaller form instead of asking
    for it.  The real verdicts of the configuration's earlier batches
    (``ValueCache.verdicts``) settle forms as this batch's own do, so a
    form is handed over only when no real verdict the configuration
    holds settles it.  Once the last round is done, the forms' warnings
    are recorded in the cache on the calling thread, in row order, so the
    cache's contents and warnings do not depend on which prover call
    finished first; a form whose verdict was inferred raises none."""

    program = cache.program
    rows = _checked(rows, program[0])
    if cache.prover is None:
        cache.record_rows(rows)
        return _fold(program, rows)
    masks = _forms(program, rows)
    table = cache.table
    batch = [mask for mask in dict.fromkeys(masks) if mask not in table]
    if batch:
        results = _prove(cache, batch)
        for mask in batch:
            table[mask], warnings = results[mask]
            cache.warnings.extend(warnings)
    cache.total_queries += len(masks)
    return np.fromiter(map(table.__getitem__, masks), dtype=np.int64, count=len(masks))


def _prove(cache: ValueCache, batch: list[int]) -> dict[int, tuple[int, list[str]]]:
    """Each canonical mask of *batch* with its value and the warnings the
    prover raised for it, decided in rounds for *cache*'s configuration.

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
    It runs first on the configuration's real verdicts from earlier
    batches (``ValueCache.verdicts``), and then after each round on that
    round's new ones, which then join them.  A form whose result carries
    warnings (no verdict) decides only itself and never joins them.
    Each round hands ``logic_encoder.values_via_prover`` one batch: the
    forms no undecided form strictly contains, plus the empty form in the
    first round.  A form counts as maximal when none of its one-node
    frontier extensions (a child, in the node program's operator steps,
    of a node it holds) is undecided, which may ask a form that a larger
    undecided one contains, never skip one.  Within a round the forms
    keep the order of *batch*."""

    from .logic_encoder import values_via_prover

    tree, spec, steps, verdicts = cache.tree, cache.spec, cache.program[3], cache.verdicts

    def ask(masks: list[int]):
        trees_c = [substitute(tree, mask) for mask in masks]
        return zip(masks, values_via_prover(trees_c, spec, cache.prover, cache.memo), strict=True)

    rises = spec.prop in (Property.SAT, Property.LIV)

    def extensions(mask: int) -> list[int]:
        """The rooted subtrees one frontier node larger than a non-empty *mask*."""
        return [
            mask | 1 << child
            for index, _, below in steps if mask >> index & 1
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
