"""Shapley values of boolean coalition games: exact values over the tree,
exact values over rooted subtrees, exact enumeration, Monte Carlo
permutation sampling, and random subset sampling.

Every estimator that asks for verdicts asks for a batch: ``verdicts``
takes a 0/1 coalition matrix, one uint8 row per coalition and one column
per player 0..n-1, and returns the rows' values in order.
``rooted_shapley``, ``mc_permutation_shapley`` and ``rs_subset_shapley``
take one such function, and ``run_single`` gives all three the same one,
``oracle.evaluate_rows`` over the configuration's ``ValueCache``, whose
oracle folds every row it is handed; the cache counts the rows
(``total_queries``) and the distinct ones (``distinct_queries``).  The
samplers build each batch's rows and reduce its values in numpy, with
integer sums, so no per-coalition Python int or dict is made; the
batches hold the same coalitions in the same order as the int masks of
the per-query references in the tests.

There are three exact paths, and all build the classical subset-weighted
sum with the same integer numerators over n!, so efficiency, symmetry
and dummy hold exactly and their ``Fraction``s agree.  ``tree_shapley``
takes a tree and a property spec, and counts the coalitions that the
node program the oracle folds (``oracle._compile``) accepts, per size,
over the tree in polynomial time.  ``rooted_shapley``
takes a tree and a verdict function (the prover's verdicts): a
coalition's verdict depends only on its canonical form, the rooted
subtree of nodes whose ancestors are all present, so it asks for one
verdict per rooted subtree, plus one for the empty set, and counts the
raw coalitions behind each.  ``exact_shapley`` takes a black-box
``Game`` and enumerates all 2^n coalitions, so it refuses large n.

Both samplers draw from a seeded numpy generator and are bit-reproducible
for a fixed seed; verdicts never touch the generator, and contributions
are summed as integers before any division, so the order in which they
are reduced does not change a bit of the estimate.

The permutation sampler works in whole rotation blocks: it draws one
permutation per block and evaluates all n of its cyclic rotations, so
every player takes every position exactly once per block (position
stratification, Maleki et al. 2013, arXiv:1306.4265).  A block is one
batch of verdicts, its n x n prefix rows.  Every sample is still a full
permutation, so efficiency holds for every estimate, and exactly tied
players of a unanimity game stay exactly tied.  On a game declared
monotone it also ties the veto players (v(N) = 1 and v(N - i) = 0),
which are symmetric there: each gets the mean of their sampled
estimates, which keeps the estimator unbiased and the sum of phi
unchanged.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .oracle import PropertySpec, _automaton, _compile, _span, coalition_rows
from .process_tree import Coalition, ProcessTree, iter_nodes

Verdicts = Callable[[np.ndarray], Sequence[int]]
"""A batch verdict function: a (k, n) 0/1 uint8 coalition matrix in, one
row per coalition and one column per player, the rows' k values out, in
order."""


@dataclass(frozen=True)
class Game:
    """A boolean cooperative game over players 0..n-1 (node indices),
    asked one coalition at a time, that ``exact_shapley`` enumerates:
    kept for perfbench's checker/tracer (ROADMAP item 1)."""

    n: int
    value: Callable[[Coalition], int]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a game needs at least one player")

    def value_of_mask(self, mask: int) -> int:
        return self.value(Coalition(self.n, mask))


@dataclass(frozen=True)
class ShapleyEstimate:
    phi: dict[int, float]
    samples: dict[int, int]
    method: str
    seed: int | None = None
    phi_exact: dict[int, Fraction] | None = None


@dataclass(frozen=True)
class ConvergenceReport:
    checkpoints: tuple[tuple[int, dict[int, float]], ...]
    delta_max: float


def convergence_delta_max(
    prev: Mapping[int, float], curr: Mapping[int, float]
) -> float:
    """Maximum absolute per-player change between two snapshots."""
    if set(prev) != set(curr):
        raise ValueError("snapshots cover different player sets")
    return max((abs(curr[p] - prev[p]) for p in curr), default=0.0)


def _shapley_weights(n: int) -> list[int]:
    """k! (n-1-k)! for k = 0..n-1: the Shapley weight of a coalition of
    size k that player i joins, times n!."""
    fact = [math.factorial(k) for k in range(n + 1)]
    return [fact[k] * fact[n - 1 - k] for k in range(n)]


def _exact_estimate(numerators: list[int]) -> ShapleyEstimate:
    n = len(numerators)
    denom = math.factorial(n)
    phi_exact = {i: Fraction(numerators[i], denom) for i in range(n)}
    return ShapleyEstimate(
        phi={p: float(f) for p, f in phi_exact.items()},
        samples={i: 1 << (n - 1) for i in range(n)},
        method="exact",
        phi_exact=phi_exact,
    )


def _players(ids: int, nodes: int) -> int:
    """*nodes*, the player count, when the node ids span 0..ids-1 with no
    gap; a gap, as a ``substitute``d tree has, raises ``ValueError``."""
    if ids != nodes:
        raise ValueError(f"the ids of a {nodes}-node tree span 0..{ids - 1}: "
                         f"exact Shapley values need ids 0..n-1 (assign_node_ids)")
    return nodes


def _children(tree: ProcessTree) -> dict[int, list[int]]:
    """Each node's children's ids by node id, the nodes in preorder."""
    nodes = list(iter_nodes(tree))
    _players(_span(nodes), len(nodes))
    return {node.node_id.index: [child.node_id.index for child in node.children]
            for node in nodes}


def tree_shapley(tree: ProcessTree, spec: PropertySpec) -> ShapleyEstimate:
    """Exact Shapley values of the oracle's verdicts under *spec* on the
    coalitions of *tree*'s nodes (players are the node ids, which must
    run 0..n-1) in polynomial time, by counting winning coalitions per
    size over the tree (size-stratified model counting: Deutch, Frost,
    Kimelfeld, Monet, SIGMOD 2022; Van den Broeck et al., AAAI 2021).

    Each subtree gets a table: a list, indexed by the state codes of the
    node program the oracle folds (``oracle._compile``), of count
    polynomials, whose coefficient k counts the coalitions of the
    subtree's nodes with k members that give it that state.  A present
    leaf takes its leaf code; a present operator folds its children's
    tables through its join table and shifts by one; an absent node takes
    the removed state, code 0, with its size - 1 descendants free,
    (1 + x)^(size - 1).
    Forcing player i in changes only the tables on the path from i to the
    root, where an absent ancestor leaves the others free but counts i:
    x (1 + x)^(size - 2).  With A[k] the winning coalitions of size k
    that contain i and W[k] all winning ones of size k,

        phi_i = sum_k k! (n-1-k)! (A[k+1] - (W[k] - A[k])) / n!,

    the same integer numerators as ``exact_shapley``'s enumeration.

    A polynomial is stored as its value at x = 2^(n+1) (Kronecker
    substitution): no coefficient exceeds 2^n, so a convolution is one
    integer product and the coefficients read back exactly."""

    ids, root, leaves, steps, states, wins = _compile(tree, spec)
    n = _players(ids, 1 + sum(len(below) for _, _, below in steps))
    leaf_code, winners = leaves.tolist(), np.flatnonzero(wins).tolist()
    joins: list[list[list[int]]] = [[] for _ in range(n)]
    children: list[list[int]] = [[] for _ in range(n)]
    parent = [-1] * n
    size = [1] * n
    width = n + 1
    x = 1 << width
    free = [1]  # free[m] = (1 + x)^m
    for _ in range(n):
        free.append(free[-1] * (1 + x))

    def present(i: int, child_tables: list[list[int]]) -> list[int]:
        if not child_tables:
            table = [0] * states
            table[leaf_code[i]] = x
            return table
        join = joins[i]
        acc = child_tables[0]
        for right in child_tables[1:]:
            out = [0] * states
            for a, p in enumerate(acc):
                if p:
                    row = join[a]
                    for b, q in enumerate(right):
                        if q:
                            out[row[b]] += p * q
            acc = out
        return [p << width for p in acc]

    def with_absent(table: list[int], poly: int) -> list[int]:
        table[0] += poly
        return table

    def winning(table: list[int]) -> int:
        return sum(table[code] for code in winners)

    join_rows = {id(t): t.reshape(states, states).tolist() for t in _automaton(spec)[1].values()}
    for index, table, below in steps:  # children before parents
        joins[index], children[index] = join_rows[id(table)], below
        for child in below:
            parent[child] = index
            size[index] += size[child]
    tables: list[list[int]] = [[] for _ in range(n)]
    for i in [i for i in range(n) if not children[i]] + [index for index, _, _ in steps]:
        own = present(i, [tables[c] for c in children[i]])
        tables[i] = with_absent(own, free[size[i] - 1])

    def coefficients(poly: int) -> list[int]:
        return [(poly >> (width * k)) & (x - 1) for k in range(n + 1)]

    total = coefficients(winning(tables[root]))
    weights = _shapley_weights(n)
    numerators = []
    for i in range(n):
        table = present(i, [tables[c] for c in children[i]])
        below, up = i, parent[i]
        while up >= 0:
            child_tables = [table if c == below else tables[c] for c in children[up]]
            table = with_absent(present(up, child_tables), free[size[up] - 2] << width)
            below, up = up, parent[up]
        with_i = coefficients(winning(table))
        numerators.append(
            sum(
                weights[k] * (with_i[k + 1] - (total[k] - with_i[k]))
                for k in range(n)
            )
        )
    return _exact_estimate(numerators)


ROOTED_LIMIT = 1 << 20  # the most canonical forms rooted_shapley asks verdicts for


def canonical_form_count(tree: ProcessTree) -> int:
    """The number of canonical forms of coalitions over *tree*'s nodes:
    its rooted subtrees plus the empty set, where a node roots
    r = prod(1 + r(child)) of them."""

    children = _children(tree)
    rooted = dict.fromkeys(children, 1)
    for i in reversed(children):
        for child in children[i]:
            rooted[i] *= 1 + rooted[child]
    return rooted[tree.node_id.index] + 1


def rooted_shapley(tree: ProcessTree, verdicts: Verdicts) -> ShapleyEstimate:
    """Exact Shapley values of a boolean game over *tree*'s nodes (players
    are the node ids, which must run 0..n-1) whose value depends only on
    the coalition's canonical form: the rooted subtree T of nodes whose
    ancestors are all present, or the empty set.

    ``verdicts`` receives every canonical form at once as coalition rows,
    the empty set first and then the rooted subtrees in ascending mask
    order, and returns their values in the same order; it is called
    exactly once, after the size check, so a batch evaluator can overlap
    the calls.  Trees with more than
    ``ROOTED_LIMIT`` canonical forms are refused before any verdict.

    The raw coalitions with canonical form T are T plus any part of R(T),
    the descendants of T's frontier F(T) (the absent children of T's
    nodes; F(empty) is the root).  Summing the Shapley weights
    w(k) = k! (n-1-k)! over those coalitions, with r = |R(T)|, a winning T
    adds sum_j C(r, j) w(|T| + j - 1) to each member's numerator and takes
    sum_j C(r, j) w(|T| + j) from each frontier node's; a node of R(T)
    joins half of them and its terms cancel.  The numerators over n! are
    those of ``exact_shapley``, so the ``Fraction``s are equal."""

    count = canonical_form_count(tree)
    if count > ROOTED_LIMIT:
        raise ValueError(
            f"exact computation refused: {count} canonical forms exceed "
            f"{ROOTED_LIMIT}; use mc_permutation_shapley or rs_subset_shapley"
        )
    children = _children(tree)
    n = len(children)
    root = tree.node_id.index
    subtrees: dict[int, list[int]] = {}
    for i in reversed(children):  # rooted subtrees that contain i
        grown = [1 << i]
        for child in children[i]:
            options = [0, *subtrees[child]]
            grown = [mask | part for mask in grown for part in options]
        subtrees[i] = grown
    masks = [0, *sorted(subtrees[root])]
    values = verdicts(coalition_rows(masks, n))

    weights = _shapley_weights(n)

    @functools.cache
    def spread(k: int, r: int) -> int:  # sum_j C(r, j) w(k + j)
        return sum(math.comb(r, j) * weights[k + j] for j in range(r + 1))

    numerators = [0] * n
    for mask, value in zip(masks, values, strict=True):
        if not value:
            continue
        members = [i for i in range(n) if mask >> i & 1]
        frontier = [
            c for i in members for c in children[i] if not mask >> c & 1
        ] if mask else [root]
        r = n - len(members) - len(frontier)
        if members:
            gain = spread(len(members) - 1, r)
            for i in members:
                numerators[i] += gain
        if frontier:
            loss = spread(len(members), r)
            for i in frontier:
                numerators[i] -= loss
    return _exact_estimate(numerators)


def exact_shapley(game: Game) -> ShapleyEstimate:
    """Exact Shapley values over all 2^n coalitions of a black-box game of
    at most 20 players: kept for perfbench's checker/tracer (ROADMAP item 1).

    phi_i = sum over S not containing i of
            |S|! (n-|S|-1)! / n! * (v(S+i) - v(S)).
    """

    n = game.n
    if n > 20:
        raise ValueError(
            f"exact computation refused for n={n} > 20; "
            f"use mc_permutation_shapley or rs_subset_shapley"
        )
    values = [game.value_of_mask(mask) for mask in range(1 << n)]
    weights = _shapley_weights(n)

    numerators = [0] * n
    for mask in range(1 << n):
        v_s = values[mask]
        size = bin(mask).count("1")
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                continue
            diff = values[mask | bit] - v_s
            if diff:
                numerators[i] += weights[size] * diff
    return _exact_estimate(numerators)


def mc_permutation_shapley(
    n: int,
    verdicts: Verdicts,
    permutations: int,
    seed: int,
    checkpoint_every: int = 100,
    epsilon: float = 0.01,
    min_permutations: int = 1000,
    monotone: bool = False,
) -> tuple[ShapleyEstimate, ConvergenceReport]:
    """Monte Carlo estimate over players 0..n-1: sample random player
    orderings, add players one by one and record marginal contributions.

    Orderings come in rotation blocks: each block draws one seeded
    permutation and evaluates all n of its cyclic rotations, so every
    player takes every position exactly once per block.  The sampler runs
    ``max(1, permutations // n)`` whole blocks, so the number of sampled
    permutations is a multiple of n and at most ``max(permutations, n)``.
    ``verdicts`` is asked once for v(empty), then once per block for its
    n x n prefix rows, walk by walk: with ``pos`` the inverse
    permutation, the row of walk s at step k holds player p iff
    ``(pos[p] - s) % n <= k``.  The block's marginal contributions are
    the rows' value differences along each walk, summed per player.

    Checkpoints fall on block ends: the first block end at or past each
    multiple of *checkpoint_every*, plus the last block.  The sampler
    stops early at a checkpoint once the maximum per-player change since
    the previous checkpoint falls below *epsilon* (but not before
    *min_permutations*).

    With *monotone* (the caller vouches that v(S) <= v(T) whenever S is a
    subset of T) the sampler then asks v(N) and, if it is 1, v(N - i) for
    every i in one more call, and gives every veto player (v(N - i) = 0)
    the mean of the veto players' sampled estimates.  Veto players of a
    monotone game are symmetric, so they tie exactly, as their exact
    values do, and the sum of phi is unchanged.  Checkpoints keep the
    sampled estimates.
    """

    if n < 1:
        raise ValueError("a game needs at least one player")
    if permutations < 1:
        raise ValueError("need at least one permutation")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1")
    blocks = max(1, permutations // n)
    rng = np.random.default_rng(seed)
    players = np.arange(n)
    sums = np.zeros(n, dtype=np.int64)
    checkpoints: list[tuple[int, dict[int, float]]] = []
    delta = float("inf")
    [empty] = verdicts(np.zeros((1, n), dtype=np.uint8))

    for block in range(1, blocks + 1):
        pos = np.argsort(rng.permutation(n))
        step = (pos - players[:, None]) % n  # step[s, p]: when walk s adds p
        rows = step[:, None, :] <= players[None, :, None]
        values = np.asarray(verdicts(rows.reshape(n * n, n).view(np.uint8)), np.int64)
        gains = np.diff(values.reshape(n, n), axis=1, prepend=empty)
        sums += np.take_along_axis(gains, step, axis=1).sum(axis=0)
        done = block * n
        crossed = done // checkpoint_every > (done - n) // checkpoint_every
        if crossed or block == blocks:
            snapshot = {i: float(s / done) for i, s in enumerate(sums.tolist())}
            if checkpoints:
                delta = convergence_delta_max(checkpoints[-1][1], snapshot)
            checkpoints.append((done, snapshot))
            if delta < epsilon and done >= min_permutations:
                break

    totals = sums.tolist()
    phi = {i: float(s / done) for i, s in enumerate(totals)}
    if monotone and verdicts(np.ones((1, n), dtype=np.uint8))[0] == 1:
        drops = verdicts(1 - np.eye(n, dtype=np.uint8))
        veto = [i for i in range(n) if drops[i] == 0]
        if veto:
            mean = sum(totals[i] for i in veto) / (len(veto) * done)
            phi.update((i, mean) for i in veto)
    estimate = ShapleyEstimate(
        phi=phi,
        samples={i: done for i in range(n)},
        method="mc",
        seed=seed,
    )
    report = ConvergenceReport(
        checkpoints=tuple(checkpoints),
        delta_max=delta,  # inf until two checkpoints exist
    )
    return estimate, report


def rs_subset_shapley(
    n: int, verdicts: Verdicts, samples_per_player: int, seed: int
) -> ShapleyEstimate:
    """Random subset estimate over players 0..n-1: for each player, draw
    subsets of the other players uniformly and average the marginal
    contribution of joining.

    Every subset is drawn before ``verdicts`` is asked, once, for each
    draw with and without its player; values never touch the generator.

    Cheaper than permutation sampling but biased, since the uniform subset
    distribution over-weights mid-sized coalitions relative to the Shapley
    weights."""

    if n < 1:
        raise ValueError("a game needs at least one player")
    if samples_per_player < 1:
        raise ValueError("need at least one sample per player")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(n, samples_per_player, n - 1))
    # rows[i, t, 0] is player i's sample t with i, rows[i, t, 1] without:
    # the other players take the sample's bits in order.
    rows = np.zeros((n, samples_per_player, 2, n), dtype=np.uint8)
    others = ~np.eye(n, dtype=bool)
    rows.transpose(0, 3, 1, 2)[others] = bits.transpose(0, 2, 1).reshape(
        -1, samples_per_player, 1
    )
    players = np.arange(n)
    rows[players, :, 0, players] = 1
    values = np.asarray(verdicts(rows.reshape(-1, n)), np.int64).reshape(rows.shape[:3])
    totals = (values[..., 0] - values[..., 1]).sum(axis=1).tolist()
    phi = {i: total / samples_per_player for i, total in enumerate(totals)}
    return ShapleyEstimate(
        phi=phi,
        samples={i: samples_per_player for i in range(n)},
        method="rs",
        seed=seed,
    )
