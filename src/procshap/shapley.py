"""Shapley values of boolean coalition games: exact values over the tree,
exact enumeration, Monte Carlo permutation sampling, and random subset
sampling.

There are two exact paths, and both build the classical subset-weighted
sum with rational weights, so efficiency, symmetry and dummy hold
exactly.  ``tree_shapley`` takes a ``TreeGame``, whose value is a
bottom-up summary of the coalition-reduced tree (the oracle's verdicts
are), and counts winning coalitions per size over the tree in polynomial
time.  ``exact_shapley`` takes a black-box ``Game`` (the prover's
verdicts) and enumerates all 2^n coalitions, so it refuses large n.

Both samplers draw from a seeded numpy generator and are bit-reproducible
for a fixed seed; contributions are reduced in sample order.

The permutation sampler works in whole rotation blocks: it draws one
permutation per block and evaluates all n of its cyclic rotations, so
every player takes every position exactly once per block (position
stratification, Maleki et al. 2013, arXiv:1306.4265).  Every sample is
still a full permutation, so efficiency holds for every estimate, and
exactly tied players of a unanimity game stay exactly tied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Mapping

import numpy as np

from .process_tree import Coalition, Op, ProcessTree, node_count


@dataclass(frozen=True)
class Game:
    """A boolean cooperative game over players 0..n-1 (node indices)."""

    n: int
    value: Callable[[Coalition], int]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a game needs at least one player")

    def value_of_mask(self, mask: int) -> int:
        return self.value(Coalition(self.n, mask))


@dataclass(frozen=True)
class TreeGame:
    """A boolean game over the nodes of a process tree (players are the
    preorder node indices) whose value is a bottom-up summary of the
    coalition-reduced tree.

    Removing a node collapses its subtree to one removed tau, so a
    coalition's value is ``wins(state(root))``, where an absent node has
    state ``removed``, a present leaf has state ``leaf(node)``, and a
    present operator folds its children's states left to right:
    ``join(op, join(op, s1, s2), s3) ...``."""

    tree: ProcessTree
    leaf: Callable[[ProcessTree], Hashable]
    removed: Hashable
    join: Callable[[Op, Hashable, Hashable], Hashable]
    wins: Callable[[Hashable], bool]

    @property
    def n(self) -> int:
        return node_count(self.tree)

    def value(self, mask: int) -> int:
        """The value of the coalition *mask* over node ids: the fold above,
        visiting present nodes only."""

        if self.tree.node_id is None:
            raise ValueError(
                "TreeGame.value requires an id-assigned tree (assign_node_ids)"
            )

        def state(node: ProcessTree) -> Hashable:
            if not mask >> node.node_id.index & 1:
                return self.removed
            if node.is_leaf:
                return self.leaf(node)
            first, *rest = node.children
            acc = state(first)
            for child in rest:
                acc = self.join(node.op, acc, state(child))
            return acc

        return int(self.wins(state(self.tree)))


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


def tree_shapley(game: TreeGame) -> ShapleyEstimate:
    """Exact Shapley values of a tree game in polynomial time, by counting
    winning coalitions per size over the tree (size-stratified model
    counting: Deutch, Frost, Kimelfeld, Monet, SIGMOD 2022; Van den
    Broeck et al., AAAI 2021).

    Each subtree gets a table from summary state to count polynomial,
    whose coefficient k counts the coalitions of the subtree's nodes with
    k members that give it that state.  A present node convolves its
    children's tables and shifts by one; an absent node takes the removed
    state with its size - 1 descendants free, (1 + x)^(size - 1).  Forcing
    player i in changes only the tables on the path from i to the root,
    where an absent ancestor leaves the others free but counts i:
    x (1 + x)^(size - 2).  With A[k] the winning coalitions of size k
    that contain i and W[k] all winning ones of size k,

        phi_i = sum_k k! (n-1-k)! (A[k+1] - (W[k] - A[k])) / n!,

    the same integer numerators as ``exact_shapley``'s enumeration.

    A polynomial is stored as its value at x = 2^(n+1) (Kronecker
    substitution): no coefficient exceeds 2^n, so a convolution is one
    integer product and the coefficients read back exactly."""

    nodes: list[ProcessTree] = []
    children: list[list[int]] = []
    parent: list[int] = []
    stack = [(game.tree, -1)]
    while stack:  # preorder positions, children in order
        node, up = stack.pop()
        if up >= 0:
            children[up].append(len(nodes))
        parent.append(up)
        children.append([])
        nodes.append(node)
        stack.extend((child, len(nodes) - 1) for child in reversed(node.children))
    n = len(nodes)
    width = n + 1
    x = 1 << width
    free = [1]  # free[m] = (1 + x)^m
    for _ in range(n):
        free.append(free[-1] * (1 + x))
    size = [1] * n
    for pos in reversed(range(1, n)):
        size[parent[pos]] += size[pos]

    def present(pos: int, child_tables: list[dict]) -> dict:
        if not child_tables:
            return {game.leaf(nodes[pos]): x}
        op = nodes[pos].op
        acc = child_tables[0]
        for right in child_tables[1:]:
            out: dict = {}
            for a, p in acc.items():
                for b, q in right.items():
                    state = game.join(op, a, b)
                    out[state] = out.get(state, 0) + p * q
            acc = out
        return {state: p << width for state, p in acc.items()}

    def with_absent(table: dict, poly: int) -> dict:
        table[game.removed] = table.get(game.removed, 0) + poly
        return table

    def winning(table: dict) -> int:
        return sum(p for state, p in table.items() if game.wins(state))

    tables: list[dict] = [{} for _ in range(n)]
    for pos in reversed(range(n)):  # children before parents
        own = present(pos, [tables[c] for c in children[pos]])
        tables[pos] = with_absent(own, free[size[pos] - 1])

    def coefficients(poly: int) -> list[int]:
        return [(poly >> (width * k)) & (x - 1) for k in range(n + 1)]

    total = coefficients(winning(tables[0]))
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


def exact_shapley(game: Game, exact_limit: int = 20) -> ShapleyEstimate:
    """Exact Shapley values over all 2^n coalitions of a black-box game.

    phi_i = sum over S not containing i of
            |S|! (n-|S|-1)! / n! * (v(S+i) - v(S)).
    """

    n = game.n
    if n > exact_limit:
        raise ValueError(
            f"exact computation refused for n={n} > {exact_limit}; "
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
    game: Game,
    permutations: int,
    seed: int,
    checkpoint_every: int = 100,
    epsilon: float = 0.01,
    min_permutations: int = 1000,
) -> tuple[ShapleyEstimate, ConvergenceReport]:
    """Monte Carlo estimate: sample random player orderings, add players
    one by one and record marginal contributions.

    Orderings come in rotation blocks: each block draws one seeded
    permutation and evaluates all n of its cyclic rotations, so every
    player takes every position exactly once per block.  The sampler runs
    ``max(1, permutations // n)`` whole blocks, so the number of sampled
    permutations is a multiple of n and at most ``max(permutations, n)``.

    Checkpoints fall on block ends: the first block end at or past each
    multiple of *checkpoint_every*, plus the last block.  The sampler
    stops early at a checkpoint once the maximum per-player change since
    the previous checkpoint falls below *epsilon* (but not before
    *min_permutations*).
    """

    if permutations < 1:
        raise ValueError("need at least one permutation")
    n = game.n
    blocks = max(1, permutations // n)
    rng = np.random.default_rng(seed)
    sums = [0] * n
    checkpoints: list[tuple[int, dict[int, float]]] = []
    delta = float("inf")
    empty = game.value_of_mask(0)

    for block in range(1, blocks + 1):
        order = [int(pos) for pos in rng.permutation(n)]
        for start in range(n):
            mask = 0
            prev = empty
            for pos in order[start:] + order[:start]:
                mask |= 1 << pos
                curr = game.value_of_mask(mask)
                sums[pos] += curr - prev
                prev = curr
        done = block * n
        crossed = done // checkpoint_every > (done - n) // checkpoint_every
        if crossed or block == blocks:
            snapshot = {i: float(sums[i] / done) for i in range(n)}
            if checkpoints:
                delta = convergence_delta_max(checkpoints[-1][1], snapshot)
            checkpoints.append((done, snapshot))
            if delta < epsilon and done >= min_permutations:
                break

    phi = {i: float(sums[i] / done) for i in range(n)}
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
    game: Game, samples_per_player: int, seed: int
) -> ShapleyEstimate:
    """Random subset estimate: for each player, draw subsets of the other
    players uniformly and average the marginal contribution of joining.

    Cheaper than permutation sampling but biased, since the uniform subset
    distribution over-weights mid-sized coalitions relative to the Shapley
    weights."""

    if samples_per_player < 1:
        raise ValueError("need at least one sample per player")
    n = game.n
    rng = np.random.default_rng(seed)
    phi: dict[int, float] = {}
    for i in range(n):
        bit = 1 << i
        rest = [j for j in range(n) if j != i]
        total = 0.0
        for _ in range(samples_per_player):
            bits = rng.integers(0, 2, size=n - 1)
            mask = 0
            for j, b in zip(rest, bits):
                if b:
                    mask |= 1 << j
            total += game.value_of_mask(mask | bit) - game.value_of_mask(mask)
        phi[i] = total / samples_per_player
    return ShapleyEstimate(
        phi=phi,
        samples={i: samples_per_player for i in range(n)},
        method="rs",
        seed=seed,
    )
