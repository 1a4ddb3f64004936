"""Shapley values of boolean coalition games: exact enumeration,
Monte Carlo permutation sampling, and random subset sampling.

The exact path evaluates the classical subset-weighted sum with rational
weights, so efficiency, symmetry and dummy hold exactly.  Both samplers
draw from a seeded numpy generator and are bit-reproducible for a fixed
seed; contributions are reduced in sample order.

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
from typing import Callable, Mapping

import numpy as np

from .process_tree import Coalition


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


def exact_shapley(game: Game, exact_limit: int = 20) -> ShapleyEstimate:
    """Exact Shapley values over all 2^n coalitions.

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
    fact = [math.factorial(k) for k in range(n + 1)]
    weights = [fact[s] * fact[n - 1 - s] for s in range(n)]

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

    denom = fact[n]
    phi_exact = {i: Fraction(numerators[i], denom) for i in range(n)}
    return ShapleyEstimate(
        phi={p: float(f) for p, f in phi_exact.items()},
        samples={i: 1 << (n - 1) for i in range(n)},
        method="exact",
        phi_exact=phi_exact,
    )


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
