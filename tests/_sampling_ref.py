"""Reference samplers that ask a ``Game`` one coalition at a time, as int
masks: the Monte Carlo and random-subset estimators as they were before
they asked for batches of coalition rows.  The batched samplers in
``procshap.shapley`` must give the same estimates, checkpoints and query
sequence."""

from __future__ import annotations

import numpy as np

from procshap.oracle import row_masks
from procshap.shapley import (
    ConvergenceReport,
    Game,
    ShapleyEstimate,
    convergence_delta_max,
)


def verdicts_of(game: Game):
    """A batch verdict function over *game*: each row of the coalition
    matrix converted to its mask, one query per row, in order."""
    return lambda rows: [game.value_of_mask(mask) for mask in row_masks(rows)]


def mc_per_query(
    game: Game,
    permutations: int,
    seed: int,
    checkpoint_every: int = 100,
    epsilon: float = 0.01,
    min_permutations: int = 1000,
    monotone: bool = False,
) -> tuple[ShapleyEstimate, ConvergenceReport]:
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
    full = (1 << n) - 1
    if monotone and game.value_of_mask(full) == 1:
        veto = [i for i in range(n) if game.value_of_mask(full & ~(1 << i)) == 0]
        if veto:
            mean = sum(sums[i] for i in veto) / (len(veto) * done)
            phi.update((i, mean) for i in veto)
    estimate = ShapleyEstimate(
        phi=phi, samples={i: done for i in range(n)}, method="mc", seed=seed
    )
    return estimate, ConvergenceReport(checkpoints=tuple(checkpoints), delta_max=delta)


def rs_per_query(game: Game, samples_per_player: int, seed: int) -> ShapleyEstimate:
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
