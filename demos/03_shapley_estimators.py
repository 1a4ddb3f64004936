"""Exact Shapley values versus the two sampling estimators.

Each tree node is a player; the game value is the satisfiability verdict
of the coalition-reduced model.  Exact values come two ways: counting
winning coalitions over the tree is polynomial in n, enumerating all 2^n
coalitions of a black-box game is exponential.  Monte Carlo permutations
are unbiased; random subsets are cheaper but biased toward mid-sized
coalitions.
"""

import time

from procshap import (
    Game,
    MinerConfig,
    Property,
    PropertySpec,
    ValueCache,
    discover,
    evaluate,
    exact_shapley,
    iter_nodes,
    mc_permutation_shapley,
    node_count,
    rs_subset_shapley,
    tree_game,
    tree_shapley,
)
from procshap.datasets import load_running_example

tree = discover(load_running_example(), MinerConfig(noise=0.0))
n = node_count(tree)
names = {i: node.node_id.text for i, node in enumerate(iter_nodes(tree))}
spec = PropertySpec(Property.SAT)
cache = ValueCache()
game = Game(n=n, value=lambda c: evaluate(tree, c, spec, cache))

t0 = time.time()
exact = exact_shapley(game)
print(f"exact over 2^{n} coalitions: {time.time() - t0:.2f}s, "
      f"{cache.distinct_queries} distinct verdicts")
t0 = time.time()
counted = tree_shapley(tree_game(tree, spec))
print(f"exact by counting coalitions over the tree: {time.time() - t0:.3f}s, "
      f"no verdicts, same values: {counted.phi_exact == exact.phi_exact}\n")

print(f"{'node':<28} {'exact':>9}")
for i in sorted(exact.phi, key=lambda i: -exact.phi[i]):
    print(f"{names[i]:<28} {exact.phi[i]:>+9.4f}")

# Monte Carlo: unbiased, converges smoothly; the convergence report
# tracks the largest per-node movement between checkpoints.
mc, convergence = mc_permutation_shapley(game, permutations=4000, seed=11)
print(f"\nMC stopped after {mc.samples[0]} permutations "
      f"(delta_max {convergence.delta_max:.4f})")
worst = max(abs(mc.phi[i] - exact.phi[i]) for i in range(n))
print(f"worst |MC - exact| = {worst:.4f}")

# Random subsets: an order of magnitude fewer verdicts, but biased.
rs = rs_subset_shapley(game, samples_per_player=300, seed=11)
worst = max(abs(rs.phi[i] - exact.phi[i]) for i in range(n))
print(f"worst |RS - exact| = {worst:.4f}")

# The bias is structural.  On a pure unanimity game (value 1 only for the
# full coalition) the uniform-subset estimator lands near 1/2^(n-1)
# instead of 1/n:
full = (1 << 6) - 1
unanimity = Game(n=6, value=lambda c: int(c.mask == full))
print("\n6-player unanimity game:")
print(f"  exact phi      = {exact_shapley(unanimity).phi[0]:.4f}")
print(f"  RS estimate    = {rs_subset_shapley(unanimity, 3000, seed=1).phi[0]:.4f}"
      "   <- biased low")
print(f"  MC estimate    = "
      f"{mc_permutation_shapley(unanimity, 3000, seed=1, min_permutations=3000)[0].phi[0]:.4f}")
