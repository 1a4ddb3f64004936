"""Exact Shapley values versus the two sampling estimators.

Each tree node is a player; the game value is the satisfiability verdict
of the coalition-reduced model.  Exact values come two ways: counting
winning coalitions over the tree asks no verdict at all, and asking a
verdict function for every canonical form (rooted subtree or empty set),
as the prover backend does, needs far fewer than 2^n verdicts.  Monte
Carlo permutations are unbiased; random subsets are cheaper but biased
toward mid-sized coalitions.  Every estimator but the counting one asks
a verdict function for batches of coalitions, as the report pipeline
does: a 0/1 coalition matrix, one row per coalition and one column per
node.
"""

import time

from procshap import (
    MinerConfig,
    Property,
    PropertySpec,
    ValueCache,
    discover,
    evaluate_rows,
    iter_nodes,
    mc_permutation_shapley,
    node_count,
    rooted_shapley,
    rs_subset_shapley,
    tree_shapley,
)
from procshap.datasets import load_running_example

tree = discover(load_running_example(), MinerConfig(noise=0.0))
n = node_count(tree)
names = {i: node.node_id.text for i, node in enumerate(iter_nodes(tree))}
spec = PropertySpec(Property.SAT)
cache = ValueCache(tree, spec)  # one per tree and property


# Every estimator's one query path: coalition rows in, verdicts out, in order.
def verdicts(rows):
    return evaluate_rows(cache, rows)


t0 = time.time()
exact = rooted_shapley(tree, verdicts)
print(f"exact over the canonical forms: {time.time() - t0:.3f}s, "
      f"{cache.distinct_queries} distinct verdicts instead of 2^{n}")
t0 = time.time()
counted = tree_shapley(tree, spec)
print(f"exact by counting coalitions over the tree: {time.time() - t0:.3f}s, "
      f"no verdicts, same values: {counted.phi_exact == exact.phi_exact}\n")

print(f"{'node':<28} {'exact':>9}")
for i in sorted(exact.phi, key=lambda i: -exact.phi[i]):
    print(f"{names[i]:<28} {exact.phi[i]:>+9.4f}")

# Monte Carlo: unbiased, converges smoothly; the convergence report
# tracks the largest per-node movement between checkpoints.
mc, convergence = mc_permutation_shapley(n, verdicts, permutations=4000, seed=11)
print(f"\nMC stopped after {mc.samples[0]} permutations "
      f"(delta_max {convergence.delta_max:.4f})")
worst = max(abs(mc.phi[i] - exact.phi[i]) for i in range(n))
print(f"worst |MC - exact| = {worst:.4f}")

# Random subsets: an order of magnitude fewer verdicts, but biased.
rs = rs_subset_shapley(n, verdicts, samples_per_player=300, seed=11)
worst = max(abs(rs.phi[i] - exact.phi[i]) for i in range(n))
print(f"worst |RS - exact| = {worst:.4f}")

# The bias is structural.  On a pure unanimity game (value 1 only for the
# full coalition) the uniform-subset estimator lands near 1/2^(n-1)
# instead of 1/n, each player's exact share by symmetry:
def unanimous(rows):
    return rows.all(axis=1)  # 1 only for the row that holds every player


mc_unanimity, _ = mc_permutation_shapley(6, unanimous, 3000, seed=1,
                                         min_permutations=3000)
print("\n6-player unanimity game:")
print(f"  exact phi      = {1 / 6:.4f}")
print(f"  RS estimate    = {rs_subset_shapley(6, unanimous, 3000, seed=1).phi[0]:.4f}"
      "   <- biased low")
print(f"  MC estimate    = {mc_unanimity.phi[0]:.4f}")
