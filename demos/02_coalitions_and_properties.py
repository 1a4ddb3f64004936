"""Coalitions, tau substitution, and the three property verdicts.

A coalition is the subset of tree nodes kept in the model, written as an
int mask over the preorder node indices (bit i keeps node i); everything
else collapses to a removed tau.  Each coalition gets three boolean
verdicts: satisfiability (some committed run completes), liveness (every
committed run completes), and safety (no completed run contains both
activities of a forbidden pair).
"""

from procshap import (
    MinerConfig,
    Property,
    PropertySpec,
    TauMode,
    ValueCache,
    coalition_rows,
    discover,
    emit_tptp,
    encode,
    evaluate_rows,
    node_count,
    substitute,
    tree_to_text,
)
from procshap.datasets import load_running_example

tree = discover(load_running_example(), MinerConfig(noise=0.0))
n = node_count(tree)
full = (1 << n) - 1
print(f"mined tree, {n} nodes:")
print(tree_to_text(tree))

# Drop the reinitiation step (node 10) and both payment outcomes (12, 13).
mask = full & ~(1 << 10 | 1 << 12 | 1 << 13)
reduced = substitute(tree, mask)
print("after removing nodes 10, 12, 13:")
print(tree_to_text(reduced))

# The oracle judges a coalition on the tree itself; the substituted tree
# above is for display.  A ValueCache is made for one tree and property;
# it takes a batch of coalitions as a 0/1 matrix, one row per coalition
# and one column per node.

sat = PropertySpec(Property.SAT)
liv = PropertySpec(Property.LIV)
saf = PropertySpec(Property.SAF, safety_pair=("pay compensation", "reject request"))


def verdict(mask: int, spec: PropertySpec) -> int:
    return int(evaluate_rows(ValueCache(tree, spec), coalition_rows([mask], n))[0])


print("verdicts for the reduced model (blocked tau semantics):")
print(f"  sat = {verdict(mask, sat)}   "
      f"(both outcome arms are gone, no run completes)")
print(f"  liv = {verdict(mask, liv)}")
print(f"  saf = {verdict(mask, saf)}   (vacuously safe when nothing completes)")

# Removing one Xor arm keeps satisfiability but breaks liveness: a blind
# commitment can still walk into the dead branch.
mask = full & ~(1 << 12)
print("after removing only 'pay compensation':")
print(f"  sat = {verdict(mask, sat)}   liv = {verdict(mask, liv)}")

# In skip mode removed taus complete silently, so sat/liv degenerate to 1.
skip = PropertySpec(Property.SAT, mode=TauMode.SKIP)
print(f"  sat in skip mode = {verdict(0, skip)} "
      f"(degenerate by design)")

# Every coalition also has a propositional encoding in TPTP syntax for
# external provers.
small = full & ~(1 << 8 | 1 << 13)
problem = emit_tptp(encode(substitute(tree, small), sat), "demo")
print(f"\nTPTP encoding ({problem.count(chr(10))} lines), first lines:")
print("\n".join(problem.splitlines()[:5]))
