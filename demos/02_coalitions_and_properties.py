"""Coalitions, tau substitution, and the three property verdicts.

A coalition is the subset of tree nodes kept in the model; everything
else collapses to a removed tau.  Each coalition gets three boolean
verdicts: satisfiability (some committed run completes), liveness (every
committed run completes), and safety (no completed run contains both
activities of a forbidden pair).
"""

from procshap import (
    Coalition,
    MinerConfig,
    Property,
    PropertySpec,
    TauMode,
    discover,
    emit_tptp,
    encode,
    evaluate,
    node_count,
    substitute,
    trace_language,
    tree_to_text,
)
from procshap.datasets import load_running_example

tree = discover(load_running_example(), MinerConfig(noise=0.0))
n = node_count(tree)
print(f"mined tree, {n} nodes:")
print(tree_to_text(tree))

# Drop the reinitiation step (node 10) and both payment outcomes (12, 13).
coalition = Coalition.of(n, set(range(n)) - {10, 12, 13})
reduced = substitute(tree, coalition)
print("after removing nodes 10, 12, 13:")
print(tree_to_text(reduced))

# The oracle judges a coalition on the tree itself; the substituted tree
# above is for display.

sat = PropertySpec(Property.SAT)
liv = PropertySpec(Property.LIV)
saf = PropertySpec(Property.SAF, safety_pair=("pay compensation", "reject request"))

print("verdicts for the reduced model (blocked tau semantics):")
print(f"  sat = {evaluate(tree, coalition, sat)}   "
      f"(both outcome arms are gone, no run completes)")
print(f"  liv = {evaluate(tree, coalition, liv)}")
print(f"  saf = {evaluate(tree, coalition, saf)}   (vacuously safe when nothing completes)")

# Removing one Xor arm keeps satisfiability but breaks liveness: a blind
# commitment can still walk into the dead branch.
coalition = Coalition.of(n, set(range(n)) - {12})
print("after removing only 'pay compensation':")
print(f"  sat = {evaluate(tree, coalition, sat)}   liv = {evaluate(tree, coalition, liv)}")

# In skip mode removed taus complete silently, so sat/liv degenerate to 1.
skip = PropertySpec(Property.SAT, mode=TauMode.SKIP)
print(f"  sat in skip mode = {evaluate(tree, Coalition.empty(n), skip)} "
      f"(degenerate by design)")

# The bounded trace language grounds these verdicts.
small = Coalition.of(n, {0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12})
lang = trace_language(substitute(tree, small), bound=1)
print(f"\n{len(lang)} traces for one coalition at loop bound 1; shortest:")
print(" ", min(sorted(lang), key=len))

# Every coalition also has a propositional encoding in TPTP syntax for
# external provers.
problem = emit_tptp(encode(substitute(tree, small), sat), "demo")
print(f"\nTPTP encoding ({problem.count(chr(10))} lines), first lines:")
print("\n".join(problem.splitlines()[:5]))
