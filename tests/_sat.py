"""Test-only satisfiability references for the propositional encoding:
an exhaustive truth-table check and DPLL over a Tseitin CNF, which the
tests cross-validate, and the value of an encoded problem under each.
The shipped package leaves deciding problems to the external prover."""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from procshap.logic_encoder import PropositionalSpec
from procshap.propositional import Formula, neg


def collect_vars(fs: Iterable[Formula]) -> list[str]:
    """Variable names in first-occurrence order."""
    seen: dict[str, None] = {}

    def walk(f: Formula) -> None:
        tag = f[0]
        if tag == "v":
            seen.setdefault(f[1])
        elif tag == "n":
            walk(f[1])
        elif tag in ("a", "o"):
            for g in f[1]:
                walk(g)
        elif tag in ("i", "e"):
            walk(f[1])
            walk(f[2])

    for f in fs:
        walk(f)
    return list(seen)


def eval_formula(f: Formula, env: dict[str, bool]) -> bool:
    tag = f[0]
    if tag == "t":
        return True
    if tag == "f":
        return False
    if tag == "v":
        return env[f[1]]
    if tag == "n":
        return not eval_formula(f[1], env)
    if tag == "a":
        return all(eval_formula(g, env) for g in f[1])
    if tag == "o":
        return any(eval_formula(g, env) for g in f[1])
    if tag == "i":
        return not eval_formula(f[1], env) or eval_formula(f[2], env)
    if tag == "e":
        return eval_formula(f[1], env) == eval_formula(f[2], env)
    raise ValueError(f"unknown formula tag {tag!r}")


def truth_table_satisfiable(formulas: Sequence[Formula], max_vars: int = 20) -> bool:
    """Exhaustive satisfiability of the conjunction of *formulas*.
    Refuses formulas with more than *max_vars* variables."""

    names = collect_vars(formulas)
    if len(names) > max_vars:
        raise ValueError(
            f"truth table limited to {max_vars} variables, got {len(names)}"
        )
    for bits in itertools.product((False, True), repeat=len(names)):
        env = dict(zip(names, bits))
        if all(eval_formula(f, env) for f in formulas):
            return True
    return False


class _Tseitin:
    def __init__(self) -> None:
        self.index: dict[str, int] = {}
        self.clauses: list[tuple[int, ...]] = []
        self.memo: dict[Formula, int] = {}
        self._true_lit: int | None = None

    def fresh(self, name: str | None = None) -> int:
        i = len(self.index) + 1
        self.index[name or f"_aux{i}"] = i
        return i

    def var_lit(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.index) + 1
        return self.index[name]

    def true_lit(self) -> int:
        if self._true_lit is None:
            self._true_lit = self.fresh("_top")
            self.clauses.append((self._true_lit,))
        return self._true_lit

    def literal(self, f: Formula) -> int:
        if f in self.memo:
            return self.memo[f]
        lit = self._build(f)
        self.memo[f] = lit
        return lit

    def _build(self, f: Formula) -> int:
        tag = f[0]
        if tag == "t":
            return self.true_lit()
        if tag == "f":
            return -self.true_lit()
        if tag == "v":
            return self.var_lit(f[1])
        if tag == "n":
            return -self.literal(f[1])
        if tag == "a":
            lits = [self.literal(g) for g in f[1]]
            g = self.fresh()
            for l in lits:
                self.clauses.append((-g, l))
            self.clauses.append(tuple([g] + [-l for l in lits]))
            return g
        if tag == "o":
            lits = [self.literal(g) for g in f[1]]
            g = self.fresh()
            for l in lits:
                self.clauses.append((g, -l))
            self.clauses.append(tuple([-g] + lits))
            return g
        if tag == "i":
            return self.literal(("o", (("n", f[1]), f[2])))
        if tag == "e":
            a, b = self.literal(f[1]), self.literal(f[2])
            g = self.fresh()
            self.clauses.append((-g, -a, b))
            self.clauses.append((-g, a, -b))
            self.clauses.append((g, a, b))
            self.clauses.append((g, -a, -b))
            return g
        raise ValueError(f"unknown formula tag {tag!r}")


def to_cnf(formulas: Sequence[Formula]) -> list[tuple[int, ...]]:
    """Tseitin CNF of the conjunction of *formulas* (aux variables added)."""
    t = _Tseitin()
    roots = [t.literal(f) for f in formulas]
    clauses = t.clauses
    for r in roots:
        clauses.append((r,))
    return clauses


def _simplify(
    clauses: list[tuple[int, ...]], lit: int
) -> list[tuple[int, ...]] | None:
    out = []
    for c in clauses:
        if lit in c:
            continue
        if -lit in c:
            nc = tuple(x for x in c if x != -lit)
            if not nc:
                return None
            out.append(nc)
        else:
            out.append(c)
    return out


def _dpll(clauses: list[tuple[int, ...]]) -> bool:
    while True:
        if not clauses:
            return True
        unit = next((c[0] for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        clauses = _simplify(clauses, unit)
        if clauses is None:
            return False
    lit = min(clauses, key=len)[0]
    branch = _simplify(clauses, lit)
    if branch is not None and _dpll(branch):
        return True
    branch = _simplify(clauses, -lit)
    return branch is not None and _dpll(branch)


def dpll_satisfiable(formulas: Sequence[Formula]) -> bool:
    """Satisfiability of the conjunction of *formulas* via DPLL on the
    Tseitin CNF.  No variable-count limit."""
    return _dpll(to_cnf(formulas))


def spec_value(pspec: PropositionalSpec) -> int:
    """Truth-semantics value of an encoded problem, via DPLL.

    Without a conjecture the value is satisfiability of the axioms; with
    one it is entailment of the conjecture by the axioms."""

    if pspec.conjecture is None:
        return int(dpll_satisfiable(list(pspec.axioms)))
    return int(not dpll_satisfiable(list(pspec.axioms) + [neg(pspec.conjecture)]))


def truth_table_value(pspec: PropositionalSpec, max_vars: int = 20) -> int:
    """Like :func:`spec_value` but by exhaustive assignment enumeration.
    Test-only reference; refuses problems over *max_vars* variables."""

    if pspec.conjecture is None:
        return int(truth_table_satisfiable(list(pspec.axioms), max_vars))
    return int(
        not truth_table_satisfiable(
            list(pspec.axioms) + [neg(pspec.conjecture)], max_vars
        )
    )
