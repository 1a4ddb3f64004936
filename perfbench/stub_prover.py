"""Stand-in TPTP prover for the propositional FOF problems procshap emits.

Usage: python stub_prover.py PROBLEM.p

Prints one SZS status line: Satisfiable / Unsatisfiable for a problem
without a conjecture, Theorem / CounterSatisfiable with one.  It decides
the problem by backtracking over variables with three-valued partial
evaluation and single-variable propagation, which handles the 40-odd
variables of the bundled trees where exhaustive enumeration cannot.
Imports only the standard library, so one call costs one interpreter start.
"""

from __future__ import annotations

import re
import sys

TOKEN = re.compile(r"<=>|=>|[()&|~]|\$true|\$false|[A-Za-z0-9_]+")
ROLE = re.compile(r"^fof\(\s*[^,]+,\s*(axiom|conjecture)\s*,\s*(.*)\)\.\s*$")


class Parser:
    def __init__(self, text: str, names: dict[str, int]):
        self.tokens = TOKEN.findall(text)
        self.pos = 0
        self.names = names

    def take(self, expected: str | None = None) -> str:
        tok = self.tokens[self.pos]
        if expected is not None and tok != expected:
            raise SyntaxError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def formula(self) -> tuple:
        first = self.unary()
        op = self.peek()
        if op in ("&", "|"):
            parts = [first]
            while self.peek() == op:
                self.take(op)
                parts.append(self.unary())
            return ("a" if op == "&" else "o", parts)
        if op in ("=>", "<=>"):
            self.take(op)
            return ("i" if op == "=>" else "e", first, self.unary())
        return first

    def unary(self) -> tuple:
        tok = self.take()
        if tok == "~":
            return ("n", self.unary())
        if tok == "(":
            inner = self.formula()
            self.take(")")
            return inner
        if tok == "$true":
            return ("t",)
        if tok == "$false":
            return ("f",)
        return ("v", self.names.setdefault(tok, len(self.names)))


def value(f: tuple, val: list) -> bool | None:
    """Three-valued evaluation: None when unassigned variables decide it."""
    tag = f[0]
    if tag == "v":
        return val[f[1]]
    if tag == "a" or tag == "o":
        short = tag == "o"
        result: bool | None = not short
        for g in f[1]:
            r = value(g, val)
            if r is short:
                return short
            if r is None:
                result = None
        return result
    if tag == "n":
        r = value(f[1], val)
        return None if r is None else not r
    if tag == "e":
        a = value(f[1], val)
        if a is None:
            return None
        b = value(f[2], val)
        return None if b is None else a == b
    if tag == "i":
        a = value(f[1], val)
        if a is False:
            return True
        b = value(f[2], val)
        if b is True:
            return True
        return False if a is True and b is False else None
    return tag == "t"


def variables(f: tuple, out: list) -> list:
    if f[0] == "v":
        if f[1] not in out:
            out.append(f[1])
    else:
        for g in f[1:]:
            for h in (g if isinstance(g, list) else [g]):
                variables(h, out)
    return out


def satisfiable(formulas: list[tuple], count: int) -> bool:
    val: list = [None] * count
    clauses = [(f, variables(f, [])) for f in formulas]

    def propagate(trail: list) -> list | None:
        """Assign every variable that is the last free one of a formula and
        has only one value keeping it open; None on a conflict.  Returns
        the formulas still undecided."""
        changed = True
        while changed:
            changed = False
            open_ = []
            for f, names in clauses:
                free = [v for v in names if val[v] is None]
                if len(free) == 1:
                    v = free[0]
                    ok = []
                    for b in (True, False):
                        val[v] = b
                        if value(f, val) is not False:
                            ok.append(b)
                    val[v] = None
                    if not ok:
                        return None
                    if len(ok) == 1:
                        val[v] = ok[0]
                        trail.append(v)
                        changed = True
                    else:
                        open_.append((f, free))
                elif free:
                    r = value(f, val)
                    if r is False:
                        return None
                    if r is None:
                        open_.append((f, free))
                elif not value(f, val):
                    return None
        return open_

    def search() -> bool:
        trail: list = []
        open_ = propagate(trail)
        if open_ is not None:
            if not open_:
                return True
            v = min(open_, key=lambda item: len(item[1]))[1][0]
            for b in (True, False):
                val[v] = b
                if search():
                    return True
            val[v] = None
        for v in trail:
            val[v] = None
        return False

    return search()


def decide(text: str) -> str:
    names: dict[str, int] = {}
    axioms, conjecture = [], None
    for line in text.splitlines():
        match = ROLE.match(line)
        if not match:
            continue
        formula = Parser(match.group(2), names).formula()
        if match.group(1) == "axiom":
            axioms.append(formula)
        else:
            conjecture = formula
    if conjecture is None:
        return "Satisfiable" if satisfiable(axioms, len(names)) else "Unsatisfiable"
    refutable = satisfiable(axioms + [("n", conjecture)], len(names))
    return "CounterSatisfiable" if refutable else "Theorem"


def main() -> int:
    with open(sys.argv[1]) as handle:
        text = handle.read()
    print(f"% SZS status {decide(text)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
