"""Test double for a TPTP prover.

Parses the FOF subset our emitter produces, decides the problem by
backtracking with unit propagation over a Tseitin CNF (independent of
the package's own code: it imports only the standard library), and
prints an SZS status line:

* with a conjecture: Theorem / CounterSatisfiable
* without:           Satisfiable / Unsatisfiable

With ``--contradictory`` it answers ContradictoryAxioms instead whenever
the axioms alone have no model, as E and Vampire may: by the SZS
ontology that is a Theorem of a problem with a conjecture and an
Unsatisfiable problem without one.

Usage: python fake_prover.py [--contradictory] PROBLEM.p
"""

from __future__ import annotations

import re
import sys

TOKEN = re.compile(r"\s*(<=>|=>|[()&|~]|\$true|\$false|[a-z0-9_]+)")


def tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = TOKEN.match(text, pos)
        if not m:
            raise SyntaxError(f"bad token at {text[pos:pos + 20]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.tokens[self.pos]
        if expected is not None and tok != expected:
            raise SyntaxError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        node = self.operand()
        op = self.peek()
        if op in ("&", "|"):
            parts = [node]
            while self.peek() == op:
                self.take(op)
                parts.append(self.operand())
            return (op, parts)
        if op in ("=>", "<=>"):
            self.take(op)
            return (op, [node, self.operand()])
        return node

    def operand(self):
        tok = self.peek()
        if tok == "(":
            self.take("(")
            node = self.parse()
            self.take(")")
            return node
        if tok == "~":
            self.take("~")
            self.take("(")
            node = self.parse()
            self.take(")")
            return ("~", [node])
        if tok in ("$true", "$false"):
            self.take()
            return (tok, [])
        return ("var", [self.take()])


class Cnf:
    """Tseitin clauses of a conjunction of parsed formulas: one variable
    per named variable (numbered first-seen) and one per compound
    subformula, literals as signed variable numbers."""

    def __init__(self, formulas) -> None:
        self.names: dict[str, int] = {}
        self.count = 0
        self.clauses: list[list[int]] = []
        for formula in formulas:
            self.add([self.literal(formula)])

    def add(self, clause: list[int]) -> None:
        """Keep *clause* with each literal once, unless it holds both a
        literal and its negation: propagation counts free literals."""
        clause = list(dict.fromkeys(clause))
        if not any(-lit in clause for lit in clause):
            self.clauses.append(clause)

    def fresh(self) -> int:
        self.count += 1
        return self.count

    def literal(self, node) -> int:
        op, args = node
        if op == "var":
            if args[0] not in self.names:
                self.names[args[0]] = self.fresh()
            return self.names[args[0]]
        if op in ("$true", "$false"):
            g = self.fresh()
            self.add([g if op == "$true" else -g])
            return g
        if op == "~":
            return -self.literal(args[0])
        if op == "=>":
            return self.literal(("|", [("~", [args[0]]), args[1]]))
        parts = [self.literal(a) for a in args]
        g = self.fresh()
        if op == "&":  # g <-> all parts
            clauses = [[-g, p] for p in parts] + [[g] + [-p for p in parts]]
        elif op == "|":  # g <-> some part
            clauses = [[g, -p] for p in parts] + [[-g] + parts]
        elif op == "<=>":
            a, b = parts
            clauses = [[-g, -a, b], [-g, a, -b], [g, a, b], [g, -a, -b]]
        else:
            raise ValueError(op)
        for clause in clauses:
            self.add(clause)
        return g


def satisfiable(formulas) -> bool:
    """Whether the conjunction of *formulas* has a model: backtracking
    over the named variables, first-seen first, each choice followed by
    unit propagation.  Once every named variable is set, propagation
    sets every Tseitin variable, so the search never branches on one."""

    cnf = Cnf(formulas)
    clauses = cnf.clauses
    occurs: dict[int, list[list[int]]] = {}  # literal -> the clauses holding it
    for clause in clauses:
        for lit in clause:
            occurs.setdefault(lit, []).append(clause)
    value: dict[int, bool] = {}
    trail: list[int] = []

    def holds(lit: int):
        v = value.get(abs(lit))
        return None if v is None else v == (lit > 0)

    def assign(lit: int, queue: list[int]) -> None:
        value[abs(lit)] = lit > 0
        trail.append(abs(lit))
        queue.append(lit)

    def propagate(queue: list[int]) -> bool:
        """Set every literal the queued ones force; False on a conflict."""
        while queue:
            lit = queue.pop()
            for clause in occurs.get(-lit, ()):
                free = None
                for other in clause:
                    state = holds(other)
                    if state or (state is None and free is not None):
                        break  # satisfied, or two literals still free
                    if state is None:
                        free = other
                else:
                    if free is None:
                        return False
                    assign(free, queue)
        return True

    order = list(cnf.names.values())

    def branch(lit: int) -> bool:
        mark = len(trail)
        queue: list[int] = []
        assign(lit, queue)
        if propagate(queue):
            var = next((v for v in order if v not in value), None)
            if var is None or branch(var) or branch(-var):
                return True
        for var in trail[mark:]:
            del value[var]
        del trail[mark:]
        return False

    queue: list[int] = []
    for clause in clauses:
        if len(clause) == 1:
            state = holds(clause[0])
            if state is False:
                return False
            if state is None:
                assign(clause[0], queue)
    if not propagate(queue):
        return False
    var = next((v for v in order if v not in value), None)
    return var is None or branch(var) or branch(-var)


def status(text: str, contradictory: bool = False) -> str:
    """The SZS status of the FOF problem *text*; ContradictoryAxioms
    when *contradictory* and the axioms have no model."""
    axioms = []
    conjecture = None
    for role, body in re.findall(
        r"fof\([^,]+,\s*(axiom|conjecture),\s*(.+)\)\.\s*$", text, re.M
    ):
        formula = Parser(tokenize(body)).parse()
        if role == "axiom":
            axioms.append(formula)
        else:
            conjecture = formula
    if contradictory and not satisfiable(axioms):
        return "ContradictoryAxioms"
    if conjecture is None:
        return "Satisfiable" if satisfiable(axioms) else "Unsatisfiable"
    refutable = satisfiable(axioms + [("~", [conjecture])])
    return "CounterSatisfiable" if refutable else "Theorem"


def main() -> int:
    sys.setrecursionlimit(10_000)  # one frame per branching variable
    *flags, path = sys.argv[1:]
    print(f"% SZS status {status(open(path).read(), '--contradictory' in flags)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
