"""Minimal propositional formula toolkit used by the logic encoder.

Formulas are plain nested tuples:

    ('t',)              truth
    ('f',)              falsity
    ('v', name)         variable
    ('n', f)            negation
    ('a', (f1, .., fk)) conjunction
    ('o', (f1, .., fk)) disjunction
    ('i', f, g)         implication
    ('e', f, g)         biconditional

The logic encoder builds formulas from these constructors and renders
them as TPTP; deciding them is the external prover's job.
"""

from __future__ import annotations


Formula = tuple

TRUE: Formula = ("t",)
FALSE: Formula = ("f",)


def var(name: str) -> Formula:
    return ("v", name)


def neg(f: Formula) -> Formula:
    return ("n", f)


def conj(*fs: Formula) -> Formula:
    if not fs:
        return TRUE
    if len(fs) == 1:
        return fs[0]
    return ("a", tuple(fs))


def disj(*fs: Formula) -> Formula:
    if not fs:
        return FALSE
    if len(fs) == 1:
        return fs[0]
    return ("o", tuple(fs))


def implies(f: Formula, g: Formula) -> Formula:
    return ("i", f, g)


def iff(f: Formula, g: Formula) -> Formula:
    return ("e", f, g)


def to_tptp(f: Formula) -> str:
    tag = f[0]
    if tag == "t":
        return "$true"
    if tag == "f":
        return "$false"
    if tag == "v":
        return f[1]
    if tag == "n":
        return f"~({to_tptp(f[1])})"
    if tag == "a":
        return "(" + " & ".join(to_tptp(g) for g in f[1]) + ")"
    if tag == "o":
        return "(" + " | ".join(to_tptp(g) for g in f[1]) + ")"
    if tag == "i":
        return f"({to_tptp(f[1])} => {to_tptp(f[2])})"
    if tag == "e":
        return f"({to_tptp(f[1])} <=> {to_tptp(f[2])})"
    raise ValueError(f"unknown formula tag {tag!r}")
