"""The stages ``values_via_prover`` decides a property in, seen through a
recorder around ``logic_encoder._decide``: sat and saf make one call with
every tree's problem; liv makes two, every tree's sat problem and then
the liv problems of exactly the trees whose sat verdict is 1."""

from __future__ import annotations

import pytest

from procshap import logic_encoder
from procshap.logic_encoder import emit_tptp, encode, values_via_prover
from procshap.oracle import Property, PropertySpec
from procshap.process_tree import activity, assign_node_ids, seq, substitute, xor

import fake_prover
from test_logic_encoder import fake_prover_config

SAT = PropertySpec(Property.SAT)
LIV = PropertySpec(Property.LIV)
SAF = PropertySpec(Property.SAF, safety_pair=("a", "b"))

TREE = assign_node_ids(seq(activity("a"), xor(activity("b"), activity("c"))))
# the whole tree, two coalitions that keep one Xor arm (sat 1, liv 0) and
# four that break the sequence or the Xor (sat 0)
TREES = [substitute(TREE, mask) for mask in (31, 15, 23, 7, 30, 0, 27)]


def problem(tree_c, spec: PropertySpec) -> str:
    return emit_tptp(encode(tree_c, spec), name=spec.prop.value)


def verdict(text: str, table: dict[str, int]) -> int:
    return table[fake_prover.status(text)]


SAT_WORDS = {"Satisfiable": 1, "Unsatisfiable": 0}
CONJECTURE_WORDS = {"Theorem": 1, "CounterSatisfiable": 0}


@pytest.fixture
def decided(monkeypatch) -> list[tuple[Property, list[str]]]:
    """Every ``_decide`` call from now on, as its problem kind and the
    problems it was handed, in order; each call still decides."""
    calls: list[tuple[Property, list[str]]] = []
    decide = logic_encoder._decide

    def recorder(problems, prop, config, memo):
        calls.append((prop, list(problems)))
        decide(problems, prop, config, memo)

    monkeypatch.setattr(logic_encoder, "_decide", recorder)
    return calls


@pytest.mark.parametrize("spec", [SAT, SAF], ids=["sat", "saf"])
def test_sat_and_saf_decide_every_tree_in_one_stage(decided, spec):
    words = SAT_WORDS if spec is SAT else CONJECTURE_WORDS
    problems = [problem(tree_c, spec) for tree_c in TREES]
    results = values_via_prover(TREES, spec, fake_prover_config())
    assert decided == [(spec.prop, problems)]
    assert results == [(verdict(text, words), []) for text in problems]


def test_liv_decides_the_gate_then_the_trees_it_passes(decided):
    gate = [problem(tree_c, SAT) for tree_c in TREES]
    passed = [i for i, text in enumerate(gate) if verdict(text, SAT_WORDS)]
    assert 0 < len(passed) < len(TREES)
    liv = {i: problem(TREES[i], LIV) for i in passed}
    results = values_via_prover(TREES, LIV, fake_prover_config())
    assert decided == [(Property.SAT, gate), (Property.LIV, list(liv.values()))]
    assert results == [
        (verdict(liv[i], CONJECTURE_WORDS) if i in liv else 0, []) for i in range(len(TREES))
    ]
    assert [value for value, _ in results] == [1, 0, 0, 0, 0, 0, 0]
