"""The table that reads every prover answer: each SZS status word is a
verdict for one problem kind or counts 0 and warns by name, and a
prover that answers ContradictoryAxioms for axioms with no model gives
the oracle's values."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from procshap.datasets import running_example_path
from procshap.logic_encoder import ProverConfig, values_via_prover
from procshap.oracle import Property, PropertySpec
from procshap.process_tree import activity, assign_node_ids, seq
from procshap.reports import RunConfig, run_matrix

import fake_prover
from test_logic_encoder import FAKE_PROVER

SAT = PropertySpec(Property.SAT)
LIV = PropertySpec(Property.LIV)
SAF = PropertySpec(Property.SAF, safety_pair=("a", "b"))
BUNDLED_SAF = PropertySpec(Property.SAF, safety_pair=("pay compensation", "reject request"))

VERDICTS = {
    "sat": {"Satisfiable": 1, "Unsatisfiable": 0, "ContradictoryAxioms": 0},
    "liv": {"Theorem": 1, "ContradictoryAxioms": 1, "CounterSatisfiable": 0},
    "saf": {"Theorem": 1, "ContradictoryAxioms": 1, "CounterSatisfiable": 0},
}
VERDICT_WORDS = sorted({word for table in VERDICTS.values() for word in table})
NO_VERDICT = ["Timeout", "Unknown", "GaveUp", "ResourceOut", "SomethingNew"]


def word_prover(tmp_path: Path, answers: dict[str, str]) -> ProverConfig:
    """A prover that prints the status word *answers* names for each
    problem kind, read from the problem's first line (``% sat: ...``)."""
    prover = tmp_path / "words.sh"
    cases = "".join(
        f"  '% {kind}:'*) echo '% SZS status {word}';;\n" for kind, word in answers.items()
    )
    prover.write_text(f'#!/bin/sh\ncase "$(head -n 1 "$1")" in\n{cases}esac\n')
    prover.chmod(0o755)
    return ProverConfig(executable=str(prover), timeout_s=30)


def contradictory_prover(**kw) -> ProverConfig:
    """``fake_prover.py`` answering ContradictoryAxioms whenever a
    problem's axioms have no model."""
    return ProverConfig(
        executable=sys.executable, extra_args=(FAKE_PROVER, "--contradictory"),
        timeout_s=30, **kw,
    )


TREE = assign_node_ids(seq(activity("a"), activity("b")))


@pytest.mark.parametrize("word", VERDICT_WORDS + NO_VERDICT)
@pytest.mark.parametrize("spec", [SAT, LIV, SAF], ids=["sat", "liv", "saf"])
def test_each_word_reads_through_its_kinds_table(tmp_path, spec, word):
    kind = spec.prop.value
    # liv's sat gate passes, so liv's own problem is asked
    prover = word_prover(tmp_path, {"sat": "Satisfiable", kind: word})
    [(value, warnings)] = values_via_prover([TREE], spec, prover)
    table = VERDICTS[kind]
    assert value == table.get(word, 0)
    assert warnings == (
        [] if word in table else [f"prover returned {word} for {kind}; treating as 0"]
    )


@pytest.mark.parametrize("word", VERDICT_WORDS + NO_VERDICT)
def test_livs_sat_gate_reads_the_sat_table(tmp_path, word):
    prover = word_prover(tmp_path, {"sat": word, "liv": "Theorem"})
    [(value, warnings)] = values_via_prover([TREE], LIV, prover)
    assert value == VERDICTS["sat"].get(word, 0)
    assert warnings == (
        [] if word in VERDICTS["sat"]
        else [f"prover returned {word} for liv's sat gate; treating as 0"]
    )


def matrix(prover: ProverConfig | None, *specs: PropertySpec, **kw) -> list[dict]:
    """The bundled log's records at noise 0 and 0.25."""
    return run_matrix(RunConfig(
        log_path=str(running_example_path()), noise_levels=(0.0, 0.25),
        properties=specs, prover=prover, **kw,
    )).configurations


@pytest.mark.parametrize("kw", [
    dict(method="exact"),
    dict(method="mc", seed=3, permutations=60),
], ids=["exact", "mc"])
def test_contradictory_axioms_prover_gives_the_oracles_saf_values(tmp_path, kw):
    dump = tmp_path / "problems"
    prover = contradictory_prover(dump_dir=str(dump))
    records = matrix(prover, BUNDLED_SAF, **kw)
    oracle = matrix(None, BUNDLED_SAF, **kw)
    assert [r["phi"] for r in records] == [r["phi"] for r in oracle]
    assert [r["cache"]["warnings"] for r in records] == [[], []]
    # the run did hear the word: some form cannot complete, so its saf
    # axioms have no model
    statuses = {fake_prover.status(p.read_text(), contradictory=True) for p in dump.iterdir()}
    assert "ContradictoryAxioms" in statuses


def test_contradictory_axioms_prover_leaves_sat_and_liv_alone():
    records = matrix(contradictory_prover(), SAT, LIV, method="exact")
    oracle = matrix(None, SAT, LIV, method="exact")
    assert [r["phi"] for r in records] == [r["phi"] for r in oracle]
    assert all(r["cache"]["warnings"] == [] for r in records)
