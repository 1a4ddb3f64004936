from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from procshap.logic_encoder import (
    EncodingSizeError,
    ProverConfig,
    ProverNotFoundError,
    ProverUnknownError,
    SZSStatus,
    emit_tptp,
    encode,
    parse_szs,
    run_prover,
    value_via_prover,
)
from procshap.oracle import Property, PropertySpec, evaluate
from procshap.process_tree import (
    Coalition,
    activity,
    assign_node_ids,
    loop,
    node_count,
    seq,
    substitute,
    tau,
    xor,
)

from _corpus import corpus, random_tree
from _sat import (
    collect_vars,
    dpll_satisfiable,
    spec_value,
    truth_table_satisfiable,
    truth_table_value,
)

SAT = PropertySpec(Property.SAT)
LIV = PropertySpec(Property.LIV)
SAF = PropertySpec(Property.SAF, safety_pair=("a", "b"))

FAKE_PROVER = str(Path(__file__).parent / "fake_prover.py")


def fake_prover_config(**kw) -> ProverConfig:
    return ProverConfig(
        executable=sys.executable, extra_args=(FAKE_PROVER,), timeout_s=30, **kw
    )


def test_single_leaf_encoding_is_minimal():
    tree = assign_node_ids(activity("a"))
    pspec = encode(tree, SAT)
    assert len(pspec.variables) == 2
    assert spec_value(pspec) == 1


def test_encoding_matches_oracle_example():
    tree = assign_node_ids(xor(activity("a"), activity("b")))
    cut = substitute(tree, Coalition.of(3, [0, 2]))  # drop a
    assert spec_value(encode(cut, LIV)) == 0
    assert spec_value(encode(cut, SAT)) == 1


def test_encoder_oracle_equivalence_all_coalitions():
    # the full 100-tree corpus runs in the acceptance suite; this is the
    # fast development slice
    for tree in corpus(20, max_nodes=8, seed=77):
        n = node_count(tree)
        for mask in range(1 << n):
            coalition = Coalition(n, mask)
            cut = substitute(tree, coalition)
            for spec in (SAT, LIV, SAF):
                assert spec_value(encode(cut, spec)) == evaluate(tree, coalition, spec), (
                    tree,
                    mask,
                    spec.prop,
                )


def test_truth_table_agrees_with_dpll():
    rng = random.Random(123)
    for _ in range(40):
        tree = random_tree(rng, max_nodes=6)
        n = node_count(tree)
        mask = rng.getrandbits(n)
        cut = substitute(tree, Coalition(n, mask))
        for spec in (SAT, LIV, SAF):
            pspec = encode(cut, spec)
            if len(collect_vars(list(pspec.axioms))) > 18:
                continue
            assert truth_table_value(pspec) == spec_value(pspec)


def test_dpll_agrees_with_truth_table_on_random_formulas():
    from procshap.propositional import conj, disj, iff, implies, neg, var

    rng = random.Random(5)
    names = [f"v{i}" for i in range(6)]

    def formula(depth):
        if depth == 0 or rng.random() < 0.3:
            return var(rng.choice(names))
        op = rng.randrange(5)
        if op == 0:
            return neg(formula(depth - 1))
        if op == 1:
            return conj(*(formula(depth - 1) for _ in range(rng.randint(2, 3))))
        if op == 2:
            return disj(*(formula(depth - 1) for _ in range(rng.randint(2, 3))))
        if op == 3:
            return implies(formula(depth - 1), formula(depth - 1))
        return iff(formula(depth - 1), formula(depth - 1))

    for _ in range(200):
        fs = [formula(3) for _ in range(rng.randint(1, 3))]
        assert dpll_satisfiable(fs) == truth_table_satisfiable(fs)


def test_loop_bound_zero_and_two():
    tree = assign_node_ids(loop(activity("a"), activity("b")))
    for bound in (0, 1, 2):
        spec = PropertySpec(Property.SAF, safety_pair=("a", "b"), loop_bound=bound)
        assert spec_value(encode(tree, spec)) == evaluate(tree, Coalition.full(3), spec)


def test_all_referenced_variables_declared():
    rng = random.Random(41)
    for _ in range(20):
        tree = random_tree(rng, max_nodes=9)
        n = node_count(tree)
        cut = substitute(tree, Coalition(n, rng.getrandbits(n)))
        for spec in (SAT, LIV, SAF):
            pspec = encode(cut, spec)
            referenced = set(
                collect_vars(list(pspec.axioms))
                + collect_vars([pspec.conjecture] if pspec.conjecture else [])
            )
            assert referenced <= set(pspec.variables)


def test_encoding_deterministic():
    tree = assign_node_ids(
        seq(activity("a"), loop(xor(activity("b"), tau()), activity("c")))
    )
    first = emit_tptp(encode(tree, SAT), "p")
    second = emit_tptp(encode(tree, SAT), "p")
    assert first == second


def test_emit_tptp_golden():
    tree = assign_node_ids(activity("a"))
    text = emit_tptp(encode(tree, SAT), "leaf_sat")
    golden = Path(__file__).parent / "golden" / "leaf_sat.p"
    assert text == golden.read_text()


def test_emit_tptp_empty_problem():
    from procshap.logic_encoder import PropositionalSpec

    empty = PropositionalSpec(
        variables=(), axioms=(), conjecture=None, done_root="", occ_vars=()
    )
    text = emit_tptp(empty, "empty")
    assert text.startswith("%")
    assert "fof(" not in text


def test_encoding_size_guard():
    tree = activity("a")
    for _ in range(8):
        tree = loop(tree, tau())
    tree = assign_node_ids(tree)
    spec = PropertySpec(Property.SAT, loop_bound=4)
    with pytest.raises(EncodingSizeError):
        encode(tree, spec, max_instances=500)


def test_parse_szs_statuses():
    assert parse_szs("% SZS status Theorem for x") is SZSStatus.THEOREM
    assert parse_szs("% SZS status Satisfiable") is SZSStatus.SATISFIABLE
    assert parse_szs("% SZS status CounterSatisfiable") is SZSStatus.COUNTER_SATISFIABLE
    assert parse_szs("no verdict here") is SZSStatus.UNKNOWN
    assert parse_szs("% SZS status SomethingNew") is SZSStatus.UNKNOWN
    assert parse_szs("% SZS status ResourceOut") is SZSStatus.TIMEOUT


def test_run_prover_with_fake_prover():
    tree = assign_node_ids(activity("a"))
    problem = emit_tptp(encode(tree, SAT))
    assert run_prover(problem, fake_prover_config()) is SZSStatus.SATISFIABLE


def test_run_prover_timeout(tmp_path):
    slow = tmp_path / "slow_prover.py"
    slow.write_text("import time\ntime.sleep(30)\n")
    config = ProverConfig(
        executable=sys.executable, extra_args=(str(slow),), timeout_s=0.2
    )
    assert run_prover("fof(a, axiom, x).", config) is SZSStatus.TIMEOUT


def test_run_prover_missing_binary():
    config = ProverConfig(executable="/nonexistent/prover")
    with pytest.raises(ProverNotFoundError):
        run_prover("fof(a, axiom, x).", config)


def test_run_prover_no_szs_line(tmp_path):
    silent = tmp_path / "silent.py"
    silent.write_text("print('hello')\n")
    config = ProverConfig(executable=sys.executable, extra_args=(str(silent),))
    assert run_prover("fof(a, axiom, x).", config) is SZSStatus.UNKNOWN


def test_unknown_policy_zero_warns(tmp_path):
    silent = tmp_path / "silent.py"
    silent.write_text("print('no status')\n")
    config = ProverConfig(executable=sys.executable, extra_args=(str(silent),))
    tree = assign_node_ids(activity("a"))
    warnings: list[str] = []
    assert value_via_prover(tree, SAT, config, warn=warnings.append) == 0
    assert warnings and "Unknown" in warnings[0]


def test_unknown_policy_abort(tmp_path):
    silent = tmp_path / "silent.py"
    silent.write_text("print('no status')\n")
    config = ProverConfig(
        executable=sys.executable,
        extra_args=(str(silent),),
        unknown_policy="abort",
    )
    tree = assign_node_ids(activity("a"))
    with pytest.raises(ProverUnknownError):
        value_via_prover(tree, SAT, config)


def test_value_via_prover_agrees_with_oracle():
    config = fake_prover_config()
    rng = random.Random(17)
    for tree in corpus(6, max_nodes=6, seed=88):
        n = node_count(tree)
        masks = {rng.getrandbits(n) for _ in range(4)} | {0, (1 << n) - 1}
        for mask in masks:
            coalition = Coalition(n, mask)
            cut = substitute(tree, coalition)
            for spec in (SAT, LIV, SAF):
                assert value_via_prover(cut, spec, config) == evaluate(
                    tree, coalition, spec
                )


def test_value_via_prover_dumps_problems(tmp_path):
    config = fake_prover_config(dump_dir=str(tmp_path / "problems"))
    tree = assign_node_ids(seq(activity("a"), activity("b")))
    value_via_prover(tree, SAT, config)
    dumped = list((tmp_path / "problems").glob("*.p"))
    assert len(dumped) == 1 and dumped[0].name.startswith("sat_")


def test_evaluate_with_prover_backend_through_cache():
    from procshap.oracle import ValueCache, evaluate

    tree = assign_node_ids(seq(activity("a"), activity("b")))
    n = node_count(tree)
    cache = ValueCache()
    config = fake_prover_config()
    value = evaluate(
        tree, Coalition.full(n), SAT, cache, backend="prover", prover_config=config
    )
    assert value == 1
    assert cache.distinct_queries == 1
