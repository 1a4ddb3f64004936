"""The tree DP (``tree_shapley`` over ``oracle.tree_game``) against the
2^n enumeration it replaces on the oracle path (``exact_shapley`` over
the oracle's verdicts), compared as exact fractions."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from procshap.miner import MinerConfig, discover
from procshap.oracle import (
    Property,
    PropertySpec,
    TauMode,
    evaluate,
    tree_game,
)
from procshap.process_tree import (
    Coalition,
    activity,
    assign_node_ids,
    loop,
    node_count,
    par,
    seq,
    tau,
    xor,
)
from procshap.reports import RunConfig, run_single
from procshap.shapley import Game, exact_shapley, tree_shapley

from _corpus import corpus, random_tree

BUNDLED_PAIR = ("pay compensation", "reject request")


def specs(modes=tuple(TauMode), bounds=(0, 1, 2), pair=("a", "b")):
    return [
        PropertySpec(prop, safety_pair=pair if prop is Property.SAF else None,
                     mode=mode, loop_bound=bound)
        for prop, mode, bound in itertools.product(Property, modes, bounds)
    ]


def enumerated(tree, spec_list):
    """exact_shapley's estimate for every spec, evaluating each of the
    2^n coalitions once per spec."""
    n = node_count(tree)
    tables = {spec: [] for spec in spec_list}
    for mask in range(1 << n):
        coalition = Coalition(n, mask)
        for spec, table in tables.items():
            table.append(evaluate(tree, coalition, spec))
    return {
        spec: exact_shapley(Game(n, lambda c, table=table: table[c.mask]))
        for spec, table in tables.items()
    }


def assert_dp_matches(tree, spec_list):
    for spec, reference in enumerated(tree, spec_list).items():
        estimate = tree_shapley(tree_game(tree, spec))
        assert estimate.phi_exact == reference.phi_exact, (tree, spec)
        assert estimate.phi == reference.phi
        assert estimate.samples == reference.samples


def test_dp_equals_enumeration_on_corpus():
    # 60 trees x {sat, liv, saf} x {blocked, skip} x loop bound {0, 1, 2}
    for tree in corpus(60):
        assert_dp_matches(tree, specs())


def _trees():
    leaves = st.one_of(st.sampled_from("abcd").map(activity), st.builds(tau))

    def extend(kids):
        group = st.lists(kids, min_size=2, max_size=3)
        return st.one_of(
            group.map(lambda cs: seq(*cs)),
            group.map(lambda cs: xor(*cs)),
            group.map(lambda cs: par(*cs)),
            st.tuples(kids, kids).map(lambda pair: loop(*pair)),
        )

    return (
        st.recursive(leaves, extend, max_leaves=8)
        .map(assign_node_ids)
        .filter(lambda tree: node_count(tree) <= 12)
    )


@given(tree=_trees(), bound=st.integers(min_value=0, max_value=2))
@settings(max_examples=40, deadline=None)
def test_dp_equals_enumeration_on_generated_trees(tree, bound):
    assert_dp_matches(tree, specs(bounds=(bound,)))


def test_dp_equals_enumeration_on_bundled_log(running_example_log):
    # the 12 configurations of the bundled matrix: 4 noise levels x 3 properties
    for noise in (0.0, 0.25, 0.5, 1.0):
        tree = discover(running_example_log, MinerConfig(noise=noise))
        assert_dp_matches(
            tree, specs(modes=(TauMode.BLOCKED,), bounds=(1,), pair=BUNDLED_PAIR)
        )


def large_tree(min_nodes: int = 100):
    for seed in itertools.count():
        tree = random_tree(random.Random(seed), max_nodes=130)
        if node_count(tree) >= min_nodes:
            return tree


def test_dp_efficiency_beyond_enumeration():
    tree = large_tree()
    n = node_count(tree)
    with pytest.raises(ValueError, match="exact computation refused"):
        exact_shapley(Game(n, lambda c: 0))
    full, empty = Coalition.full(n), Coalition.empty(n)
    for spec in specs(bounds=(1,)):
        estimate = tree_shapley(tree_game(tree, spec))
        grand = evaluate(tree, full, spec) - evaluate(tree, empty, spec)
        assert sum(estimate.phi_exact.values()) == Fraction(grand), spec
        assert estimate.samples == {i: 1 << (n - 1) for i in range(n)}


def test_run_single_exact_oracle_above_enumeration_limit(running_example_file):
    tree = large_tree()
    n = node_count(tree)
    config = RunConfig(log_path=str(running_example_file), method="exact")
    record = run_single(config, tree, 0.0, PropertySpec(Property.SAT), None)
    assert record["node_count"] == n > 20
    assert record["method"]["samples"] == 1 << (n - 1)
    assert record["cache"]["total_queries"] == record["cache"]["distinct_queries"] == 0
    assert sum(record["phi"].values()) == pytest.approx(1.0)
