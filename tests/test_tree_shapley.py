"""The two polynomial exact paths against the 2^n enumeration
(``exact_shapley`` over the oracle's verdicts), compared as exact
fractions: the tree DP (``tree_shapley`` over the oracle's compiled rules),
which replaces it on the oracle path, and the sum over rooted subtrees
(``rooted_shapley``), which replaces it on the prover path and is
checked here through oracle-backed verdicts."""

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
    ValueCache,
    evaluate,
    evaluate_rows,
    row_masks,
)
from procshap.process_tree import (
    Coalition,
    activity,
    assign_node_ids,
    loop,
    node_count,
    par,
    seq,
    substitute,
    tau,
    xor,
)
from procshap.reports import RunConfig, run_single
from procshap.shapley import (
    Game,
    canonical_form_count,
    exact_shapley,
    rooted_shapley,
    tree_shapley,
)

from _corpus import corpus, random_tree
from _fold_ref import canonical_mask, verdicts_of_masks

BUNDLED_PAIR = ("pay compensation", "reject request")


def specs(modes=tuple(TauMode), bounds=(0, 1, 2), pair=("a", "b")):
    return [
        PropertySpec(prop, safety_pair=pair if prop is Property.SAF else None,
                     mode=mode, loop_bound=bound)
        for prop, mode, bound in itertools.product(Property, modes, bounds)
    ]


def enumerated(tree, spec_list):
    """exact_shapley's estimate for every spec, over the verdicts on all
    2^n coalitions, asked of the oracle as one batch per spec."""
    n = node_count(tree)
    masks = list(range(1 << n))
    return {
        spec: exact_shapley(Game(
            n, lambda c, table=verdicts_of_masks(ValueCache(tree, spec), masks): table[c.mask]
        ))
        for spec in spec_list
    }


def assert_dp_matches(tree, spec_list):
    for spec, reference in enumerated(tree, spec_list).items():
        asked = []

        def verdicts(rows, spec=spec):
            asked.append(row_masks(rows))
            return evaluate_rows(ValueCache(tree, spec), rows)

        for estimate in (
            tree_shapley(tree, spec),
            rooted_shapley(tree, verdicts),
        ):
            assert estimate.phi_exact == reference.phi_exact, (tree, spec)
            assert estimate.phi == reference.phi
            assert estimate.samples == reference.samples
        # one batch: the empty set, then the rooted subtrees in mask order
        [masks] = asked
        assert masks[0] == 0 and masks == [0, *sorted(masks[1:])]
        assert len(masks) == len(set(masks)) == canonical_form_count(tree)


def test_dp_equals_enumeration_on_corpus():
    # 60 trees x {sat, liv, saf} x {blocked, skip} x loop bound {0, 1, 2}
    for tree in corpus(60):
        assert_dp_matches(tree, specs())


def test_canonical_masks_are_the_rooted_subtrees():
    for tree in corpus(40, seed=61):
        n = node_count(tree)
        canonical = {canonical_mask(tree, mask) for mask in range(1 << n)}
        assert len(canonical) == canonical_form_count(tree)
        for mask in range(1 << n):
            form = canonical_mask(tree, mask)
            assert form & mask == form and canonical_mask(tree, form) == form
            assert substitute(tree, mask) == substitute(tree, form)


def test_rooted_shapley_refuses_before_any_verdict():
    # a Seq over 21 leaves roots 2^21 subtrees: 2^21 + 1 canonical forms
    tree = assign_node_ids(seq(*(activity(f"a{i}") for i in range(21))))
    assert canonical_form_count(tree) == (1 << 21) + 1

    def no_verdicts(rows):
        raise AssertionError("a verdict was asked for")

    with pytest.raises(ValueError, match="exact computation refused"):
        rooted_shapley(tree, no_verdicts)


def test_exact_paths_refuse_trees_without_ids_0_to_n():
    """The players are the node ids: a tree without ids, or a
    ``substitute``d tree whose ids leave gaps, would give phantom players."""
    bare = seq(xor(activity("a"), activity("b")), activity("c"))
    cut = substitute(assign_node_ids(bare), 0b10001)  # Seq@0, tau@1, c@4
    assert node_count(cut) == 3
    for tree in (bare, cut):
        for exact in (
            lambda tree: tree_shapley(tree, PropertySpec(Property.SAT)),
            lambda tree: rooted_shapley(tree, lambda rows: [0] * len(rows)),
            canonical_form_count,
        ):
            with pytest.raises(ValueError, match="assign_node_ids"):
                exact(tree)


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
        estimate = tree_shapley(tree, spec)
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
