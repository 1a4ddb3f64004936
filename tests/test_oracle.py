from __future__ import annotations

import itertools
import random

import pytest

from procshap.oracle import (
    Property,
    PropertySpec,
    TauMode,
    ValueCache,
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
    substitute,
    tau,
    xor,
)

from _corpus import commitment_run, corpus, iter_commitments
from _fold_ref import fold_value
from _language import trace_language

SAT = PropertySpec(Property.SAT)
LIV = PropertySpec(Property.LIV)


def saf(a="a", b="b", **kw) -> PropertySpec:
    return PropertySpec(Property.SAF, safety_pair=(a, b), **kw)


def verdict(spec, tree, keep=None, drop=None) -> int:
    tree = assign_node_ids(tree) if tree.node_id is None else tree
    n = node_count(tree)
    if drop is not None:
        coalition = Coalition.of(n, (i for i in range(n) if i not in set(drop)))
    elif keep is not None:
        coalition = Coalition.of(n, keep)
    else:
        coalition = Coalition.full(n)
    return evaluate(tree, coalition, spec)


def brute_force(tree_c, spec: PropertySpec) -> int:
    """Independent reference: enumerate every commitment explicitly."""
    runs = [
        commitment_run(tree_c, c, spec.mode)
        for c in iter_commitments(tree_c, spec.loop_bound)
    ]
    complete = [r for r in runs if r is not None]
    if spec.prop is Property.SAT:
        return int(bool(complete))
    if spec.prop is Property.LIV:
        return int(bool(complete) and len(complete) == len(runs))
    a, b = spec.safety_pair
    return int(not any(a in r and b in r for r in complete))


def test_sat_examples():
    tree = seq(activity("a"), activity("b"))
    assert verdict(SAT, tree) == 1
    assert verdict(SAT, tree, drop=[2]) == 0  # Seq needs all children
    tree = xor(activity("a"), activity("b"))
    assert verdict(SAT, tree, drop=[1]) == 1  # commit to b


def test_liv_examples():
    tree = xor(activity("a"), activity("b"))
    assert verdict(SAT, tree, drop=[1]) == 1
    assert verdict(LIV, tree, drop=[1]) == 0  # the commitment choosing a deadlocks
    tree = seq(activity("a"), activity("b"))
    assert verdict(LIV, tree) == 1
    assert verdict(LIV, tree, drop=[2]) == 0  # liv <= sat


def test_saf_examples():
    tree = seq(activity("a"), activity("b"))
    assert verdict(saf(), tree) == 0  # <a,b> co-occurs
    tree = xor(activity("a"), activity("b"))
    assert verdict(saf(), tree) == 1  # each run has one of them
    tree = seq(activity("a"), activity("b"))
    assert verdict(saf(), tree, drop=[2]) == 1  # vacuous: nothing completes


def test_saf_requires_pair():
    with pytest.raises(ValueError):
        PropertySpec(Property.SAF)
    with pytest.raises(ValueError):
        PropertySpec(Property.SAF, safety_pair=("a", "a"))


def test_loop_redo_affects_safety():
    # redo activities can occur once the bound allows an iteration
    tree = loop(activity("a"), activity("b"))
    assert verdict(saf(loop_bound=0), tree) == 1
    assert verdict(saf(loop_bound=1), tree) == 0


def test_static_commitments_pin_choices_across_iterations():
    # one Xor choice is shared by all loop iterations, so the two arms
    # never co-occur in a single committed run
    tree = loop(xor(activity("a"), activity("b")), tau())
    assert verdict(saf(loop_bound=2), tree) == 1


def test_empty_coalition_modes():
    tree = seq(activity("a"), activity("b"))
    assert verdict(SAT, tree, keep=[]) == 0
    assert verdict(PropertySpec(Property.SAT, mode=TauMode.SKIP), tree, keep=[]) == 1


def test_skip_mode_degeneracy():
    for tree in corpus(15, seed=31):
        n = node_count(tree)
        for mask in range(1 << n):
            c = Coalition(n, mask)
            assert evaluate(tree, c, PropertySpec(Property.SAT, mode=TauMode.SKIP)) == 1
            assert evaluate(tree, c, PropertySpec(Property.LIV, mode=TauMode.SKIP)) == 1


def test_liv_at_most_sat_everywhere():
    for tree in corpus(15, seed=32):
        n = node_count(tree)
        for mask in range(1 << n):
            c = Coalition(n, mask)
            for mode in TauMode:
                s = evaluate(tree, c, PropertySpec(Property.SAT, mode=mode))
                l = evaluate(tree, c, PropertySpec(Property.LIV, mode=mode))
                assert l <= s


def test_values_match_commitment_enumeration():
    # every coalition x {sat, liv, saf} x {blocked, skip} x loop bound {0, 1, 2}
    specs = [
        PropertySpec(prop, safety_pair=("a", "b") if prop is Property.SAF else None,
                     mode=mode, loop_bound=bound)
        for prop, mode, bound in itertools.product(Property, TauMode, (0, 1, 2))
    ] + [saf("a", "c")]
    for tree in corpus(25, max_nodes=8, seed=33):
        n = node_count(tree)
        for mask in range(1 << n):
            coalition = Coalition(n, mask)
            cut = substitute(tree, coalition)
            for spec in specs:
                assert evaluate(tree, coalition, spec) == brute_force(cut, spec), (
                    tree,
                    mask,
                    spec,
                )


def test_sat_equals_language_nonemptiness():
    for tree in corpus(20, seed=34):
        n = node_count(tree)
        rng = random.Random(n)
        for mask in [rng.getrandbits(n) for _ in range(8)]:
            coalition = Coalition(n, mask)
            cut = substitute(tree, coalition)
            for mode in TauMode:
                lang = trace_language(cut, bound=1, mode=mode)
                spec = PropertySpec(Property.SAT, mode=mode)
                assert evaluate(tree, coalition, spec) == int(bool(lang))


def test_blocked_monotonicity_exhaustive():
    for tree in corpus(20, seed=35):
        n = node_count(tree)
        sat_of = {}
        saf_of = {}
        for mask in range(1 << n):
            coalition = Coalition(n, mask)
            sat_of[mask] = evaluate(tree, coalition, SAT)
            saf_of[mask] = evaluate(tree, coalition, saf())
        for mask in range(1 << n):
            for i in range(n):
                bit = 1 << i
                if mask & bit:
                    continue
                assert sat_of[mask] <= sat_of[mask | bit]
                assert saf_of[mask] >= saf_of[mask | bit]


def test_sat_and_liv_monotone_on_corpus():
    # the permutation sampler ties veto players only on monotone games
    specs = [
        PropertySpec(prop, mode=mode, loop_bound=bound)
        for prop, mode, bound in itertools.product(
            (Property.SAT, Property.LIV), TauMode, (0, 1, 2)
        )
    ]
    for tree in corpus(60):
        n = node_count(tree)
        for spec in specs:
            game = tree_game(tree, spec)
            values = [fold_value(game, mask) for mask in range(1 << n)]
            for i in range(n):
                bit = 1 << i
                assert all(
                    values[mask] <= values[mask | bit] for mask in range(1 << n)
                ), (tree, spec, i)


def test_oracle_builds_no_substituted_tree(monkeypatch, running_example_tree):
    from procshap import oracle
    from procshap.reports import RunConfig, run_single

    def refuse(tree, coalition):
        raise AssertionError("substitute called on the oracle path")

    monkeypatch.setattr(oracle, "substitute", refuse)
    tree = running_example_tree
    n = node_count(tree)
    assert evaluate(tree, Coalition.full(n), SAT) == 1
    config = RunConfig(log_path="log.xes", method="mc", permutations=100,
                       min_permutations=100, seed=1)
    record = run_single(config, tree, 0.0, SAT, 1)
    assert record["error"] is None
    assert record["cache"]["distinct_queries"] > 0
    assert sum(record["phi"].values()) == pytest.approx(1.0)


def test_evaluate_requires_node_ids():
    tree = seq(activity("a"), activity("b"))
    with pytest.raises(ValueError, match="id-assigned"):
        evaluate(tree, Coalition.full(3), SAT)


def test_evaluate_memoizes():
    tree = assign_node_ids(seq(activity("a"), xor(activity("b"), activity("c"))))
    n = node_count(tree)
    cache = ValueCache()
    coalition = Coalition.full(n)
    first = evaluate(tree, coalition, SAT, cache)
    assert cache.total_queries == 1 and cache.distinct_queries == 1
    second = evaluate(tree, coalition, SAT, cache)
    assert second == first
    assert cache.total_queries == 2 and cache.distinct_queries == 1


def test_cache_key_distinguishes_specs():
    tree = assign_node_ids(seq(activity("a"), activity("b")))
    n = node_count(tree)
    cache = ValueCache()
    coalition = Coalition.full(n)
    assert evaluate(tree, coalition, SAT, cache) == 1
    assert evaluate(tree, coalition, saf(), cache) == 0
    assert cache.distinct_queries == 2


def test_cached_value_equals_recomputation():
    for tree in corpus(10, seed=36):
        n = node_count(tree)
        cache = ValueCache()
        rng = random.Random(n)
        masks = [rng.getrandbits(n) for _ in range(20)]
        for mask in masks + masks:
            c = Coalition(n, mask)
            cached = evaluate(tree, c, SAT, cache)
            fresh = evaluate(tree, c, SAT, cache=None)
            assert cached == fresh


def test_cache_recovers_after_compute_error():
    cache = ValueCache()

    def boom() -> int:
        raise RuntimeError("flaky")

    with pytest.raises(RuntimeError):
        cache.get_or_compute("k", boom)
    assert cache.get_or_compute("k", lambda: 1) == 1
    assert cache.distinct_queries == 1
