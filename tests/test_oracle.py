from __future__ import annotations

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from procshap.oracle import (
    Property,
    PropertySpec,
    TauMode,
    ValueCache,
    evaluate,
    v_liv,
    v_saf,
    v_sat,
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
    trace_language,
    xor,
)

from _corpus import commitment_run, corpus, iter_commitments

SAT = PropertySpec(Property.SAT)
LIV = PropertySpec(Property.LIV)


def saf(a="a", b="b", **kw) -> PropertySpec:
    return PropertySpec(Property.SAF, safety_pair=(a, b), **kw)


def reduced(tree, keep=None, drop=None):
    tree = assign_node_ids(tree) if tree.node_id is None else tree
    n = node_count(tree)
    if drop is not None:
        coalition = Coalition.of(n, (i for i in range(n) if i not in set(drop)))
    elif keep is not None:
        coalition = Coalition.of(n, keep)
    else:
        coalition = Coalition.full(n)
    return substitute(tree, coalition)


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
    assert v_sat(reduced(tree), SAT) == 1
    assert v_sat(reduced(tree, drop=[2]), SAT) == 0  # Seq needs all children
    tree = xor(activity("a"), activity("b"))
    assert v_sat(reduced(tree, drop=[1]), SAT) == 1  # commit to b


def test_liv_examples():
    tree = xor(activity("a"), activity("b"))
    cut = reduced(tree, drop=[1])
    assert v_sat(cut, SAT) == 1
    assert v_liv(cut, LIV) == 0  # the commitment choosing a deadlocks
    tree = seq(activity("a"), activity("b"))
    assert v_liv(reduced(tree), LIV) == 1
    assert v_liv(reduced(tree, drop=[2]), LIV) == 0  # liv <= sat


def test_saf_examples():
    tree = seq(activity("a"), activity("b"))
    assert v_saf(reduced(tree), saf()) == 0  # <a,b> co-occurs
    tree = xor(activity("a"), activity("b"))
    assert v_saf(reduced(tree), saf()) == 1  # each run has one of them
    tree = seq(activity("a"), activity("b"))
    assert v_saf(reduced(tree, drop=[2]), saf()) == 1  # vacuous: nothing completes


def test_saf_requires_pair():
    with pytest.raises(ValueError):
        PropertySpec(Property.SAF)
    with pytest.raises(ValueError):
        PropertySpec(Property.SAF, safety_pair=("a", "a"))


def test_loop_redo_affects_safety():
    # redo activities can occur once the bound allows an iteration
    tree = loop(activity("a"), activity("b"))
    assert v_saf(reduced(tree), saf(loop_bound=0)) == 1
    assert v_saf(reduced(tree), saf(loop_bound=1)) == 0


def test_static_commitments_pin_choices_across_iterations():
    # one Xor choice is shared by all loop iterations, so the two arms
    # never co-occur in a single committed run
    tree = loop(xor(activity("a"), activity("b")), tau())
    assert v_saf(reduced(tree), saf(loop_bound=2)) == 1


def test_empty_coalition_modes():
    tree = seq(activity("a"), activity("b"))
    cut = reduced(tree, keep=[])
    assert v_sat(cut, SAT) == 0
    assert v_sat(cut, PropertySpec(Property.SAT, mode=TauMode.SKIP)) == 1


def test_skip_mode_degeneracy():
    for tree in corpus(15, seed=31):
        n = node_count(tree)
        for mask in range(1 << n):
            cut = substitute(tree, Coalition(n, mask))
            assert v_sat(cut, PropertySpec(Property.SAT, mode=TauMode.SKIP)) == 1
            assert v_liv(cut, PropertySpec(Property.LIV, mode=TauMode.SKIP)) == 1


def test_liv_at_most_sat_everywhere():
    for tree in corpus(15, seed=32):
        n = node_count(tree)
        for mask in range(1 << n):
            cut = substitute(tree, Coalition(n, mask))
            for mode in TauMode:
                s = v_sat(cut, PropertySpec(Property.SAT, mode=mode))
                l = v_liv(cut, PropertySpec(Property.LIV, mode=mode))
                assert l <= s


def test_values_match_commitment_enumeration():
    rng = random.Random(99)
    for tree in corpus(25, max_nodes=8, seed=33):
        n = node_count(tree)
        masks = [rng.getrandbits(n) for _ in range(12)] + [0, (1 << n) - 1]
        for mask in masks:
            cut = substitute(tree, Coalition(n, mask))
            for spec in (SAT, LIV, saf(), saf(loop_bound=0), saf("a", "c")):
                fast = {"sat": v_sat, "liv": v_liv, "saf": v_saf}[spec.prop.value]
                assert fast(cut, spec) == brute_force(cut, spec), (
                    tree,
                    mask,
                    spec,
                )


def test_sat_equals_language_nonemptiness():
    for tree in corpus(20, seed=34):
        n = node_count(tree)
        rng = random.Random(n)
        for mask in [rng.getrandbits(n) for _ in range(8)]:
            cut = substitute(tree, Coalition(n, mask))
            for mode in TauMode:
                lang = trace_language(cut, bound=1, mode=mode)
                assert v_sat(cut, PropertySpec(Property.SAT, mode=mode)) == int(
                    bool(lang)
                )


def test_blocked_monotonicity_exhaustive():
    for tree in corpus(20, seed=35):
        n = node_count(tree)
        sat_of = {}
        saf_of = {}
        for mask in range(1 << n):
            cut = substitute(tree, Coalition(n, mask))
            sat_of[mask] = v_sat(cut, SAT)
            saf_of[mask] = v_saf(cut, saf())
        for mask in range(1 << n):
            for i in range(n):
                bit = 1 << i
                if mask & bit:
                    continue
                assert sat_of[mask] <= sat_of[mask | bit]
                assert saf_of[mask] >= saf_of[mask | bit]


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


def test_cache_concurrent_compute_once():
    tree = assign_node_ids(par(activity("a"), activity("b"), activity("c")))
    n = node_count(tree)
    cache = ValueCache()
    calls = []
    lock = threading.Lock()

    def value(coalition: Coalition) -> int:
        def compute() -> int:
            with lock:
                calls.append(coalition.mask)
            return v_sat(substitute(tree, coalition), SAT)

        return cache.get_or_compute(coalition.mask, compute)

    masks = [mask for mask in range(1 << n)] * 8
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda m: value(Coalition(n, m)), masks))
    assert len(calls) == len(set(calls)) == 1 << n
    assert cache.total_queries == len(masks)
    assert cache.distinct_queries == 1 << n
    for mask, result in zip(masks, results):
        assert result == v_sat(substitute(tree, Coalition(n, mask)), SAT)
