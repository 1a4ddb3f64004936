"""The oracle's batch fold against the per-coalition reference fold
(``_fold_ref.fold_value`` over ``tree_game``): equal verdicts for every
property, tau mode and loop bound, on trees with removed taus and trees
of more than 64 nodes, for batches with repeated masks; equal cache
counters; no compiling or folding for a batch the cache answers whole;
and the tables compiled once per spec, not once per batch."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from procshap import oracle
from procshap.oracle import (
    Property,
    PropertySpec,
    TauMode,
    ValueCache,
    evaluate_masks,
    tree_game,
)
from procshap.process_tree import (
    Coalition,
    assign_node_ids,
    iter_nodes,
    node_count,
    par,
    seq,
    substitute,
    xor,
)
from procshap.reports import RunConfig, run_single

from _corpus import random_tree
from _fold_ref import fold_value

SPECS = [
    PropertySpec(prop, safety_pair=("a", "b") if prop is Property.SAF else None,
                 mode=mode, loop_bound=bound)
    for prop, mode, bound in itertools.product(Property, TauMode, (0, 1, 2))
] + [
    PropertySpec(Property.SAF, safety_pair=("c", "a"), loop_bound=2),
    PropertySpec(Property.SAF, safety_pair=("a", "z"), mode=TauMode.SKIP),  # z absent
]
RUNNING_PAIR = ("pay compensation", "reject request")
RUNNING_SPECS = [
    PropertySpec(Property.SAT),
    PropertySpec(Property.LIV, loop_bound=2),
    PropertySpec(Property.SAF, safety_pair=RUNNING_PAIR),
    PropertySpec(Property.SAF, safety_pair=RUNNING_PAIR, mode=TauMode.SKIP,
                 loop_bound=0),
]


def id_span(tree) -> int:
    """One more than the largest node id: the width of a mask over *tree*."""
    return 1 + max(node.node_id.index for node in iter_nodes(tree))


@st.composite
def trees(draw):
    """A random tree of up to 289 nodes: one random subtree or several
    under a Seq, Xor or And root, optionally cut by a coalition, so that
    removed taus occur, keeping the cut's node ids or renumbering them."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    parts = draw(st.sampled_from([1, 3, 12]))
    size = draw(st.sampled_from([3, 12, 24]))
    if parts == 1:
        tree = random_tree(rng, max_nodes=size)
    else:
        join = draw(st.sampled_from([seq, xor, par]))
        tree = assign_node_ids(join(*(random_tree(rng, size) for _ in range(parts))))
    cut = draw(st.sampled_from(["none", "keep ids", "renumber"]))
    if cut != "none":
        n = node_count(tree)
        kept = rng.getrandbits(n) | 1  # the root stays, so a tree remains
        tree = substitute(tree, Coalition(n, kept))
        if cut == "renumber":
            tree = assign_node_ids(tree)
    return tree


@settings(max_examples=80, deadline=None)
@given(tree=trees(), data=st.data())
def test_batch_fold_equals_reference_fold(tree, data):
    width = id_span(tree)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    count = data.draw(st.integers(0, 30))
    drawn = [0, (1 << width) - 1, *(rng.getrandbits(width) for _ in range(count))]
    masks = drawn + data.draw(st.lists(st.sampled_from(drawn), max_size=10))
    first = masks[: len(masks) // 2]  # a second batch then hits the cache in part
    for spec in SPECS:
        game = tree_game(tree, spec)
        expected = [fold_value(game, mask) for mask in masks]
        cache = ValueCache()
        assert evaluate_masks(tree, first, spec, cache) == expected[: len(first)]
        assert evaluate_masks(tree, masks, spec, cache) == expected, spec
        assert cache.total_queries == len(first) + len(masks)
        assert cache.distinct_queries == len(set(masks))


def test_batch_fold_beyond_64_nodes():
    rng = random.Random(7)
    tree = assign_node_ids(seq(*(random_tree(rng, 12) for _ in range(14))))
    n = node_count(tree)
    assert n > 64
    full = (1 << n) - 1
    masks = [full, 0, full >> 1, full & ~1, *(rng.getrandbits(n) for _ in range(200))]
    masks += [full ^ (1 << i) for i in range(n)]  # the top bits matter here
    for spec in SPECS:
        game = tree_game(tree, spec)
        assert evaluate_masks(tree, masks, spec) == [
            fold_value(game, mask) for mask in masks
        ], spec


def test_cached_batch_compiles_and_folds_nothing(monkeypatch, running_example_tree):
    tree = running_example_tree
    n = node_count(tree)
    rng = random.Random(3)
    masks = [rng.getrandbits(n) for _ in range(50)]
    for spec in RUNNING_SPECS:
        cache = ValueCache()
        expected = evaluate_masks(tree, masks, spec, cache)
        with monkeypatch.context() as patch:
            def refuse(*args):
                raise AssertionError("compiled or folded a batch the cache held")

            patch.setattr(oracle, "_automaton", refuse)
            patch.setattr(oracle, "_fold", refuse)
            again = masks[::-1] + masks[:5]
            assert evaluate_masks(tree, again, spec, cache) == [
                expected[masks.index(mask)] for mask in again
            ]
        assert cache.total_queries == 2 * len(masks) + 5
        assert cache.distinct_queries == len(set(masks))


@pytest.mark.parametrize("spec", RUNNING_SPECS,
                         ids=["sat", "liv", "saf", "saf-skip"])
def test_tables_built_once_per_spec(monkeypatch, running_example_tree, spec):
    folds = []
    fold = oracle._fold

    def counting_fold(*args):
        folds.append(1)
        return fold(*args)

    monkeypatch.setattr(oracle, "_fold", counting_fold)
    oracle._automaton.cache_clear()
    config = RunConfig(log_path="log.xes", method="mc", seed=1, permutations=300,
                       min_permutations=300)
    run_single(config, running_example_tree, 0.0, spec, 5)
    assert oracle._automaton.cache_info().misses == 1
    assert len(folds) > 1  # many batches, one compile
    run_single(config, running_example_tree, 0.5, spec, 6)
    assert oracle._automaton.cache_info().misses == 1
