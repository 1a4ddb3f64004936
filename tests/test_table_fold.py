"""The oracle's batch fold against the per-coalition reference fold
(``_fold_ref.fold_value`` over ``oracle._rules``): equal verdicts for every
property, tau mode and loop bound, on trees with removed taus and trees
of more than 64 nodes, for batches with repeated masks; equal cache
counters; the node program compiled once per cache and the tables once
per spec, not once per batch; malformed coalition matrices refused; and
the prover's canonical forms from one pass over the node program
(``oracle._forms``) equal to the recursive walk
(``_fold_ref.canonical_mask``), on cut trees whose ids have gaps too."""

from __future__ import annotations

import itertools
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procshap import oracle, shapley
from procshap.logic_encoder import ProverConfig
from procshap.oracle import (
    Property,
    PropertySpec,
    TauMode,
    ValueCache,
    coalition_rows,
    evaluate,
    evaluate_rows,
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
from procshap.reports import RunConfig, run_matrix, run_single

from _corpus import corpus, random_tree
from _fold_ref import canonical_mask, fold_value, verdicts_of_masks

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
        tree = substitute(tree, kept)
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
        expected = [fold_value(tree, spec, mask) for mask in masks]
        cache = ValueCache(tree, spec)
        assert verdicts_of_masks(cache, first) == expected[: len(first)]
        assert verdicts_of_masks(cache, masks) == expected, spec
        assert cache.total_queries == len(first) + len(masks)
        assert cache.distinct_queries == len(set(masks))


def forms_pass(tree, masks: list[int]) -> list[int]:
    """The canonical forms of *masks* by the prover's one pass over
    *tree*'s node program."""
    program = oracle._compile(tree, PropertySpec(Property.SAT))
    return oracle._forms(program, coalition_rows(masks, program[0]))


@settings(max_examples=80, deadline=None)
@given(tree=trees(), data=st.data())
def test_canonical_pass_equals_reference_walk(tree, data):
    width = id_span(tree)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    count = data.draw(st.integers(0, 30))
    drawn = [0, (1 << width) - 1, *(rng.getrandbits(width) for _ in range(count))]
    masks = drawn + data.draw(st.lists(st.sampled_from(drawn), max_size=10))
    assert forms_pass(tree, masks) == [canonical_mask(tree, mask) for mask in masks]


def test_canonical_pass_clears_the_ids_a_cut_tree_lacks():
    rng = random.Random(5)
    gapped = 0
    for tree in corpus(60, max_nodes=16, seed=71):
        cut = substitute(tree, rng.getrandbits(node_count(tree)) | 1)  # ids kept
        for t in (tree, cut):
            width = id_span(t)
            ids = sum(1 << node.node_id.index for node in iter_nodes(t))
            gap = (1 << width) - 1 & ~ids  # the ids *t* lacks
            gapped += gap != 0
            masks = [(1 << width) - 1, gap, *(rng.getrandbits(width) | gap for _ in range(20))]
            masks += masks[::3]  # repeats
            expected = [canonical_mask(t, mask) for mask in masks]
            assert all(form & gap == 0 for form in expected)
            assert forms_pass(t, masks) == expected
    assert gapped > 20


def test_batch_fold_beyond_64_nodes():
    rng = random.Random(7)
    tree = assign_node_ids(seq(*(random_tree(rng, 12) for _ in range(14))))
    n = node_count(tree)
    assert n > 64
    full = (1 << n) - 1
    masks = [full, 0, full >> 1, full & ~1, *(rng.getrandbits(n) for _ in range(200))]
    masks += [full ^ (1 << i) for i in range(n)]  # the top bits matter here
    for spec in SPECS:
        assert verdicts_of_masks(ValueCache(tree, spec), masks) == [
            fold_value(tree, spec, mask) for mask in masks
        ], spec


def test_program_compiled_once_per_cache(monkeypatch, running_example_tree):
    tree = running_example_tree
    n = node_count(tree)
    rng = random.Random(3)
    masks = [rng.getrandbits(n) for _ in range(50)]
    fold = oracle._fold
    for spec in RUNNING_SPECS:
        cache = ValueCache(tree, spec)
        expected = verdicts_of_masks(cache, masks)
        with monkeypatch.context() as patch:
            def refuse(*args):
                raise AssertionError("compiled again for a cache that holds the program")

            folds = []
            patch.setattr(oracle, "_automaton", refuse)
            patch.setattr(oracle, "_compile", refuse)
            patch.setattr(oracle, "_fold",
                          lambda program, rows: folds.append(len(rows)) or fold(program, rows))
            again = masks[::-1] + masks[:5]
            assert verdicts_of_masks(cache, again) == [
                expected[masks.index(mask)] for mask in again
            ]
            assert folds == [len(again)]  # every row folded, repeats too
        assert cache.total_queries == 2 * len(masks) + 5
        assert cache.distinct_queries == len(set(masks))


@pytest.mark.parametrize("backend", ["oracle", "prover"])
def test_malformed_coalition_matrix_refused(running_example_tree, backend):
    tree = running_example_tree
    n = node_count(tree)
    spec = RUNNING_SPECS[0]
    prover = object() if backend == "prover" else None  # never called
    bad = [
        np.ones((2, n - 1), dtype=np.uint8),  # too narrow
        np.ones((2, n + 1), dtype=np.uint8),  # too wide
        np.ones(n, dtype=np.uint8),  # rank 1
        np.ones((1, 2, n), dtype=np.uint8),  # rank 3
        np.full((2, n), 2, dtype=np.uint8),  # not 0/1
        -np.ones((2, n), dtype=np.int64),
        np.full((2, n), 0.5),
    ]
    for rows in bad:
        with pytest.raises(ValueError, match=rf"shape {re.escape(str(rows.shape))}"):
            evaluate_rows(ValueCache(tree, spec, prover), rows)
    cache = ValueCache(tree, spec)
    assert evaluate_rows(cache, np.ones((2, n), dtype=bool)).tolist() == [1, 1]
    # An int mask with a bit past the tree is refused, not cut to the tree.
    for mask in (1 << n, -1):
        with pytest.raises(ValueError, match="past player"):
            coalition_rows([mask], n)
    with pytest.raises(ValueError, match=rf"shape \(1, {n + 1}\)"):
        evaluate(tree, Coalition.full(n + 1), spec)
    assert cache.total_queries == 2


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


@pytest.mark.parametrize("method, backend", [
    ("exact", "oracle"), ("mc", "oracle"), ("rs", "oracle"), ("exact", "prover"),
])
def test_program_compiled_once_per_configuration(monkeypatch, running_example_file,
                                                  method, backend):
    """``run_matrix`` compiles each configuration's node program once:
    ``tree_shapley`` for exact values on the oracle, the configuration's
    ``ValueCache`` for every other estimator and backend."""
    compiled = []
    compile_program = oracle._compile

    def counting_compile(tree, spec):
        compiled.append(spec)
        return compile_program(tree, spec)

    for module in (oracle, shapley):
        monkeypatch.setattr(module, "_compile", counting_compile)
    prover = ProverConfig(executable=sys.executable,
                          extra_args=(str(Path(__file__).parent / "fake_prover.py"),))
    config = RunConfig(
        log_path=str(running_example_file),
        noise_levels=(0.0,) if backend == "prover" else (0.0, 1.0),
        properties=tuple(RUNNING_SPECS[:3]),
        method=method, seed=1, permutations=50, min_permutations=50,
        samples_per_player=5,
        prover=prover if backend == "prover" else None,
    )
    report = run_matrix(config)
    assert [r["error"] for r in report.configurations] == [None] * len(report.configurations)
    assert compiled == [spec for _ in config.noise_levels for spec in config.properties]
