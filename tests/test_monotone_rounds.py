"""The prover backend's rounds against asking for every form: decided
from the maximal forms down, sat and liv (monotone) and saf (antitone,
compared as 1 - v) batches give the oracle's verdict on every mask,
``rooted_shapley`` values ``Fraction``-equal to ``tree_shapley``'s, no
form handed to the prover twice and no more forms than the batch has; a
form the prover gives no verdict on settles no other form.  The prover
is ``StandIn``, an in-process replacement for
``logic_encoder.values_via_prover`` that answers from the reference fold."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from procshap import logic_encoder
from procshap.logic_encoder import ProverConfig
from procshap.oracle import (
    Property,
    PropertySpec,
    TauMode,
    ValueCache,
    row_masks,
)
from procshap.process_tree import (
    assign_node_ids,
    canonical_mask,
    iter_nodes,
    node_count,
    par,
    seq,
    xor,
)
from procshap.shapley import canonical_form_count, rooted_shapley, tree_shapley

from _corpus import corpus, random_tree
from _fold_ref import fold_value, verdicts_of_masks

UNUSED = ProverConfig(executable="unused")  # the stand-in starts no prover
MONOTONE = [
    PropertySpec(prop, mode=mode, loop_bound=bound)
    for prop, mode, bound in itertools.product(
        (Property.SAT, Property.LIV), TauMode, (0, 1, 2)
    )
]
SAF = [
    PropertySpec(Property.SAF, safety_pair=("a", "b"), mode=mode, loop_bound=bound)
    for mode, bound in itertools.product(TauMode, (0, 1, 2))
]


def rises(spec: PropertySpec) -> int:
    """The verdict that a super-form shares: 1 for the monotone sat and
    liv, 0 for saf, which adding a node never turns from 0 to 1."""
    return int(spec.prop is not Property.SAF)


def present_mask(tree_c) -> int:
    """The coalition a substituted tree keeps: its nodes but the removed taus."""
    return sum(
        1 << node.node_id.index for node in iter_nodes(tree_c) if not node.removed
    )


def silent_third(mask: int) -> bool:
    """A third of the forms, by a hash of the mask."""
    return hashlib.sha1(str(mask).encode()).digest()[0] % 3 == 0


class StandIn:
    """``values_via_prover`` in process: each form's value is the reference
    fold's verdict, or no verdict (0 and a warning naming the form) on
    the forms *silent* picks.  ``rounds`` holds the forms of every batch
    it was handed, in order."""

    def __init__(self, tree, silent=lambda mask: False) -> None:
        self.tree = tree
        self.silent = silent
        self.rounds: list[list[int]] = []

    def __call__(self, trees_c, spec, config, memo=None):
        masks = [present_mask(tree_c) for tree_c in trees_c]
        self.rounds.append(masks)
        return [
            (0, [f"no verdict on {mask:#x}"]) if self.silent(mask)
            else (fold_value(self.tree, spec, mask), [])
            for mask in masks
        ]

    @property
    def handed(self) -> list[int]:
        return [mask for masks in self.rounds for mask in masks]


def prove(tree, masks, spec, silent=lambda mask: False):
    """``evaluate_rows`` on the prover backend, asked with int masks, over a ``StandIn``: the
    values, the cache and the stand-in."""
    prover = StandIn(tree, silent)
    cache = ValueCache()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(logic_encoder, "values_via_prover", prover)
        values = verdicts_of_masks(tree, masks, spec, cache, UNUSED)
    return values, cache, prover


def forms_of(tree, masks) -> list[int]:
    """The distinct canonical forms of *masks*, in mask order."""
    return list(dict.fromkeys(canonical_mask(tree, mask) for mask in masks))


def check_handed(tree, masks, prover) -> None:
    """No form handed over twice, none outside the batch's forms, and each
    round in the batch's order."""
    position = {form: i for i, form in enumerate(forms_of(tree, masks))}
    handed = prover.handed
    assert len(handed) == len(set(handed))
    assert set(handed) <= position.keys()
    for masks_of_round in prover.rounds:
        assert masks_of_round == sorted(masks_of_round, key=position.__getitem__)


def canonical_forms(tree) -> list[int]:
    """Every canonical form of *tree*, as ``rooted_shapley`` asks for them."""
    forms: list[int] = []
    rooted_shapley(tree, lambda rows: forms.extend(row_masks(rows)) or [0] * len(rows))
    return forms


@st.composite
def trees(draw):
    """A random tree of up to 25 nodes and at most 3,000 canonical forms:
    one random subtree, or two or three under a Seq, Xor or And root."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    parts = draw(st.integers(1, 3))
    size = draw(st.sampled_from([4, 8, 12] if parts == 1 else [3, 6, 8]))
    if parts == 1:
        tree = random_tree(rng, max_nodes=size)
    else:
        join = draw(st.sampled_from([seq, xor, par]))
        tree = assign_node_ids(join(*(random_tree(rng, size) for _ in range(parts))))
    assume(canonical_form_count(tree) <= 3000)
    return tree


@settings(max_examples=40, deadline=None)
@given(tree=trees(), data=st.data())
def test_rounds_give_the_oracles_verdicts(tree, data):
    n = node_count(tree)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    masks = [rng.getrandbits(n) for _ in range(data.draw(st.integers(1, 40)))]
    masks += data.draw(st.lists(st.sampled_from(masks), max_size=10))  # repeats
    every_form = canonical_forms(tree)
    full = (1 << n) - 1
    for spec in MONOTONE + SAF:
        values, cache, prover = prove(tree, masks, spec)
        assert values == [fold_value(tree, spec, mask) for mask in masks], spec
        assert cache.total_queries == len(masks)
        assert cache.distinct_queries == len(forms_of(tree, masks))
        assert cache.warnings == []
        check_handed(tree, masks, prover)

        values, _, prover = prove(tree, every_form, spec)
        assert values == [fold_value(tree, spec, form) for form in every_form], spec
        check_handed(tree, every_form, prover)
        assert 0 in prover.rounds[0]
        if rises(spec) and spec.mode is TauMode.SKIP:
            assert prover.rounds == [[0, full]]  # every form wins: 0 settles all
        if not rises(spec) and fold_value(tree, spec, full):
            assert prover.rounds == [[0, full]]  # a safe full form settles all

        via_rounds = rooted_shapley(
            tree, lambda rows: prove(tree, row_masks(rows), spec)[0]
        )
        assert via_rounds.phi_exact == tree_shapley(tree, spec).phi_exact, spec


def test_no_verdict_settles_nothing():
    """On every form of a tree, and on half of them (so a form may be asked
    while larger forms above it are still undecided), each form not
    handed over is settled by a real verdict, in either direction."""
    silent_asked = 0
    inferred = dict.fromkeys(itertools.product(Property, (0, 1)), 0)
    for tree in [tree for tree in corpus(40, max_nodes=12, seed=12)
                 if node_count(tree) >= 5]:
        every_form = canonical_forms(tree)
        half = [form for form in every_form
                if hashlib.sha1(str(form).encode()).digest()[1] % 2]
        for forms in (every_form, half):
            for spec in MONOTONE + SAF:
                values, cache, prover = prove(tree, forms, spec, silent_third)
                check_handed(tree, forms, prover)
                value = dict(zip(forms, values))
                real = {
                    form: fold_value(tree, spec, form)
                    for form in prover.handed if not silent_third(form)
                }
                for form in forms:
                    if form in real:
                        assert value[form] == real[form]
                    elif form in prover.handed:  # no verdict: 0, and no inference
                        assert value[form] == 0
                    else:  # settled by a real verdict on a smaller form that
                        # rises (sat/liv 1, saf 0) or a larger one that does not
                        assert any(
                            (other & ~form if verdict == rises(spec) else form & ~other)
                            == 0
                            for other, verdict in real.items()
                            if verdict == value[form]
                        ), (tree, spec, form)
                        assert value[form] == fold_value(tree, spec, form)
                        inferred[spec.prop, value[form]] += 1
                silent = [form for form in forms
                          if form in prover.handed and silent_third(form)]
                assert cache.warnings == [f"no verdict on {form:#x}" for form in silent]
                silent_asked += len(silent)
    assert silent_asked and all(inferred.values()), inferred  # every case occurs
