"""The prover backend's rounds against asking for every form: decided
from the maximal forms down, sat and liv (monotone) and saf (antitone,
compared as 1 - v) batches give the oracle's verdict on every mask,
``rooted_shapley`` values ``Fraction``-equal to ``tree_shapley``'s, no
form handed to the prover twice and no more forms than the batch has; a
form the prover gives no verdict on settles no other form.  Consecutive
batches over one cache settle forms from the real verdicts of earlier
batches as from their own: no form a real verdict already settles is
handed over, and no warned result settles a form in a later batch.  The
prover is ``StandIn``, an in-process replacement for
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


def settles(spec: PropertySpec, mask: int, verdict: int, form: int) -> bool:
    """Whether a real *verdict* on *mask* settles *form*: one that rises
    settles the super-forms of *mask*, any other its sub-forms."""
    return (mask & ~form if verdict == rises(spec) else form & ~mask) == 0


def present_mask(tree_c) -> int:
    """The coalition a substituted tree keeps: its nodes but the removed taus."""
    return sum(
        1 << node.node_id.index for node in iter_nodes(tree_c) if not node.removed
    )


def never(mask: int) -> bool:
    return False


def silent_third(mask: int) -> bool:
    """A third of the forms, by a hash of the mask."""
    return hashlib.sha1(str(mask).encode()).digest()[0] % 3 == 0


class StandIn:
    """``values_via_prover`` in process: each form's value is the reference
    fold's verdict, or no verdict (0 and a warning naming the form) on
    the forms *silent* picks.  ``rounds`` holds the forms of every batch
    it was handed, in order."""

    def __init__(self, tree, silent=never) -> None:
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


def prove_in_batches(tree, batches, spec, silent=never):
    """``evaluate_rows`` on the prover backend, asked with the int masks of
    each of *batches* in turn over one cache and one ``StandIn``: the
    values of every batch in order, the cache, the stand-in and, per
    batch, the index in ``rounds`` of its first round."""
    prover = StandIn(tree, silent)
    cache = ValueCache()
    values: list[int] = []
    starts: list[int] = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(logic_encoder, "values_via_prover", prover)
        for masks in batches:
            starts.append(len(prover.rounds))
            values += verdicts_of_masks(tree, masks, spec, cache, UNUSED)
    return values, cache, prover, starts


def prove(tree, masks, spec, silent=never):
    """``prove_in_batches`` with one batch: the values, the cache and the
    stand-in."""
    return prove_in_batches(tree, [masks], spec, silent)[:3]


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
                            settles(spec, other, verdict, form)
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


def test_earlier_batches_settle_later_ones():
    """A tree's masks split into random consecutive sub-batches over one
    cache and one stand-in, as the samplers' rotation blocks are: the
    oracle's verdicts, no form handed over twice, none handed over that
    a real verdict of an earlier round, of its batch or an earlier one,
    settles, and each round in its batch's order.  Under a silent
    stand-in, each form a batch neither held before nor handed over is
    settled by a real verdict of that batch or an earlier one, so no
    warned result settles a form in a later batch."""
    rng = random.Random(27)
    across = dict.fromkeys(itertools.product(Property, (0, 1)), 0)
    for tree in [tree for tree in corpus(40, max_nodes=12, seed=27)
                 if node_count(tree) >= 5]:
        n = node_count(tree)
        masks = [rng.getrandbits(n) for _ in range(50)]
        masks += rng.choices(masks, k=10)  # repeats, in this batch or another
        rng.shuffle(masks)
        cuts = sorted(rng.sample(range(1, len(masks)), rng.randint(1, 6)))
        batches = [masks[a:b] for a, b in zip([0, *cuts], [*cuts, len(masks)])]
        for spec, silent in itertools.product(MONOTONE + SAF, (never, silent_third)):
            values, cache, prover, starts = prove_in_batches(tree, batches, spec, silent)
            handed = prover.handed
            assert len(handed) == len(set(handed))
            assert values == [
                0 if silent(form) and form in handed else fold_value(tree, spec, form)
                for form in (canonical_mask(tree, mask) for mask in masks)
            ], (tree, spec)

            real: list[tuple[int, int]] = []  # the real verdicts, round by round
            known = [0]  # per round, how many of them came before it
            for forms in prover.rounds:
                for form in forms:
                    assert not any(settles(spec, m, v, form) for m, v in real), (
                        tree, spec, form)
                real += [(form, fold_value(tree, spec, form))
                         for form in forms if not silent(form)]
                known.append(len(real))

            held: set[int] = set()
            warnings = []
            for batch, start, end in zip(batches, starts, [*starts[1:], len(prover.rounds)]):
                forms = [form for form in forms_of(tree, batch) if form not in held]
                held.update(forms)
                position = {form: i for i, form in enumerate(forms)}
                for round_ in prover.rounds[start:end]:
                    assert round_ == sorted(round_, key=position.__getitem__)
                asked = {form for round_ in prover.rounds[start:end] for form in round_}
                warnings += [f"no verdict on {form:#x}" for form in forms
                             if form in asked and silent(form)]
                own = real[known[start]: known[end]]
                for form in forms:
                    if form in asked:
                        continue
                    value = fold_value(tree, spec, form)
                    assert any(settles(spec, m, v, form) for m, v in real[: known[end]]
                               if v == value), (tree, spec, form)
                    if not any(settles(spec, m, v, form) for m, v in own if v == value):
                        across[spec.prop, value] += 1
            assert cache.warnings == warnings, (tree, spec)
    assert all(across.values()), across  # earlier batches settle every case
