"""The ``ValueCache`` against a model of what it should hold: one cache
per configuration, for sat, liv and saf on the oracle and on the prover
(``StandIn``), asked random batches with repeats and partial hits in
random sub-batches with the configurations interleaved, gives the
reference fold's verdicts, counts every coalition asked and every
distinct (canonical, on the prover) coalition once, and keeps warnings
in mask order.  Each cache is made for its configuration.
``get_or_compute``, which ``evaluate_rows`` itself never
calls, keeps every key apart from the prover's ``table``: neither
backend reads what it stored, whatever the key.  The oracle stores no
verdict: it folds every row and counts its distinct rows apart from
those entries."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from procshap import logic_encoder
from procshap.oracle import (
    Property,
    PropertySpec,
    TauMode,
    ValueCache,
)
from procshap.process_tree import node_count

from _corpus import random_tree
from _fold_ref import canonical_mask, fold_value, verdicts_of_masks
from test_monotone_rounds import UNUSED, StandIn

BACKENDS = ("oracle", "prover")


def specs(mode: TauMode, bound: int) -> list[PropertySpec]:
    return [
        PropertySpec(Property.SAT, mode=mode, loop_bound=bound),
        PropertySpec(Property.LIV, mode=mode, loop_bound=bound),
        PropertySpec(Property.SAF, safety_pair=("a", "b"), mode=mode, loop_bound=bound),
    ]


def silent(tree, backend: str, spec: PropertySpec, form: int) -> bool:
    """The forms the stand-in gives no verdict on: saf's forms whose answer
    is 1 and which hold more than half the nodes.  A form that contains
    one of them and answers 1 is one of them too, and a real 0 settles
    only super-forms, which answer 0, so no real verdict settles one of
    them: each is handed over and warns."""
    return (
        backend == "prover"
        and spec.prop is Property.SAF
        and form.bit_count() > node_count(tree) // 2
        and fold_value(tree, spec, form) == 1
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_caches_match_model(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    tree = random_tree(rng, max_nodes=data.draw(st.sampled_from([4, 8, 12])))
    n = node_count(tree)
    pool = [0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(12))]
    masks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(masks)), max_size=4)))
    batches = [masks[a:b] for a, b in zip([0, *cuts], [*cuts, len(masks)])]
    jobs = [
        (backend, spec)
        for backend in BACKENDS
        for spec in specs(data.draw(st.sampled_from(TauMode)), data.draw(st.integers(0, 2)))
    ]
    stand_ins = {
        (backend, spec): StandIn(tree, lambda form, b=backend, s=spec: silent(tree, b, s, form))
        for backend, spec in jobs
    }

    def key(backend: str, mask: int) -> int:
        return canonical_mask(tree, mask) if backend == "prover" else mask

    caches = {
        (backend, spec): ValueCache(tree, spec, UNUSED if backend == "prover" else None)
        for backend, spec in jobs
    }
    get_or_compute = ValueCache.get_or_compute
    model: dict[tuple, dict[int, int]] = {job: {} for job in jobs}
    folded: dict[tuple, set[int]] = {job: set() for job in jobs}  # oracle rows
    stored: dict[tuple, dict[int, int]] = {job: {} for job in jobs}  # get_or_compute's
    warnings: dict[tuple, list[str]] = {job: [] for job in jobs}
    asked = dict.fromkeys(jobs, 0)

    # Entries stored through get_or_compute, keyed by the form a table
    # would hold and with the verdict flipped, stay apart from the table:
    # evaluate_rows returns the stand-in's and the fold's verdicts.
    for job in jobs:
        backend, spec = job
        for mask in data.draw(st.lists(st.sampled_from(pool), max_size=3)):
            flipped = 1 - fold_value(tree, spec, mask)
            entry = key(backend, mask)
            value = get_or_compute(caches[job], entry, lambda flipped=flipped: flipped)
            assert stored[job].setdefault(entry, value) == value
            asked[job] += 1

    def refuse(*args):
        raise AssertionError("evaluate_rows called ValueCache.get_or_compute")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ValueCache, "get_or_compute", refuse)
        patch.setattr(
            logic_encoder, "values_via_prover",
            lambda trees_c, spec, config, memo=None: stand_ins[current](
                trees_c, spec, config, memo
            ),
        )
        for batch in batches:
            for current in data.draw(st.permutations(jobs)):
                backend, spec = current
                cache = caches[current]
                asked[current] += len(batch)
                if backend == "oracle":
                    folded[current].update(batch)
                    got = verdicts_of_masks(cache, batch)
                    assert got == [fold_value(tree, spec, mask) for mask in batch]
                    continue
                table = model[current]
                for form in dict.fromkeys(key(backend, mask) for mask in batch):
                    if form not in table:
                        table[form] = (0 if silent(tree, backend, spec, form)
                                       else fold_value(tree, spec, form))
                        if silent(tree, backend, spec, form):
                            warnings[current].append(f"no verdict on {form:#x}")
                got = verdicts_of_masks(cache, batch)
                assert got == [table[key(backend, mask)] for mask in batch], current

    for job, cache in caches.items():
        assert cache.total_queries == asked[job], job
        assert cache.distinct_queries == len(cache) == (
            len(stored[job]) + len(model[job]) + len(folded[job])
        ), job
        assert cache.table == model[job], job
        handed = stand_ins[job].handed
        assert len(handed) == len(set(handed))  # no form decided twice
        assert cache.warnings == warnings[job], job
        for entry, value in stored[job].items():
            assert get_or_compute(cache, entry, refuse) == value


def test_bare_keys_live_apart_from_mask_tables():
    cache = ValueCache()
    assert cache.get_or_compute("k", lambda: 1) == 1
    assert cache.get_or_compute(0, lambda: 0) == 0
    assert cache.get_or_compute((0, "oracle"), lambda: 1) == 1
    assert cache.get_or_compute("k", lambda: 0) == 1
    assert len(cache) == 3 and cache.total_queries == 4
    assert cache.table == {} and cache.verdicts == []
