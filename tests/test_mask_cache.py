"""The mask-keyed ``ValueCache`` against a model of what it should hold:
one shared cache serving sat, liv and saf on the oracle and on the prover
(``StandIn``), asked random batches with repeats and partial hits in
random sub-batches, gives the reference fold's verdicts, counts every
mask asked and every distinct (canonical, on the prover) mask once per
spec, keeps warnings in mask order, and shares its entries with
``get_or_compute`` both ways, which ``evaluate_masks`` itself never
calls."""

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
    evaluate_masks,
    tree_game,
)
from procshap.process_tree import canonical_mask, node_count

from _corpus import random_tree
from _fold_ref import fold_value
from test_monotone_rounds import UNUSED, StandIn, silent_third

BACKENDS = ("oracle", "prover")


def specs(mode: TauMode, bound: int) -> list[PropertySpec]:
    return [
        PropertySpec(Property.SAT, mode=mode, loop_bound=bound),
        PropertySpec(Property.LIV, mode=mode, loop_bound=bound),
        PropertySpec(Property.SAF, safety_pair=("a", "b"), mode=mode, loop_bound=bound),
    ]


def silent(backend: str, spec: PropertySpec, form: int) -> bool:
    """The forms the stand-in gives no verdict on: a third of saf's, whose
    forms are all handed over, so no inference hides a warning."""
    return backend == "prover" and spec.prop is Property.SAF and silent_third(form)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_shared_cache_matches_model(data):
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
    games = {spec: tree_game(tree, spec) for _, spec in jobs}
    stand_ins = {
        (backend, spec): StandIn(tree, lambda form, b=backend, s=spec: silent(b, s, form))
        for backend, spec in jobs
    }

    def key(backend: str, mask: int) -> int:
        return canonical_mask(tree, mask) if backend == "prover" else mask

    def suffix(backend: str, spec: PropertySpec) -> tuple:
        return (backend,) + spec.cache_key()

    cache = ValueCache()
    get_or_compute = ValueCache.get_or_compute
    model: dict[tuple, dict[int, int]] = {suffix(*job): {} for job in jobs}
    warnings: list[str] = []
    asked = 0

    # Entries stored through get_or_compute, with the verdict flipped, are
    # what evaluate_masks must return for them: it reads them, not a fold.
    for backend, spec in jobs:
        for mask in data.draw(st.lists(st.sampled_from(pool), max_size=3)):
            stored = 1 - fold_value(games[spec], mask)
            value = get_or_compute(cache, (key(backend, mask),) + suffix(backend, spec),
                                   lambda stored=stored: stored)
            model[suffix(backend, spec)].setdefault(key(backend, mask), value)
            asked += 1

    def refuse(*args):
        raise AssertionError("evaluate_masks called ValueCache.get_or_compute")

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
                table = model[suffix(*current)]
                for form in dict.fromkeys(key(backend, mask) for mask in batch):
                    if form not in table:
                        table[form] = (0 if silent(backend, spec, form)
                                       else fold_value(games[spec], form))
                        if silent(backend, spec, form):
                            warnings.append(f"no verdict on {form:#x}")
                got = evaluate_masks(tree, batch, spec, cache, backend, UNUSED)
                assert got == [table[key(backend, mask)] for mask in batch], current
                asked += len(batch)

    assert cache.total_queries == asked
    assert cache.distinct_queries == len(cache) == sum(map(len, model.values()))
    for job in jobs:
        assert cache.table(suffix(*job)) == model[suffix(*job)], job
        handed = stand_ins[job].handed
        assert len(handed) == len(set(handed))  # no form decided twice
    assert cache.warnings == warnings

    for table_suffix, table in model.items():
        for mask, value in table.items():
            assert (mask,) + table_suffix in cache
            assert get_or_compute(cache, (mask,) + table_suffix, refuse) == value


def test_bare_keys_live_apart_from_mask_tables():
    cache = ValueCache()
    assert cache.get_or_compute("k", lambda: 1) == 1
    assert cache.get_or_compute(0, lambda: 0) == 0
    assert "k" in cache and 0 in cache and len(cache) == 2
    assert (0, "oracle") not in cache
    assert cache.table(()) == {"k": 1, 0: 0}
