"""The batched samplers against the per-query references in
``_sampling_ref``: equal estimates, checkpoints and ``delta_max`` on
random tables, with the same coalitions asked in the same order, and
equal ``run_single`` records, cache counters and warnings included, on
both backends.  Also the number of batches: MC asks 1 + blocks (+2 for
the veto step), RS asks once, and each ``evaluate_rows`` call runs the
oracle's table fold once; and on a tree of more than 64 nodes, whose
packed rows take two words, the folded verdicts equal the reference
fold and ``distinct_queries`` the number of distinct masks."""

from __future__ import annotations

import random
import sys

import pytest

from procshap import oracle, reports
from procshap.oracle import (
    Property,
    PropertySpec,
    TauMode,
    ValueCache,
    coalition_rows,
    evaluate_rows,
    row_masks,
)
from procshap.process_tree import (
    Coalition,
    activity,
    assign_node_ids,
    iter_nodes,
    seq,
    xor,
)
from procshap.logic_encoder import ProverConfig
from procshap.reports import RunConfig, run_single
from procshap.shapley import Game, mc_permutation_shapley, rs_subset_shapley

from _corpus import random_boolean_game_table, random_tree, threshold_game_table
from _fold_ref import fold_value
from _sampling_ref import mc_per_query, rs_per_query, verdicts_of
from test_logic_encoder import FAKE_PROVER

SAF_PAIR = ("pay compensation", "reject request")
SPECS = (
    PropertySpec(Property.SAT),
    PropertySpec(Property.LIV),
    PropertySpec(Property.SAF, safety_pair=SAF_PAIR),
    PropertySpec(Property.SAT, mode=TauMode.SKIP),  # records a warning
)


def counted(verdicts):
    """*verdicts*, and the list of batches it is asked for, each row
    converted to its mask."""
    batches: list[list[int]] = []

    def ask(rows):
        batches.append(row_masks(rows))
        return verdicts(rows)

    return ask, batches


def logged(game: Game) -> tuple[Game, list[int]]:
    """*game*, and the list of masks it is asked for, in order."""
    asked: list[int] = []

    def value(coalition):
        asked.append(coalition.mask)
        return game.value_of_mask(coalition.mask)

    return Game(game.n, value), asked


def random_table_games(seed: int, count: int):
    rng = random.Random(seed)
    for trial in range(count):
        n = rng.randint(1, 7)
        make = threshold_game_table if trial % 2 else random_boolean_game_table
        table = make(rng, n)
        yield rng, trial, table, Game(n, lambda c, table=table: table[c.mask])


@pytest.mark.parametrize("monotone", [False, True])
def test_mc_equals_per_query_reference_on_random_tables(monotone):
    stopped = set()
    for rng, trial, table, game in random_table_games(60 + monotone, 60):
        n = game.n
        kw = dict(
            permutations=rng.randint(1, 600), seed=trial,
            checkpoint_every=rng.choice([1, 10, 100]),
            epsilon=rng.choice([0.0, 0.05, 0.3]),
            min_permutations=rng.randint(0, 300), monotone=monotone,
        )
        reference, asked = logged(game)
        expected, expected_report = mc_per_query(reference, **kw)
        verdicts, batches = counted(verdicts_of(game))
        estimate, report = mc_permutation_shapley(n, verdicts, **kw)

        assert estimate == expected
        assert report.checkpoints == expected_report.checkpoints
        assert report.delta_max == expected_report.delta_max
        assert [mask for batch in batches for mask in batch] == asked
        blocks = estimate.samples[0] // n
        veto_step = (1 + table[(1 << n) - 1]) if monotone else 0
        assert len(batches) == 1 + blocks + veto_step
        assert all(len(batch) == n * n for batch in batches[1 : 1 + blocks])
        stopped.add(blocks < max(1, kw["permutations"] // n))
    assert stopped == {False, True}  # early stop missed and hit


def test_rs_equals_per_query_reference_on_random_tables():
    for rng, trial, _, game in random_table_games(77, 40):
        samples = rng.randint(1, 30)
        reference, asked = logged(game)
        expected = rs_per_query(reference, samples, seed=trial)
        verdicts, batches = counted(verdicts_of(game))
        assert rs_subset_shapley(game.n, verdicts, samples, seed=trial) == expected
        assert batches == [asked]


def per_query_samplers(monkeypatch) -> None:
    """Make ``run_single`` sample with the per-query references, each
    query a batch of one through the same ``verdicts``."""

    def one_at_a_time(n, verdicts):
        return Game(n, lambda c: verdicts(coalition_rows([c.mask], n))[0])

    monkeypatch.setattr(reports, "mc_permutation_shapley",
                        lambda n, verdicts, **kw: mc_per_query(
                            one_at_a_time(n, verdicts), **kw))
    monkeypatch.setattr(reports, "rs_subset_shapley",
                        lambda n, verdicts, **kw: rs_per_query(
                            one_at_a_time(n, verdicts), **kw))


def records(config: RunConfig, tree, specs, monkeypatch) -> tuple[list, list]:
    """``run_single`` records per spec, batched and then per query."""
    batched = [run_single(config, tree, 0.0, spec, 5) for spec in specs]
    with monkeypatch.context() as patch:
        per_query_samplers(patch)
        reference = [run_single(config, tree, 0.0, spec, 5) for spec in specs]
    return batched, reference


@pytest.mark.parametrize(
    "method, permutations, epsilon",
    [("mc", 600, 0.01), ("mc", 300, 0.0), ("rs", 0, 0.0)],
    ids=["mc-early-stop", "mc-full-budget", "rs"],
)
def test_run_single_oracle_equals_per_query(
    running_example_tree, monkeypatch, method, permutations, epsilon
):
    config = RunConfig(log_path="log.xes", method=method, seed=1,
                       permutations=permutations or 2000, min_permutations=200,
                       epsilon=epsilon, samples_per_player=30)
    batched, reference = records(config, running_example_tree, SPECS, monkeypatch)
    assert batched == reference
    assert batched[-1]["cache"]["warnings"]  # the skip-mode warning
    if method == "mc":
        budget = [max(1, permutations // r["node_count"]) * r["node_count"]
                  for r in batched]
        samples = [r["method"]["samples"] for r in batched]
        stopped = [s < b for s, b in zip(samples, budget)]
        assert any(stopped) if epsilon else not any(stopped)


def silent_on(*statuses: str) -> str:
    """A prover script that answers like fake_prover.py, except that it
    gives no verdict where the answer is one of *statuses*."""
    return f"""import contextlib, io, runpy, sys
sys.argv = [{FAKE_PROVER!r}, *sys.argv[1:]]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        runpy.run_path({FAKE_PROVER!r}, run_name='__main__')
    except SystemExit:
        pass
text = out.getvalue()
print('no verdict' if any(s in text for s in {statuses!r}) else text)
"""


# sat and liv give no verdict where the answer is 0 (Unsatisfiable or
# CounterSatisfiable), saf where it is 1 (Theorem).  The rounds then
# infer only from a real verdict that never turns back (sat's or liv's
# 1, saf's 0), and they settle only forms that share it.  So every form
# that warns is asked whatever the batches, and a batched run can equal
# a per-query one.  (From a real verdict of the other kind the rounds
# settle forms that warn when asked alone.)
@pytest.mark.parametrize("method", ["mc", "rs"])
def test_run_single_prover_equals_per_query(tmp_path, monkeypatch, method):
    tree = assign_node_ids(seq(activity("a"), xor(activity("b"), activity("c"))))
    for name, body, specs in [
        ("negatives_silent.py", silent_on("Unsatisfiable", "CounterSatisfiable"),
         (PropertySpec(Property.SAT), PropertySpec(Property.LIV))),
        ("theorems_silent.py", silent_on("Theorem"),
         (PropertySpec(Property.SAF, safety_pair=("a", "b")),)),
    ]:
        path = tmp_path / name
        path.write_text(body)
        prover = ProverConfig(executable=sys.executable, extra_args=(str(path),),
                              timeout_s=30)
        config = RunConfig(log_path="log.xes", method=method,
                           prover=prover, seed=1, permutations=20,
                           min_permutations=20, samples_per_player=6)
        batched, reference = records(config, tree, specs, monkeypatch)
        assert batched == reference
        assert all(r["cache"]["warnings"] for r in batched)


def test_run_single_batches_and_folds(running_example_tree, monkeypatch):
    """MC asks 1 + blocks + 2 batches on the monotone sat game (v(N) = 1),
    each ``evaluate_rows`` call runs one ``_fold`` over all its rows, and
    neither a ``Game`` nor a ``Coalition`` is built."""

    calls, folds, built = [], [], []
    evaluate_rows, fold = reports.evaluate_rows, oracle._fold

    def counting_evaluate_rows(cache, rows):
        before = len(folds)
        values = evaluate_rows(cache, rows)
        calls.append(len(rows))
        assert folds[before:] == [len(rows)]
        return values

    def counting_fold(program, rows):
        folds.append(len(rows))
        return fold(program, rows)

    monkeypatch.setattr(reports, "evaluate_rows", counting_evaluate_rows)
    monkeypatch.setattr(oracle, "_fold", counting_fold)
    for cls in (Game, Coalition):
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, name=cls.__name__: built.append(name))

    config = RunConfig(log_path="log.xes", method="mc", seed=1, permutations=300,
                       min_permutations=300)
    record = run_single(config, running_example_tree, 0.0, SPECS[0], 5)
    n = record["node_count"]
    blocks = record["method"]["samples"] // n
    assert blocks == 300 // n
    assert calls == [1, *[n * n] * blocks, 1, n]
    assert folds == calls

    calls.clear()
    folds.clear()
    config = RunConfig(log_path="log.xes", method="rs", seed=1, samples_per_player=9)
    run_single(config, running_example_tree, 0.0, SPECS[2], 5)
    assert calls == folds == [2 * 9 * n]
    assert built == []


@pytest.mark.parametrize("spec", SPECS[:3], ids=["sat", "liv", "saf"])
def test_mc_beyond_64_nodes_counts_distinct_masks(spec):
    tree = random_tree(random.Random(16), max_nodes=100)
    n = sum(1 for _ in iter_nodes(tree))
    assert 64 < n <= 100
    cache = ValueCache(tree, spec)
    asked, values = [], []

    def verdicts(rows):
        got = evaluate_rows(cache, rows)
        asked.extend(row_masks(rows))
        values.extend(got.tolist())
        return got

    mc_permutation_shapley(n, verdicts, permutations=2 * n, seed=3,
                           min_permutations=2 * n, monotone=True)
    assert values == [fold_value(tree, spec, mask) for mask in asked]
    assert cache.total_queries == len(asked)
    assert cache.distinct_queries == len(cache) == len(set(asked)) < len(asked)
