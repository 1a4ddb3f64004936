from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from procshap.event_log import EventLog, Trace, Event, dfg_from_sequences
from procshap.miner import MinerConfig, discover, filter_dfg
from procshap.process_tree import (
    Op,
    iter_nodes,
    node_count,
    trace_language,
    tree_to_text,
)

from _corpus import distinct_label_tree, random_tree
from _miner_lists import discover_lists

NOISE_LEVELS = (0.0, 0.1, 0.25, 0.5, 1.0)


def log_of(*sequences: tuple[str, ...]) -> EventLog:
    return EventLog(
        traces=tuple(
            Trace(case_id=str(i), events=tuple(Event(a) for a in s))
            for i, s in enumerate(sequences)
        )
    )


def test_filter_removes_weak_edges():
    dfg = dfg_from_sequences([])
    dfg.edge_freq = {("a", "b"): 10, ("a", "c"): 1}
    out = filter_dfg(dfg, 0.2)
    assert out.edge_freq == {("a", "b"): 10}


def test_filter_noise_zero_is_identity():
    dfg = dfg_from_sequences([("a", "b"), ("a", "c"), ("b", "c")])
    out = filter_dfg(dfg, 0.0)
    assert out.edge_freq == dfg.edge_freq
    assert out.start_freq == dfg.start_freq
    assert out.end_freq == dfg.end_freq


def test_filter_noise_one_keeps_only_maxima():
    dfg = dfg_from_sequences([])
    dfg.edge_freq = {("a", "b"): 3, ("a", "c"): 1, ("b", "a"): 2, ("b", "c"): 2}
    out = filter_dfg(dfg, 1.0)
    assert out.edge_freq == {("a", "b"): 3, ("b", "a"): 2, ("b", "c"): 2}


def test_filter_applies_to_start_end_multisets():
    dfg = dfg_from_sequences(
        [("a", "x"), ("a", "x"), ("a", "x"), ("b", "y")]
    )
    out = filter_dfg(dfg, 0.5)
    assert out.start_freq == {"a": 3}  # b:1 < 0.5 * 3
    assert out.end_freq == {"x": 3}


def test_filter_preserves_activity_totals():
    dfg = dfg_from_sequences([("a", "b"), ("a", "c")])
    out = filter_dfg(dfg, 1.0)
    assert out.activity_freq == dfg.activity_freq


def test_discover_sequence():
    tree = discover(log_of(("a", "b"), ("a", "b")))
    assert trace_language(tree) == {("a", "b")}


def test_discover_choice():
    tree = discover(log_of(("a",), ("b",)))
    assert trace_language(tree) == {("a",), ("b",)}


def test_discover_parallel():
    tree = discover(log_of(("a", "b"), ("b", "a")))
    assert trace_language(tree) == {("a", "b"), ("b", "a")}


def test_discover_empty_log_is_tau():
    tree = discover(EventLog())
    assert tree.is_leaf and tree.is_tau and not tree.removed


def test_discover_loop():
    tree = discover(log_of(("a",), ("a", "b", "a")))
    ops = [n.op for n in iter_nodes(tree) if n.op is not None]
    assert Op.LOOP in ops
    assert {("a",), ("a", "b", "a")} <= set(trace_language(tree, bound=2))


def test_discover_optional_activity():
    tree = discover(log_of(("a",), ("a", "b")))
    assert trace_language(tree) == {("a",), ("a", "b")}


def test_discover_loop_with_two_redo_parts():
    # two disconnected redo behaviors collapse into an Xor redo child,
    # keeping Loop binary
    log = log_of(("a",), ("a", "b", "a"), ("a", "c", "a"))
    tree = discover(log)
    loops = [n for n in iter_nodes(tree) if n.op is Op.LOOP]
    assert len(loops) == 1
    redo = loops[0].children[1]
    assert redo.op is Op.XOR and len(redo.children) == 2
    lang = trace_language(tree, bound=1)
    assert {("a",), ("a", "b", "a"), ("a", "c", "a")} <= set(lang)


def test_depth_guard_yields_flower():
    log = log_of(("a", "b"), ("b", "a"), ("a",), ("b", "b"))
    tree = discover(log, MinerConfig(noise=0.0, max_depth=1))
    # the guard fires below the root and falls through to a flower
    # (Loop with a tau redo) instead of erroring out
    flowers = [
        n
        for n in iter_nodes(tree)
        if n.op is Op.LOOP and n.children[1].is_tau and not n.children[1].removed
    ]
    assert flowers
    lang = trace_language(tree, bound=4)
    assert all(s in lang for s in log.activity_sequences())


def test_block_structure_invariants():
    rng = random.Random(42)
    for _ in range(30):
        tree = distinct_label_tree(rng, depth=3)
        log = EventLog(
            traces=tuple(
                Trace(case_id=str(i), events=tuple(Event(a) for a in s))
                for i, s in enumerate(sorted(trace_language(tree, bound=0)))
            )
        )
        mined = discover(log)
        for node in iter_nodes(mined):
            if node.op is Op.LOOP:
                assert len(node.children) == 2
            elif node.op is not None:
                assert len(node.children) >= 1


@pytest.mark.parametrize("seed", range(40))
def test_rediscovery_language_equality(seed):
    # Loop-free trees with distinct labels are rediscovered up to
    # language equality at noise 0.
    rng = random.Random(seed)
    tree = distinct_label_tree(rng, depth=3)
    language = trace_language(tree, bound=0, guard=10**5)
    log = log_of(*sorted(language))
    mined = discover(log, MinerConfig(noise=0.0))
    assert trace_language(mined, bound=0, guard=10**5) == language


def test_fitness_at_zero_noise(running_example_log):
    tree = discover(running_example_log, MinerConfig(noise=0.0))
    lang = trace_language(tree, bound=3)
    for s in running_example_log.activity_sequences():
        assert s in lang


def test_running_example_canonical_tree(running_example_tree):
    # The classic request-handling log mines to the well-known shape:
    # Seq(register, Loop(Seq(And(check, Xor(casually, thoroughly)),
    # decide), reinitiate), Xor(pay, reject)).
    texts = [n.node_id.text for n in iter_nodes(running_example_tree)]
    assert texts == [
        "Seq3@0",
        "register request@1",
        "Loop2@2",
        "Seq2@3",
        "And2@4",
        "check ticket@5",
        "Xor2@6",
        "examine casually@7",
        "examine thoroughly@8",
        "decide@9",
        "reinitiate request@10",
        "Xor2@11",
        "pay compensation@12",
        "reject request@13",
    ]


def test_discovery_deterministic(running_example_log):
    config = MinerConfig(noise=0.25)
    assert discover(running_example_log, config) == discover(
        running_example_log, config
    )


def test_noise_sweep_always_succeeds(running_example_log):
    for noise in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
        tree = discover(running_example_log, MinerConfig(noise=noise))
        assert node_count(tree) >= 1


def test_miner_config_validation():
    with pytest.raises(ValueError):
        MinerConfig(noise=1.5)
    with pytest.raises(ValueError):
        MinerConfig(noise=0.0, max_depth=0)


# --- variant -> count discovery against the trace-list reference ----------


def assert_mines_like_trace_lists(log: EventLog, max_depth: int = 64) -> None:
    for noise in NOISE_LEVELS:
        config = MinerConfig(noise=noise, max_depth=max_depth)
        assert tree_to_text(discover(log, config)) == tree_to_text(
            discover_lists(log, config)
        ), (noise, max_depth)


@given(
    st.lists(st.lists(st.sampled_from("abcde"), max_size=7).map(tuple), max_size=25),
    st.sampled_from([1, 2, 3, 64]),
)
@settings(max_examples=150, deadline=None)
def test_variant_counts_mine_like_trace_lists(sequences, max_depth):
    assert_mines_like_trace_lists(log_of(*sequences), max_depth)


@given(st.integers(0, 10**6), st.integers(1, 60))
@settings(max_examples=100, deadline=None)
def test_variant_counts_mine_like_trace_lists_on_tree_logs(seed, traces):
    # Traces drawn with repetition from a random tree's bounded language,
    # so sub-logs carry duplicates through every kind of cut.
    rng = random.Random(seed)
    tree = random_tree(rng, max_nodes=12, allow_taus=False)
    language = sorted(trace_language(tree, bound=1, guard=10**4))
    log = log_of(*(rng.choice(language) for _ in range(traces)))
    assert_mines_like_trace_lists(log)


def test_variant_counts_mine_like_trace_lists_on_bundled_log(running_example_log):
    assert_mines_like_trace_lists(running_example_log)
