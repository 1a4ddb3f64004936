"""The miner's bitset cuts against the graph-traversal reference in
``_cuts_ref``, on random directly-follows graphs and on every sub-log
graph that mining the corpus and the bundled log meets.  The cuts are
reached through ``_miner_lists.named_cut``, which builds the bitset graph
and names the groups."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from procshap import miner
from procshap.event_log import DirectlyFollowsGraph, EventLog
from procshap.miner import MinerConfig, discover

import _cuts_ref
from _corpus import corpus
from _language import trace_language
from _miner_lists import named_cut
from test_miner import NOISE_LEVELS

CUTS = ("_xor_cut", "_sequence_cut", "_parallel_cut", "_loop_cut")


@st.composite
def dfgs(draw) -> tuple[list[str], DirectlyFollowsGraph]:
    """A graph over 1-12 activities.  Edges to later activities and to
    earlier ones (self-loops included) have separate densities, so chains
    for the sequence cut and dense two-way graphs for the parallel cut both
    turn up; start and end sets are random or empty."""
    alphabet = [chr(ord("a") + i) for i in range(draw(st.integers(1, 12)))]
    forward = draw(st.sampled_from([0.0, 0.15, 0.4, 0.8, 1.0]))
    backward = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = {
        (a, b): rng.randint(1, 9)
        for i, a in enumerate(alphabet)
        for j, b in enumerate(alphabet)
        if rng.random() < (forward if i < j else backward)
    }

    def ends() -> dict[str, int]:
        share = draw(st.sampled_from([0.0, 0.3, 1.0]))
        return {a: 1 for a in alphabet if rng.random() < share}

    return alphabet, DirectlyFollowsGraph(edges, ends(), ends())


def reaches(dfg: DirectlyFollowsGraph, a: str, b: str) -> bool:
    """A path of one or more edges from *a* to *b*."""
    seen, frontier = set(), [a]
    while frontier:
        x = frontier.pop()
        for source, target in dfg.edge_freq:
            if source == x and target not in seen:
                seen.add(target)
                frontier.append(target)
    return b in seen


def assert_cuts_match_reference(alphabet: list[str], dfg: DirectlyFollowsGraph) -> None:
    for name in CUTS:
        assert named_cut(getattr(miner, name), alphabet, dfg) == getattr(
            _cuts_ref, name
        )(alphabet, dfg), (name, alphabet, dfg)


@given(dfgs())
@settings(max_examples=600, deadline=None)
def test_cuts_match_reference_on_random_graphs(graph):
    assert_cuts_match_reference(*graph)


@given(dfgs())
@settings(max_examples=300, deadline=None)
def test_sequence_groups_form_a_chain(graph):
    alphabet, dfg = graph
    groups = named_cut(miner._sequence_cut, alphabet, dfg)
    if groups is None:
        return
    for i, earlier in enumerate(groups):
        for later in groups[i + 1:]:
            for a in earlier:
                for b in later:
                    assert reaches(dfg, a, b) and not reaches(dfg, b, a), (groups, a, b)


def mined_graphs(log: EventLog) -> list[tuple[list[str], DirectlyFollowsGraph]]:
    """Every (alphabet, filtered graph) that ``discover`` tries cuts on,
    at each of ``NOISE_LEVELS``."""
    seen = []
    graph = miner._graph

    def record(alphabet, dfg):
        seen.append((alphabet, dfg))
        return graph(alphabet, dfg)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(miner, "_graph", record)
        for noise in NOISE_LEVELS:
            discover(log, MinerConfig(noise=noise))
    return seen


def corpus_logs() -> list[EventLog]:
    # Each corpus tree's bounded language, every trace repeated a random
    # number of times so that the noise filter has work.
    rng = random.Random(7)
    logs = []
    for tree in corpus(60, max_nodes=12):
        language = sorted(trace_language(tree, bound=1, guard=10**4))
        logs.append(EventLog(Counter({s: rng.randint(1, 6) for s in language})))
    return logs


def test_cuts_match_reference_on_corpus_sub_logs():
    for log in corpus_logs():
        for graph in mined_graphs(log):
            assert_cuts_match_reference(*graph)


def test_cuts_match_reference_on_bundled_sub_logs(running_example_log):
    graphs = mined_graphs(running_example_log)
    assert graphs
    for graph in graphs:
        assert_cuts_match_reference(*graph)


def test_one_graph_per_sub_log(running_example_log):
    # Every sub-log that reaches the cuts counts its graph once and builds
    # its bitset graph once; no cut builds another.
    calls: Counter = Counter()

    def counting(name):
        real = getattr(miner, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    with pytest.MonkeyPatch.context() as patch:
        for name in ("dfg_from_sequences", "_graph", "_xor_cut", "_loop_cut"):
            patch.setattr(miner, name, counting(name))
        for log in [running_example_log, *corpus_logs()]:
            for noise in NOISE_LEVELS:
                discover(log, MinerConfig(noise=noise))
    assert calls["_graph"] == calls["dfg_from_sequences"] == calls["_xor_cut"] > 0
    assert calls["_loop_cut"] > 0
