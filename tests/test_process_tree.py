from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from procshap.process_tree import (
    Coalition,
    Op,
    TauMode,
    activity,
    assign_node_ids,
    export_dot,
    iter_nodes,
    loop,
    node_count,
    par,
    seq,
    substitute,
    tau,
    tree_from_text,
    tree_to_text,
    xor,
)

from _corpus import corpus
from _language import LanguageSizeError, trace_language


def ids(tree) -> list[str]:
    return [n.node_id.text for n in iter_nodes(tree)]


def test_node_ids_seq():
    tree = assign_node_ids(seq(activity("a"), activity("b")))
    assert ids(tree) == ["Seq2@0", "a@1", "b@2"]


def test_node_ids_single_leaf():
    assert ids(assign_node_ids(activity("a"))) == ["a@0"]


def test_node_ids_loop_and_tau():
    tree = assign_node_ids(loop(activity("a"), tau()))
    assert ids(tree) == ["Loop2@0", "a@1", "tau@2"]


def test_arity_in_operator_id():
    tree = assign_node_ids(xor(activity("a"), activity("b"), activity("c")))
    assert ids(tree)[0] == "Xor3@0"


def test_malformed_trees_rejected():
    from procshap.process_tree import ProcessTree

    with pytest.raises(ValueError):
        seq()
    with pytest.raises(ValueError):
        ProcessTree(op=Op.LOOP, children=(activity("a"),))
    with pytest.raises(ValueError):
        activity("")


def test_substitute_full_is_identity():
    tree = assign_node_ids(seq(activity("a"), xor(activity("b"), activity("c"))))
    assert substitute(tree, Coalition.full(node_count(tree))) == tree


def test_substitute_empty_gives_removed_root():
    tree = assign_node_ids(seq(activity("a"), activity("b")))
    reduced = substitute(tree, Coalition.empty(3))
    assert reduced.is_leaf and reduced.removed


def test_substitute_drops_whole_subtree():
    tree = assign_node_ids(seq(activity("a"), xor(activity("b"), activity("c"))))
    reduced = substitute(tree, Coalition.of(5, [0, 1, 3, 4]))  # drop the Xor at 2
    assert reduced.node_id.text == "Seq2@0"
    assert reduced.children[0].node_id.text == "a@1"
    replacement = reduced.children[1]
    assert replacement.is_leaf and replacement.removed
    assert replacement.node_id.index == 2


def test_substitute_idempotent_on_survivors():
    for tree in corpus(20, seed=5):
        n = node_count(tree)
        rng = random.Random(n)
        coalition = Coalition(n, rng.getrandbits(n))
        once = substitute(tree, coalition)
        twice = substitute(once, coalition)
        assert once == twice


def test_language_and():
    tree = par(activity("a"), activity("b"))
    assert trace_language(tree) == {("a", "b"), ("b", "a")}


def test_language_loop_unrolling():
    tree = loop(activity("a"), activity("b"))
    assert trace_language(tree, bound=1) == {("a",), ("a", "b", "a")}
    assert trace_language(tree, bound=0) == {("a",)}


def test_language_removed_tau_modes():
    tree = assign_node_ids(seq(activity("a"), activity("b")))
    reduced = substitute(tree, Coalition.of(3, [0, 1]))
    assert trace_language(reduced, mode=TauMode.BLOCKED) == frozenset()
    assert trace_language(reduced, mode=TauMode.SKIP) == {("a",)}


def test_language_xor_union_bound():
    t1, t2 = activity("a"), activity("b")
    assert len(trace_language(xor(t1, t2))) == 2
    same = xor(activity("a"), activity("a"))
    assert len(trace_language(same)) == 1


def test_language_skip_mode_never_empty():
    for tree in corpus(20, seed=7):
        n = node_count(tree)
        rng = random.Random(n + 1)
        coalition = Coalition(n, rng.getrandbits(n))
        reduced = substitute(tree, coalition)
        assert trace_language(reduced, mode=TauMode.SKIP) != frozenset()


def test_language_guard_names_node():
    wide = par(*(xor(activity(f"a{i}"), activity(f"b{i}")) for i in range(6)))
    tree = assign_node_ids(wide)
    with pytest.raises(LanguageSizeError, match="And6@0"):
        trace_language(tree, guard=100)


def test_debug_text_roundtrip():
    for tree in corpus(30, seed=11):
        assert tree_from_text(tree_to_text(tree)) == tree


def test_debug_text_keeps_spaces_in_labels():
    tree = assign_node_ids(
        seq(activity(" a"), activity("a "), xor(activity("  b  "), activity("c\t")))
    )
    assert tree_from_text(tree_to_text(tree)) == tree


def test_debug_text_escapes_backslashes_and_line_breaks_in_labels():
    breaks = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    labels = ["a\nx", "b\\", "c\\u000a", "d\r\n", *(f"e{c}f" for c in breaks)]
    tree = assign_node_ids(seq(*map(activity, labels)))
    text = tree_to_text(tree)
    assert len(text.splitlines()) == 1 + len(labels)
    assert "  act a\\u000ax\n  act b\\\\\n  act c\\\\u000a\n" in text
    assert tree_from_text(text) == tree
    assert tree_from_text(text.replace("\n", "\r\n")) == tree


def test_debug_text_rejects_garbage():
    with pytest.raises(ValueError):
        tree_from_text("wat\n")
    with pytest.raises(ValueError):
        tree_from_text("")


def test_export_dot_neutral_when_all_zero():
    tree = assign_node_ids(seq(activity("a"), activity("b")))
    dot = export_dot(tree, {t: 0.0 for t in ids(tree)})
    assert dot.count("#ffffff") == 3


def test_export_dot_scale_anchors():
    tree = assign_node_ids(seq(activity("a"), activity("b")))
    dot = export_dot(tree, {"Seq2@0": -0.1, "a@1": 0.0, "b@2": 0.2})
    assert "#0000ff" in dot  # pure blue at the minimum
    assert "#ff0000" in dot  # pure red at the maximum
    assert "#ffffff" in dot  # white at zero


def test_export_dot_missing_nodes_neutral():
    tree = assign_node_ids(seq(activity("a"), activity("b")))
    dot = export_dot(tree, {"a@1": 0.5})
    assert 'n0 [label="Seq2@0", fillcolor="#ffffff"]' in dot


def test_export_dot_escapes_quotes_and_backslashes():
    tree = assign_node_ids(seq(activity('say "hi"'), activity("a\\b")))
    lines = export_dot(tree, {'say "hi"@1': 0.5}).splitlines()
    assert '  n1 [label="say \\"hi\\"@1\\n0.500", fillcolor="#ff0000"];' in lines
    assert '  n2 [label="a\\\\b@2", fillcolor="#ffffff"];' in lines


def test_export_dot_byte_stable():
    tree = assign_node_ids(seq(activity("a"), xor(activity("b"), activity("c"))))
    values = {"Seq2@0": 0.25, "b@3": -0.125}
    assert export_dot(tree, values) == export_dot(tree, dict(reversed(values.items())))


def test_export_dot_golden(running_example_tree):
    from pathlib import Path

    from procshap.oracle import Property, PropertySpec, ValueCache, evaluate
    from procshap.shapley import Game, exact_shapley

    tree = running_example_tree
    n = node_count(tree)
    cache = ValueCache()
    spec = PropertySpec(Property.SAT)
    game = Game(n=n, value=lambda c: evaluate(tree, c, spec, cache))
    estimate = exact_shapley(game)
    texts = {node.node_id.text: estimate.phi[node.node_id.index]
             for node in iter_nodes(tree)}
    dot = export_dot(tree, texts)
    golden = Path(__file__).parent / "golden" / "running_example_sat.dot"
    assert dot == golden.read_text()


@given(st.integers(min_value=1, max_value=12), st.data())
def test_coalition_mask_roundtrip(n, data):
    members = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    coalition = Coalition.of(n, members)
    assert set(coalition.members()) == members
    assert len(coalition) == len(members)
    for i in range(n):
        assert coalition.contains(i) == (i in members)


def test_coalition_bounds():
    with pytest.raises(ValueError):
        Coalition(2, 0b100)
    with pytest.raises(ValueError):
        Coalition.of(2, [2])
