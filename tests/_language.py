"""Bounded trace semantics of process trees, kept as a test reference.

``trace_language`` materialises every activity sequence a tree can
produce with loops unrolled up to a bound, so tests can state what a
mined or substituted tree accepts.  The package never enumerates traces:
its verdicts fold the tree directly (``oracle._rules``).
"""

from __future__ import annotations

from procshap.process_tree import Op, ProcessTree, TauMode


def describe(node: ProcessTree) -> str:
    """The node's id text, or its kind label when ids are not assigned."""
    if node.node_id is not None:
        return node.node_id.text
    return node.kind_label()


class LanguageSizeError(RuntimeError):
    """Raised when a bounded trace language exceeds the explosion guard."""


def _checked(traces: set, guard: int, node: ProcessTree) -> set:
    if len(traces) > guard:
        raise LanguageSizeError(
            f"trace language of node {describe(node)} exceeds guard of {guard}"
        )
    return traces


def _shuffle_pair(u: tuple, v: tuple) -> set:
    if not u:
        return {v}
    if not v:
        return {u}
    return {(u[0],) + rest for rest in _shuffle_pair(u[1:], v)} | {
        (v[0],) + rest for rest in _shuffle_pair(u, v[1:])
    }


def trace_language(
    tree: ProcessTree,
    bound: int = 1,
    mode: TauMode = TauMode.BLOCKED,
    guard: int = 10**6,
) -> frozenset[tuple[str, ...]]:
    """Bounded trace semantics: the set of activity sequences the tree can
    produce with loops unrolled up to *bound* redo iterations.

    Removed taus contribute the empty trace in ``skip`` mode and nothing
    (no completing run) in ``blocked`` mode.
    """

    if bound < 0:
        raise ValueError("loop bound must be >= 0")

    def lang(node: ProcessTree) -> set:
        if node.is_leaf:
            if node.removed:
                return {()} if mode is TauMode.SKIP else set()
            if node.is_activity:
                return {(node.label,)}
            return {()}
        if node.op is Op.SEQ:
            acc = {()}
            for child in node.children:
                cl = lang(child)
                acc = _checked({u + v for u in acc for v in cl}, guard, node)
                if not acc:
                    return acc
            return acc
        if node.op is Op.XOR:
            acc: set = set()
            for child in node.children:
                acc = _checked(acc | lang(child), guard, node)
            return acc
        if node.op is Op.AND:
            acc = {()}
            for child in node.children:
                cl = lang(child)
                merged: set = set()
                for u in acc:
                    for v in cl:
                        merged |= _shuffle_pair(u, v)
                        if len(merged) > guard:
                            raise LanguageSizeError(
                                f"trace language of node {describe(node)} exceeds "
                                f"guard of {guard}"
                            )
                acc = merged
                if not acc:
                    return acc
            return acc
        # Loop(do, redo): do (redo do)^j for j = 0..bound
        do, redo = (lang(c) for c in node.children)
        acc = set(do)
        tails = {()}
        for _ in range(bound):
            tails = _checked(
                {t + r + d for t in tails for r in redo for d in do}, guard, node
            )
            acc = _checked(acc | {d + t for d in do for t in tails}, guard, node)
            if not tails:
                break
        return acc

    return frozenset(lang(tree))
