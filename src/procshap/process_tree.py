"""Hierarchical process trees: operators, node identities, the
substitution of a coalition (an int mask, bit i keeping the node of
preorder index i), the debug text format and DOT export.

A tree node is either an operator (Seq, Xor, And, Loop), an activity leaf,
or a silent tau leaf.  Tau leaves come in two flavors: *mined* taus that
belong to the discovered model, and *removed* taus that mark subtrees
excluded by a coalition.  The distinction carries semantics: in ``blocked``
mode a removed tau can never complete, in ``skip`` mode it behaves like a
mined tau.  Coalitions with one canonical form (``oracle.evaluate_rows``
states it) substitute to one tree.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Mapping


class Op(str, Enum):
    SEQ = "Seq"
    XOR = "Xor"
    AND = "And"
    LOOP = "Loop"


class TauMode(str, Enum):
    """How a removed tau behaves: ``blocked`` never completes, ``skip``
    completes silently (making every coalition trivially satisfiable)."""

    BLOCKED = "blocked"
    SKIP = "skip"


@dataclass(frozen=True)
class NodeId:
    """Stable node identity: ``<Kind><arity>@<preorder>`` for operators
    (e.g. ``Seq2@18``), ``<label>@<preorder>`` for leaves."""

    text: str
    index: int


@dataclass(frozen=True)
class ProcessTree:
    op: Op | None = None
    label: str | None = None
    removed: bool = False
    children: tuple["ProcessTree", ...] = ()
    node_id: NodeId | None = None

    def __post_init__(self) -> None:
        if self.op is None:
            if self.children:
                raise ValueError("leaves have no children")
        elif self.op is Op.LOOP:
            if len(self.children) != 2:
                raise ValueError("Loop takes exactly two children (do, redo)")
        elif not self.children:
            raise ValueError(f"{self.op.value} needs at least one child")

    @property
    def is_leaf(self) -> bool:
        return self.op is None

    @property
    def is_activity(self) -> bool:
        return self.op is None and self.label is not None

    @property
    def is_tau(self) -> bool:
        return self.op is None and self.label is None

    def kind_label(self) -> str:
        if self.op is not None:
            return f"{self.op.value}{len(self.children)}"
        if self.is_activity:
            return self.label  # type: ignore[return-value]
        return "tau"


def seq(*children: ProcessTree) -> ProcessTree:
    return ProcessTree(op=Op.SEQ, children=tuple(children))


def xor(*children: ProcessTree) -> ProcessTree:
    return ProcessTree(op=Op.XOR, children=tuple(children))


def par(*children: ProcessTree) -> ProcessTree:
    return ProcessTree(op=Op.AND, children=tuple(children))


def loop(do: ProcessTree, redo: ProcessTree) -> ProcessTree:
    return ProcessTree(op=Op.LOOP, children=(do, redo))


def activity(label: str) -> ProcessTree:
    if not label:
        raise ValueError("activity label must be non-empty")
    return ProcessTree(label=label)


def tau() -> ProcessTree:
    return ProcessTree()


def removed_tau(node_id: NodeId | None = None) -> ProcessTree:
    return ProcessTree(removed=True, node_id=node_id)


def assign_node_ids(tree: ProcessTree) -> ProcessTree:
    """Return a copy of *tree* with deterministic preorder node ids."""

    counter = itertools.count()

    def walk(node: ProcessTree) -> ProcessTree:
        index = next(counter)
        node_id = NodeId(text=f"{node.kind_label()}@{index}", index=index)
        children = tuple(walk(c) for c in node.children)
        return replace(node, node_id=node_id, children=children)

    return walk(tree)


def iter_nodes(tree: ProcessTree) -> Iterator[ProcessTree]:
    """Preorder traversal."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def node_count(tree: ProcessTree) -> int:
    return sum(1 for _ in iter_nodes(tree))


@dataclass(frozen=True)
class Coalition:
    """A bit mask over the preorder indices 0..n-1, checked against n:
    kept for perfbench's checker/tracer (ROADMAP item 1)."""

    n: int
    mask: int = 0

    def __post_init__(self) -> None:
        if self.n < 0 or self.mask < 0 or self.mask >> self.n:
            raise ValueError("coalition mask out of range for n players")

    @classmethod
    def full(cls, n: int) -> "Coalition":
        return cls(n, (1 << n) - 1)

    @classmethod
    def empty(cls, n: int) -> "Coalition":
        return cls(n, 0)


def substitute(tree: ProcessTree, mask: int) -> ProcessTree:
    """Replace every maximal subtree whose root's bit is clear in *mask*
    by a single removed-tau leaf.  Surviving nodes keep their node ids."""

    if tree.node_id is None:
        raise ValueError("substitute requires an id-assigned tree (assign_node_ids)")

    def walk(node: ProcessTree) -> ProcessTree:
        index = node.node_id.index  # type: ignore[union-attr]
        if not mask >> index & 1:
            return removed_tau(NodeId(text=f"tau@{index}", index=index))
        if node.is_leaf:
            return node
        return replace(node, children=tuple(walk(c) for c in node.children))

    return walk(tree)


# An act label keeps to its line: a backslash is written ``\\`` and each
# character ``str.splitlines`` breaks on as ``\uXXXX``.
_ESCAPES = str.maketrans(
    {"\\": "\\\\"}
    | {c: f"\\u{ord(c):04x}" for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}
)
_ESCAPED = re.compile(r"\\(\\|u[0-9a-f]{4})")


def _unescape(label: str) -> str:
    return _ESCAPED.sub(
        lambda m: "\\" if m[1] == "\\" else chr(int(m[1][1:], 16)), label
    )


def tree_to_text(tree: ProcessTree) -> str:
    """Line-based debug serialization, one node per line, two-space indent.
    Activity labels are written as they are, but for the escapes above."""

    lines: list[str] = []

    def walk(node: ProcessTree, depth: int) -> None:
        if node.is_activity:
            head = f"act {node.label.translate(_ESCAPES)}"  # type: ignore[union-attr]
        elif node.is_tau:
            head = "removed-tau" if node.removed else "tau"
        else:
            head = node.op.value.lower()  # type: ignore[union-attr]
        lines.append("  " * depth + head)
        for child in node.children:
            walk(child, depth + 1)

    walk(tree, 0)
    return "\n".join(lines) + "\n"


# The deepest node ``tree_from_text`` accepts, the root being at depth 0.
# The recursive walks over a tree (``assign_node_ids``, ``substitute`` and
# ``logic_encoder.encode`` take two frames per level) then stay inside
# Python's default recursion limit of 1000, and trees mined at the default
# ``max_depth`` of 64 are far shallower.
MAX_TEXT_DEPTH = 256


def tree_from_text(text: str) -> ProcessTree:
    """Parse the ``tree_to_text`` format back into an id-assigned tree;
    a node deeper than ``MAX_TEXT_DEPTH`` raises ``ValueError``."""

    entries: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        stripped = raw.lstrip(" ")
        indent = len(raw) - len(stripped)
        if indent % 2:
            raise ValueError(f"line {lineno}: odd indentation")
        if indent // 2 > MAX_TEXT_DEPTH:
            raise ValueError(
                f"line {lineno}: more than {MAX_TEXT_DEPTH} levels below the root"
            )
        # An activity label is kept exactly as written, spaces included.
        head = stripped if stripped.startswith("act ") else stripped.rstrip()
        entries.append((indent // 2, head))
    if not entries:
        raise ValueError("empty tree text")

    pos = 0

    def parse(depth: int) -> ProcessTree:
        nonlocal pos
        d, head = entries[pos]
        if d != depth:
            raise ValueError(f"unexpected indentation at entry {pos}")
        pos += 1
        children = []
        while pos < len(entries) and entries[pos][0] == depth + 1:
            children.append(parse(depth + 1))
        if head == "tau":
            node = tau()
        elif head == "removed-tau":
            node = removed_tau()
        elif head.startswith("act "):
            node = activity(_unescape(head[4:]))
        else:
            ops = {"seq": Op.SEQ, "xor": Op.XOR, "and": Op.AND, "loop": Op.LOOP}
            if head not in ops:
                raise ValueError(f"unknown node kind {head!r}")
            node = ProcessTree(op=ops[head], children=tuple(children))
            children = None  # consumed
        if children:
            raise ValueError(f"leaf {head!r} cannot have children")
        return node

    root = parse(0)
    if pos != len(entries):
        raise ValueError("trailing content after root subtree")
    return assign_node_ids(root)


def _color(phi: float, lo: float, hi: float) -> str:
    """Blue -> white -> red interpolation anchored at lo -> 0 -> hi."""
    if phi < 0 and lo < 0:
        t = phi / lo  # 0..1 toward pure blue
        r = g = round(255 * (1 - t))
        return f"#{r:02x}{g:02x}ff"
    if phi > 0 and hi > 0:
        t = phi / hi
        g = b = round(255 * (1 - t))
        return f"#ff{g:02x}{b:02x}"
    return "#ffffff"


def export_dot(
    tree: ProcessTree, values: Mapping[str, float] | None = None
) -> str:
    """Render the tree as a Graphviz digraph with nodes colored by their
    attribution value on a blue/white/red scale.

    *values* maps node id text to a value; missing nodes render neutral.
    The output is byte-stable for a fixed input.
    """

    if tree.node_id is None:
        tree = assign_node_ids(tree)
    values = dict(values or {})
    lo = min((min(values.values()), 0.0)) if values else 0.0
    hi = max((max(values.values()), 0.0)) if values else 0.0

    lines = ["digraph process_tree {", "  node [shape=box, style=filled];"]
    nodes = list(iter_nodes(tree))
    for node in nodes:
        nid = node.node_id
        phi = values.get(nid.text)
        text = nid.text.replace("\\", "\\\\").replace('"', '\\"')
        if phi is None:
            label = text
            fill = "#ffffff"
        else:
            label = f"{text}\\n{phi:.3f}"
            fill = _color(phi, lo, hi)
        lines.append(f'  n{nid.index} [label="{label}", fillcolor="{fill}"];')
    for node in nodes:
        for child in node.children:
            lines.append(f"  n{node.node_id.index} -> n{child.node_id.index};")
    lines.append("}")
    return "\n".join(lines) + "\n"
