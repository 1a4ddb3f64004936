"""XES event log parsing and directly-follows statistics.

An ``EventLog`` is a multiset of activity sequences: each distinct
sequence (variant) with its number of traces.  That is all the miner
reads, so case ids, timestamps and trace order are not kept.

``parse_xes`` reads the document in one ``xml.parsers.expat`` pass; no
element tree is built.  The XES subset it reads:

- ``<trace>`` and ``<event>`` elements, at any depth and under any
  namespace (default or prefixed); other elements are skipped.
- An event's activity is the value of a ``<string>`` whose key is the
  classifier key (default ``concept:name``).  Nested attributes count
  where they close, so the last matching one to close wins.
- ``<global>``, extension, classifier, trace-level and log-level
  attributes are ignored, and so are lifecycle transitions.
- gzip compression is detected by its magic bytes.

``dfg_from_sequences`` counts a sub-log given as a variant -> count
mapping, so the miner handles each distinct variant once.
"""

from __future__ import annotations

import gzip
import io
import os
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import BinaryIO, Mapping, Union
from xml.parsers import expat

Source = Union[str, "os.PathLike[str]", bytes, BinaryIO]

GZIP_MAGIC = b"\x1f\x8b"


class XesParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


Variants = Counter[tuple[str, ...]]  # activity sequence -> occurrences


@dataclass(frozen=True)
class EventLog:
    """Each distinct activity sequence with its number of traces, in the
    order the sequences first occur in the document."""

    variants: Variants = field(default_factory=Counter)

    @property
    def alphabet(self) -> frozenset[str]:
        return frozenset(a for seq in self.variants for a in seq)

    def __len__(self) -> int:
        return sum(self.variants.values())


@dataclass
class DirectlyFollowsGraph:
    edge_freq: dict[tuple[str, str], int] = field(default_factory=dict)
    start_freq: dict[str, int] = field(default_factory=dict)
    end_freq: dict[str, int] = field(default_factory=dict)


def _open_source(source: Source, stack: ExitStack) -> BinaryIO:
    """Return a binary stream over *source*, gunzipped if it starts with the
    gzip magic bytes.  Whatever is opened here is registered on *stack*; a
    caller-supplied stream is left open."""
    if isinstance(source, bytes):
        stream: BinaryIO = io.BytesIO(source)
    elif isinstance(source, (str, os.PathLike)):
        stream = stack.enter_context(open(source, "rb"))
    else:
        stream = source
        if not stream.seekable():
            stream = io.BytesIO(stream.read())
    head = stream.read(2)
    stream.seek(-len(head), io.SEEK_CUR)
    if head == GZIP_MAGIC:
        # Closing a GzipFile built on fileobj leaves that fileobj open.
        unzipped = gzip.GzipFile(fileobj=stream, mode="rb")
        return stack.enter_context(unzipped)  # type: ignore[return-value]
    return stream


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_xes(source: Source, classifier_key: str = "concept:name") -> EventLog:
    """Parse an XES document (optionally gzip-compressed) into an EventLog.

    Each ``<trace>`` element adds its activity sequence, one activity per
    ``<event>``, taken from the string attribute named *classifier_key*.
    Events missing that attribute are rejected.  A path is opened and
    closed here; a stream passed in is left open.
    """

    variants: Variants = Counter()
    events: list[str] = []
    activity: str | None = None
    in_event = False
    # (key, value) of each open <string>: an attribute counts when it
    # closes, with the event state at that point.
    strings: list[tuple[str | None, str | None]] = []
    localnames: dict[str, str] = {}

    def start(name: str, attrs: dict[str, str]) -> None:
        nonlocal activity, in_event
        tag = localnames.get(name) or localnames.setdefault(name, _localname(name))
        if tag == "string":
            strings.append((attrs.get("key"), attrs.get("value")))
        elif tag == "event":
            in_event = True
            activity = None
        elif tag == "trace":
            events.clear()

    def end(name: str) -> None:
        nonlocal activity, in_event
        tag = localnames[name]
        if tag == "string":
            key, value = strings.pop()
            if in_event and key == classifier_key:
                activity = value
        elif tag == "event":
            in_event = False
            if not activity:
                raise XesParseError(
                    f"event without string attribute {classifier_key!r} "
                    f"in trace {sum(variants.values())}"
                )
            events.append(activity)
        elif tag == "trace":
            variants[tuple(events)] += 1

    parser = expat.ParserCreate(namespace_separator="}")
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    with ExitStack() as stack:
        stream = _open_source(source, stack)
        try:
            parser.ParseFile(stream)
        except expat.ExpatError as exc:
            raise XesParseError(
                f"malformed XES XML: {expat.ErrorString(exc.code)}", exc.lineno, exc.offset
            ) from exc
    return EventLog(variants)


def build_dfg(log: EventLog) -> DirectlyFollowsGraph:
    """Count adjacent activity pairs and trace starts/ends."""
    return dfg_from_sequences(log.variants)


def dfg_from_sequences(sequences: Mapping[tuple[str, ...], int]) -> DirectlyFollowsGraph:
    """Directly-follows counts of a sub-log, given as a mapping from each
    variant to its number of occurrences."""
    edges: Counter = Counter()
    starts: Counter = Counter()
    ends: Counter = Counter()
    for seq, count in sequences.items():
        if seq:
            starts[seq[0]] += count
            ends[seq[-1]] += count
        for pair in zip(seq, seq[1:]):
            edges[pair] += count
    return DirectlyFollowsGraph(
        edge_freq=dict(edges),
        start_freq=dict(starts),
        end_freq=dict(ends),
    )
