"""XES event log parsing and directly-follows statistics.

``parse_xes`` reads the document in one ``xml.parsers.expat`` pass, keeping
only what the pipeline uses; no element tree is built.  The XES subset it
reads:

- ``<trace>`` and ``<event>`` elements, at any depth and under any
  namespace (default or prefixed); other elements are skipped.
- An event's activity is the value of a ``<string>`` whose key is the
  classifier key (default ``concept:name``), its timestamp a ``<date>``
  keyed ``time:timestamp``.  Nested attributes count where they close, so
  the last matching one to close wins.
- A trace's case id is the first ``<string key="concept:name">`` closing
  inside the trace but outside its events, whether before or after them;
  without one the trace is ``case_<index>``.
- ``<global>``, extension, classifier and log-level attributes are ignored,
  and so are lifecycle transitions.
- gzip compression is detected by its magic bytes.

``dfg_from_sequences`` counts a sub-log given either as sequences or as a
variant -> count mapping, so the miner can carry each distinct variant once.
"""

from __future__ import annotations

import gzip
import io
import os
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Mapping, Union
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


@dataclass(frozen=True)
class Event:
    activity: str
    timestamp: str | None = None

    def __post_init__(self) -> None:
        if not self.activity:
            raise ValueError("event activity must be non-empty")


@dataclass(frozen=True)
class Trace:
    case_id: str
    events: tuple[Event, ...] = ()

    def activities(self) -> tuple[str, ...]:
        return tuple(e.activity for e in self.events)


@dataclass(frozen=True)
class EventLog:
    traces: tuple[Trace, ...] = ()

    @property
    def alphabet(self) -> frozenset[str]:
        return frozenset(e.activity for t in self.traces for e in t.events)

    def activity_sequences(self) -> list[tuple[str, ...]]:
        return [t.activities() for t in self.traces]

    def __len__(self) -> int:
        return len(self.traces)


@dataclass
class DirectlyFollowsGraph:
    edge_freq: dict[tuple[str, str], int] = field(default_factory=dict)
    start_freq: dict[str, int] = field(default_factory=dict)
    end_freq: dict[str, int] = field(default_factory=dict)
    activity_freq: dict[str, int] = field(default_factory=dict)

    @property
    def activities(self) -> frozenset[str]:
        acts = set(self.activity_freq)
        for a, b in self.edge_freq:
            acts.add(a)
            acts.add(b)
        return frozenset(acts)


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

    One Trace per ``<trace>`` element in document order; one Event per
    ``<event>``, its activity taken from the string attribute named
    *classifier_key*.  Events missing that attribute are rejected.  A path
    is opened and closed here; a stream passed in is left open.
    """

    traces: list[Trace] = []
    events: list[Event] = []
    case_id: str | None = None
    activity: str | None = None
    timestamp: str | None = None
    in_trace = in_event = False
    # (key, value) of each open <string>/<date>: an attribute counts when
    # it closes, with the event/trace state at that point.
    attributes: list[tuple[str | None, str | None]] = []
    localnames: dict[str, str] = {}

    def start(name: str, attrs: dict[str, str]) -> None:
        nonlocal case_id, events, activity, timestamp, in_trace, in_event
        tag = localnames.get(name) or localnames.setdefault(name, _localname(name))
        if tag == "string" or tag == "date":
            attributes.append((attrs.get("key"), attrs.get("value")))
        elif tag == "event":
            in_event = True
            activity = timestamp = None
        elif tag == "trace":
            in_trace = True
            case_id = None
            events = []

    def end(name: str) -> None:
        nonlocal case_id, activity, timestamp, in_trace, in_event
        tag = localnames[name]
        if tag == "string" or tag == "date":
            key, value = attributes.pop()
            if in_event:
                if tag == "string" and key == classifier_key:
                    activity = value
                elif tag == "date" and key == "time:timestamp":
                    timestamp = value
            elif in_trace and tag == "string" and key == "concept:name" and case_id is None:
                case_id = value
        elif tag == "event":
            in_event = False
            if not activity:
                raise XesParseError(
                    f"event without string attribute {classifier_key!r} "
                    f"in trace {len(traces)}"
                )
            events.append(Event(activity, timestamp))
        elif tag == "trace":
            in_trace = False
            traces.append(Trace(case_id or f"case_{len(traces)}", tuple(events)))

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
    return EventLog(traces=tuple(traces))


def build_dfg(log: EventLog) -> DirectlyFollowsGraph:
    """Count adjacent activity pairs, trace starts/ends and totals."""
    return dfg_from_sequences(log.activity_sequences())


def dfg_from_sequences(
    sequences: Iterable[tuple[str, ...]] | Mapping[tuple[str, ...], int],
) -> DirectlyFollowsGraph:
    """Directly-follows counts of a sub-log.  *sequences* is either an
    iterable of activity sequences, each occurrence counting once, or a
    mapping from variant to its number of occurrences."""
    if isinstance(sequences, Mapping):
        weighted = sequences.items()
    else:
        weighted = ((seq, 1) for seq in sequences)
    edges: Counter = Counter()
    starts: Counter = Counter()
    ends: Counter = Counter()
    acts: Counter = Counter()
    for seq, count in weighted:
        if seq:
            starts[seq[0]] += count
            ends[seq[-1]] += count
        for a in seq:
            acts[a] += count
        for pair in zip(seq, seq[1:]):
            edges[pair] += count
    return DirectlyFollowsGraph(
        edge_freq=dict(edges),
        start_freq=dict(starts),
        end_freq=dict(ends),
        activity_freq=dict(acts),
    )
