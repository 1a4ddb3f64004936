"""XES event log parsing and directly-follows statistics.

An ``EventLog`` is a multiset of activity sequences: each distinct
sequence (variant) with its number of traces.  That is all the miner
reads, so case ids, timestamps and trace order are not kept.

``parse_xes`` builds no element tree.  It reads a document in the plain
layout without per-element callbacks: 64 KiB chunks go to an
``xml.parsers.expat`` parser without element handlers, which checks
every byte, and a bytes scan, cut after each ``</trace>``, takes each
event's activity from a first child ``<string key="KEY" value="..."/>``.
Guards send anything outside that layout to the handler pass.  That
expat parser reports comments, processing instructions, CDATA, a
DOCTYPE, prefixed namespaces and declared encodings other than UTF-8;
the scan searches the bytes for a NUL (UTF-16), ``&`` (a reference),
``<xml:`` and a single-quoted classifier key; and its counts catch an
``<event>`` with attributes or without its classifier string first, and
the rest listed on ``_scan_plain``.  The handler pass is one ``expat``
pass with start and end handlers, from the document's start; so such a
document costs one extra read of what the scan read before it gave up.
Errors always come from the handler pass, so their messages, lines and
columns do not depend on the scan.  The XES subset both passes read:

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

import functools
import gzip
import io
import os
import re
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


def _binary(source: Source, stack: ExitStack) -> BinaryIO:
    """A seekable binary stream over *source*.  A path is opened and
    registered on *stack*; a caller-supplied stream is left open."""
    if isinstance(source, bytes):
        return io.BytesIO(source)
    if isinstance(source, (str, os.PathLike)):
        return stack.enter_context(open(source, "rb"))
    if not source.seekable():
        return io.BytesIO(source.read())
    return source


def _gunzip(stream: BinaryIO, stack: ExitStack) -> BinaryIO:
    """*stream*, gunzipped if it starts with the gzip magic bytes."""
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
    with ExitStack() as stack:
        stream = _binary(source, stack)
        origin = stream.tell()
        variants = _scan_plain(_gunzip(stream, stack), classifier_key)
        if variants is None:
            stream.seek(origin)
            variants = _parse_handlers(_gunzip(stream, stack), classifier_key)
    return EventLog(variants)


CHUNK = 1 << 16  # bytes per read of the plain scan
CARRY_LIMIT = 1 << 20  # the most bytes the scan holds without a </trace>

_PLAIN_KEY = re.compile(r"[\w:.-]+", re.ASCII)


def _refuse(*_: object) -> None:
    """An expat handler for a construct the bytes scan cannot read: it
    stops the checker, so the handler pass reads the document."""
    raise expat.ExpatError("outside the plain layout")


def _scan_plain(stream: BinaryIO, classifier_key: str) -> Variants | None:
    """The variants of a plain-layout document, read without per-element
    callbacks; None as soon as the document leaves that layout or expat
    rejects it, and the handler pass must decide.

    An expat parser without element handlers checks every byte, while a
    bytes scan cut after each ``</trace>`` reads each event's activity
    from a first child ``<string key="KEY" value="..."/>``.  The guards
    keep the scan to documents where that equals the handler pass.  Expat
    reports a comment, processing instruction, CDATA section, DOCTYPE,
    prefixed namespace declaration or declared encoding other than UTF-8;
    it calls none of these handlers for a plain-layout element, so they
    cost nothing per element.  The scan refuses a chunk holding a NUL (a
    UTF-16 document) and a segment holding ``&`` (a reference), ``<xml:``
    (the one prefix bound without a declaration) or the single-quoted
    classifier key.  Its counts ask for each trace one ``<trace>`` holding
    all its events, and each event ``<event>...</event>`` closed before
    the next opens, with its classifier string as a self-closing first
    child, the only one in the event, whose value is non-empty with no tab
    or line break.  At most ``CARRY_LIMIT`` bytes may come without a
    ``</trace>``.  The classifier key must be ASCII letters, digits and
    ``_:.-``: with no quote, ``=`` or space in it, a count of the quoted
    key misses no classifier string.
    """
    if not _PLAIN_KEY.fullmatch(classifier_key):
        return None
    key = classifier_key.encode()
    event = re.compile(
        rb'<event>[ \t\r\n]*<string key="%s" value="([^"\t\n\r]+)"/>'
        rb"[^<]*(?:<(?!/event>)[^<]*)*</event>" % re.escape(key)
    )
    quoted = b'"%s"' % key
    hazards = (b"&", b"<xml:", b"'%s'" % key)
    decode = functools.cache(bytes.decode)  # one str per distinct activity
    checker = expat.ParserCreate(namespace_separator="}")
    checker.CommentHandler = checker.ProcessingInstructionHandler = _refuse
    checker.StartCdataSectionHandler = checker.StartDoctypeDeclHandler = _refuse
    checker.StartNamespaceDeclHandler = lambda prefix, uri: prefix and _refuse()
    checker.XmlDeclHandler = lambda version, encoding, standalone: (
        encoding and encoding.lower() != "utf-8" and _refuse())
    found: Variants = Counter()
    carry = b""
    while True:
        chunk = stream.read(CHUNK)
        try:
            checker.Parse(chunk, not chunk)
        except expat.ExpatError:  # malformed, or a _refuse handler ran
            return None
        if b"\0" in chunk:  # UTF-16: no NUL is well-formed in UTF-8
            return None
        segment = carry + chunk
        if chunk:
            cut = segment.rfind(b"</trace>")
            if cut < 0:
                if len(segment) > CARRY_LIMIT:
                    return None
                carry = segment
                continue
            cut += len(b"</trace>")
            segment, carry = segment[:cut], segment[cut:]
        if any(hazard in segment for hazard in hazards):
            return None
        *traces, tail = segment.split(b"</trace>")
        if segment.count(b"<trace") != len(traces):
            return None
        # Each trace holds one "<trace", and the matches from its first
        # "<event" on.  A match runs to the first "</event>" after it and
        # holds one "<event" and one quoted key, so the totals below hold
        # only if every "<event" in the segment opens a match (none before
        # a trace, after the last, nested or unmatched), and no event holds
        # a second classifier string.
        events = 0
        keys = tail.count(quoted)
        for trace in traces:
            opening = trace.find(b"<trace>")
            if opening < 0:
                return None
            first = trace.find(b"<event", opening)
            if first < 0:
                first = len(trace)
            activities = event.findall(trace, first)
            events += len(activities)
            keys += trace.count(quoted, 0, first)
            found[tuple(map(decode, activities))] += 1
        if segment.count(b"<event") != events or segment.count(quoted) != events + keys:
            return None
        if not chunk:
            return found


def _parse_handlers(stream: BinaryIO, classifier_key: str) -> Variants:
    """The variants of any XES document, by one expat pass with start and
    end handlers; raises ``XesParseError`` with expat's line and column."""
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
    try:
        parser.ParseFile(stream)
    except expat.ExpatError as exc:
        raise XesParseError(
            f"malformed XES XML: {expat.ErrorString(exc.code)}", exc.lineno, exc.offset
        ) from exc
    return variants


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
