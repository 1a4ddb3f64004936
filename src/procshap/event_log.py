"""XES event log parsing and directly-follows statistics.

An ``EventLog`` is a multiset of activity sequences: each distinct
sequence (variant) with its number of traces.  That is all the miner
reads, so case ids, timestamps and trace order are not kept.

``parse_xes`` builds no element tree.  It reads a document in the plain
layout without per-element callbacks: 64 KiB chunks go to a handler-free
``xml.parsers.expat`` parser, which checks every byte, and a bytes scan,
cut after each ``</trace>``, takes each event's activity from a first
child ``<string key="KEY" value="..."/>``.  Guards send anything outside
that layout (entity or character references, comments, CDATA, a DOCTYPE,
processing instructions, non-UTF-8 encodings, prefixed elements, an
``<event>`` with attributes or without its classifier string first, and
others listed on ``_scan_plain``) to the handler pass, one ``expat``
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
_ENCODING = re.compile(rb"""encoding\s*=\s*["']([^"']*)""")


def _declaration_end(head: bytes) -> int | None:
    """Where the plain scan starts in a document beginning with *head*: past
    a UTF-8 byte order mark and an XML declaration.  None for a document
    declared in another encoding, or one expat may read as UTF-16: its
    first character, after any byte order mark, is ASCII, so a NUL shows
    in the first four bytes."""
    if b"\0" in head[:4]:
        return None
    start = 3 if head.startswith(b"\xef\xbb\xbf") else 0
    if not head.startswith(b"<?xml", start):
        return start
    end = head.find(b"?>", start)
    if end < 0:
        return None
    declared = _ENCODING.search(head, start, end)
    if declared and declared[1].lower() != b"utf-8":
        return None
    return end + 2


def _scan_plain(stream: BinaryIO, classifier_key: str) -> Variants | None:
    """The variants of a plain-layout document, read without per-element
    callbacks; None as soon as the document leaves that layout or expat
    rejects it, and the handler pass must decide.

    A handler-free expat parser checks every byte, while a bytes scan cut
    after each ``</trace>`` reads each event's activity from a first child
    ``<string key="KEY" value="..."/>``.  The guards keep the scan to
    documents where that equals the handler pass: UTF-8; no entity or
    character reference, comment, CDATA, DOCTYPE, processing instruction,
    closing ``</string>``, prefixed element, single-quoted classifier key
    or empty activity; each trace one ``<trace>`` holding all its events,
    each event ``<event>...</event>`` closed before the next opens, with
    one classifier string and no tab or line break in its value; and at
    most ``CARRY_LIMIT`` bytes without a ``</trace>``.  The classifier key
    must be ASCII letters, digits and ``_:.-``: with no quote, ``=`` or
    space in it, a count of the quoted key misses no classifier string.
    """
    if not _PLAIN_KEY.fullmatch(classifier_key):
        return None
    key = classifier_key.encode()
    event = re.compile(
        rb'<event>[ \t\r\n]*<string key="%s" value="([^"\t\n\r]+)"/>'
        rb"[^<]*(?:<(?!/event>)[^<]*)*</event>" % re.escape(key)
    )
    quoted = b'"%s"' % key
    # The last byte first: a memchr for a rare "!" or "?" spares the
    # slower search for "<!" and "<?", since "<" is everywhere.
    hazards = [(h[-1:], h) for h in (
        b"&", b"<!", b"<?", b"</string", b"xmlns:", b"<xml:", b"'%s'" % key)]
    decode = functools.cache(bytes.decode)  # one str per distinct activity
    checker = expat.ParserCreate(namespace_separator="}")
    found: Variants = Counter()
    carry = b""
    head = True
    while True:
        chunk = stream.read(CHUNK)
        try:
            checker.Parse(chunk, not chunk)
        except expat.ExpatError:
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
        if head:
            start = _declaration_end(segment)
            if start is None:
                return None
            segment = segment[start:]
            head = False
        if any(last in segment and hazard in segment for last, hazard in hazards):
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
