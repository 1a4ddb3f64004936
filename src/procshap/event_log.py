"""XES event log parsing and directly-follows statistics.

An ``EventLog`` is a multiset of activity sequences: each distinct
sequence (variant) with its number of traces.  That is all the miner
reads, so case ids, timestamps and trace order are not kept.

``parse_xes`` builds no element tree.  A scan reads a document in the
plain layout without per-element callbacks: one compiled token pattern
splits each trace, proving it well-formed and in the layout, and gives
each event's activity.  Expat checks only the bytes before the first
trace and after the last, and a strict decoder the UTF-8.  What the
scan does not prove (see ``_scan_plain``) goes to the handler pass: one
``expat`` pass with start and end handlers from the document's start,
which re-reads what the scan read before it gave up.  Errors always come
from the handler pass, so their messages, lines and columns do not
depend on the scan.  The XES subset both passes read:

- ``<trace>`` and ``<event>`` elements, at any depth and under any
  namespace (default or prefixed); other elements are skipped.
- An event's activity is the value of a ``<string>`` whose key is the
  classifier key (default ``concept:name``).  Nested attributes count
  where they close, so the last matching one to close wins.
- ``<global>``, extension, classifier, trace-level and log-level
  attributes are ignored, and so are lifecycle transitions.
- gzip compression is detected by its magic bytes.
"""

from __future__ import annotations

import codecs
import functools
import gzip
import io
import os
import re
import sys
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import chain
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
_BLANK = b" \t\r\n"  # XML whitespace; not \s, which also matches \f and \v in bytes
_KINDS = rb"string|date|int|float|boolean|id|list|container"
_VALUE = rb'[^"<&\x00-\x08\x0b\x0c\x0e-\x1f]'  # no ", <, & or C0 but tab, LF, CR
_POSSESSIVE = b"+" if sys.version_info >= (3, 11) else b""  # in re from Python 3.11


@functools.cache
def _grammar(key: bytes, depth: int) -> re.Pattern[bytes]:
    """One token of a plain-layout trace and the whitespace after it: an
    ``<event>`` whose first child is ``<string key="KEY" value="A"/>``, A
    its group 1, or an attribute element, nested at most *depth* deep.
    Each ``*``, ``+`` and ``?`` takes the ``_POSSESSIVE`` suffix; both forms
    match alike, as no repetition can take the byte its continuation starts
    with: whitespace comes before ``<`` or the end, a value class excludes
    ``"``, the optional value starts with a space and ``/`` or ``>`` follows
    it, and ``</``, which starts no attribute, follows an attribute list."""
    p = _POSSESSIVE
    ws, value = b"[%s]*%s" % (_BLANK, p), b'%s*%s"' % (_VALUE, p)

    def attribute(level: int, keys: bytes) -> bytes:
        name = b"%s%d" % (b"e" if keys else b"t", level)  # a group its end tag repeats
        kind = rb"(?P<%s>%s)" % (name, _KINDS) if level > 1 else rb"(?:%s)" % _KINDS
        tag = rb'<%s key="%s%s(?: value="%s)?%s' % (kind, keys, value, value, p)
        if level == 1:
            return tag + b"/>"
        inner = attribute(level - 1, keys)
        return rb"%s(?:/>|>%s(?:%s%s)*%s</(?P=%s)>)" % (tag, ws, inner, ws, p, name)

    event = rb'<event>%s<string key="%s" value="([^"<&\x00-\x1f]+%s)"/>%s(?:%s%s)*%s</event>' % (
        ws, key, p, ws, attribute(depth, b'(?!%s")' % key), ws, p)
    return re.compile(rb"(?:%s|%s)%s" % (event, attribute(depth, b""), ws))


def _refuse(*_: object) -> None:
    """An expat handler for a construct the plain scan does not prove: it
    stops the checker, so the handler pass reads the document."""
    raise expat.ExpatError("outside the plain layout")


def _scan_plain(stream: BinaryIO, classifier_key: str) -> Variants | None:
    """The variants of a plain-layout document, read without per-element
    callbacks; None as soon as the document leaves that layout or is
    malformed, and the handler pass must decide.

    The tokens of ``_grammar`` (flat, or nested 4 deep if a trace needs it)
    must tile each trace after its ``<trace>``, with only whitespace
    between traces: so ``<trace>`` and ``<event>`` have no attributes, each
    event's first child is a self-closing ``<string key="KEY" value="A"/>``
    and its other children XES attribute elements not keyed KEY.  No value
    holds ``<``, so splitting at ``</trace>`` is exact; A is non-empty,
    without the tab or line break expat would make a space.  Expat checks
    the bytes before the first ``<trace>`` and after the last ``</trace>``,
    and refuses an element named ``trace`` or ``event``, a comment,
    processing instruction, CDATA section, DOCTYPE, prefixed namespace
    declaration or declared encoding other than UTF-8.  Two empty elements
    stand in for the traces: expat rejects the second unless an element is
    still open there.  A strict incremental decoder proves the UTF-8;
    U+FFFE, U+FFFF and NUL (UTF-16) are refused.  At most ``CARRY_LIMIT``
    bytes may come without a ``</trace>``, and the classifier key must be
    ASCII letters, digits and ``_:.-``.
    """
    if not _PLAIN_KEY.fullmatch(classifier_key):
        return None
    key = re.escape(classifier_key.encode())
    flat = _grammar(key, 1)
    decode = functools.cache(bytes.decode)  # one str per distinct activity
    utf8 = codecs.getincrementaldecoder("utf-8")()
    checker = expat.ParserCreate(namespace_separator="}")
    checker.StartElementHandler = lambda name, attrs: (
        _localname(name) in ("trace", "event") and _refuse())
    checker.CommentHandler = checker.ProcessingInstructionHandler = _refuse
    checker.StartCdataSectionHandler = checker.StartDoctypeDeclHandler = _refuse
    checker.StartNamespaceDeclHandler = lambda prefix, uri: prefix and _refuse()
    checker.XmlDeclHandler = lambda version, encoding, standalone: (
        encoding and encoding.lower() != "utf-8" and _refuse())
    found: Variants = Counter()
    carry, body = b"", False  # body: the first <trace> has come
    try:
        while True:
            chunk = stream.read(CHUNK)
            text = utf8.decode(chunk, not chunk)
            if b"\0" in chunk or "\ufffe" in text or "\uffff" in text:
                return None
            segment = carry + chunk
            if not body and (start := segment.find(b"<trace>")) >= 0:
                checker.Parse(segment[:start] + b"<p/><p/>")
                segment, body = segment[start:], True
            if chunk:
                cut = segment.rfind(b"</trace>") if body else -1
                if cut < 0:
                    if len(segment) > CARRY_LIMIT:
                        return None
                    carry = segment
                    continue
                cut += len(b"</trace>")
                segment, carry = segment[:cut], segment[cut:]
            *traces, tail = segment.split(b"</trace>")
            for trace in traces:
                for grammar in (flat, None):
                    grammar = grammar or _grammar(key, 4)
                    parts, stride = grammar.split(trace), grammar.groups + 1  # gap, groups
                    if parts[0].strip(_BLANK) == b"<trace>" and not any(parts[stride::stride]):
                        found[tuple(map(decode, filter(None, parts[1::stride])))] += 1
                        break
                else:
                    return None
            if not chunk:
                checker.Parse(tail, True)
                return found
    except (expat.ExpatError, UnicodeDecodeError):  # malformed, or refused
        return None


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
    """Directly-follows counts of a sub-log given as variant -> count, so
    the miner handles each distinct variant once.  One C-level ``Counter``
    counts the pairs of all variants that share a count; starts and ends
    are counted while the variants are grouped."""
    groups: dict[int, list[tuple[str, ...]]] = {}
    starts: dict[str, int] = {}
    ends: dict[str, int] = {}
    for seq, count in sequences.items():
        groups.setdefault(count, []).append(seq)
        if seq:
            starts[seq[0]] = starts.get(seq[0], 0) + count
            ends[seq[-1]] = ends.get(seq[-1], 0) + count
    edges: dict[tuple[str, str], int] = {}
    for count, group in groups.items():
        for pair, n in Counter(chain.from_iterable(zip(s, s[1:]) for s in group)).items():
            edges[pair] = edges.get(pair, 0) + n * count
    return DirectlyFollowsGraph(edge_freq=edges, start_freq=starts, end_freq=ends)
