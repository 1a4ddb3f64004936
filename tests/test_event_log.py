from __future__ import annotations

import gc
import gzip
import io
import re
import sys
import warnings
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import example, given, settings, strategies as st

from procshap import event_log
from procshap.event_log import (
    DirectlyFollowsGraph,
    EventLog,
    XesParseError,
    build_dfg,
    dfg_from_sequences,
    parse_xes,
)

from _miner_lists import dfg_of_traces
from _xes_etree import dump_xes, parse_xes_etree

MINIMAL = b"""<?xml version="1.0"?>
<log>
  <trace>
    <string key="concept:name" value="t1"/>
    <event><string key="concept:name" value="a"/></event>
    <event><string key="concept:name" value="b"/></event>
  </trace>
</log>
"""


def test_parse_minimal_document():
    log = parse_xes(MINIMAL)
    assert len(log) == 1
    assert list(log.variants.items()) == [(("a", "b"), 1)]
    assert log.alphabet == {"a", "b"}


def test_parse_running_example(running_example_file):
    # Expected values frozen from an independent inspection of the raw
    # XML (grep for <trace>, regex over event classifier values):
    # 6 traces, 42 events, 8 distinct activities.
    log = parse_xes(running_example_file)
    assert len(log) == 6
    assert sum(len(s) * count for s, count in log.variants.items()) == 42
    assert len(log.alphabet) == 8
    assert "register request" in log.alphabet


def test_parse_gzip_detected_by_magic_bytes():
    compressed = gzip.compress(MINIMAL)
    log = parse_xes(compressed)
    assert len(log) == 1
    log2 = parse_xes(io.BytesIO(compressed))
    assert log2 == log


def test_truncated_xml_is_an_error_with_position():
    truncated = MINIMAL[:60]
    with pytest.raises(XesParseError) as exc:
        parse_xes(truncated)
    assert str(exc.value) == "malformed XES XML: unclosed token (line 4, column 4)"
    assert (exc.value.line, exc.value.column) == (4, 4)


def test_mismatched_tag_is_an_error_with_position():
    with pytest.raises(XesParseError) as exc:
        parse_xes(b"<log><trace><event></trace></log>")
    assert str(exc.value) == "malformed XES XML: mismatched tag (line 1, column 21)"
    assert (exc.value.line, exc.value.column) == (1, 21)


def test_parse_closes_what_it_opens(tmp_path, running_example_file, monkeypatch):
    gz_path = tmp_path / "log.xes.gz"
    gz_path.write_bytes(gzip.compress(Path(running_example_file).read_bytes()))
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    class RecordingGzipFile(gzip.GzipFile):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(event_log, "open", recording_open, raising=False)
    monkeypatch.setattr(event_log.gzip, "GzipFile", RecordingGzipFile)
    for path in (running_example_file, str(gz_path), gz_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert len(parse_xes(path)) == 6
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert len(opened) == 5  # three files, two gzip wrappers
    assert all(handle.closed for handle in opened)


def test_parse_leaves_caller_streams_open(running_example_file):
    data = Path(running_example_file).read_bytes()
    expected = parse_xes(data)
    for stream in (io.BytesIO(data), io.BytesIO(gzip.compress(data))):
        assert parse_xes(stream) == expected
        assert not stream.closed
    with open(running_example_file, "rb") as handle:
        assert parse_xes(handle) == expected
        assert not handle.closed


def test_event_missing_classifier_names_trace():
    doc = b"""<log><trace><event><string key="other" value="x"/></event></trace></log>"""
    with pytest.raises(XesParseError, match="trace 0"):
        parse_xes(doc)


def test_custom_classifier_key():
    doc = b"""<log><trace>
      <event><string key="action" value="ship"/></event>
    </trace></log>"""
    log = parse_xes(doc, classifier_key="action")
    assert list(log.variants) == [("ship",)]


def test_namespaced_document():
    doc = b"""<log xmlns="http://www.xes-standard.org/"><trace>
      <event><string key="concept:name" value="a"/></event>
    </trace></log>"""
    assert parse_xes(doc).alphabet == {"a"}


def test_roundtrip_through_dump(running_example_file):
    log = parse_xes(running_example_file)
    assert parse_xes(dump_xes(log)) == log


def test_event_with_empty_activity_names_trace():
    doc = b"""<log>
      <trace><event><string key="concept:name" value="a"/></event></trace>
      <trace><event><string key="concept:name" value=""/></event></trace>
    </log>"""
    with pytest.raises(XesParseError, match="in trace 1"):
        parse_xes(doc)


def test_variants_count_traces_in_first_seen_order():
    doc = b"""<log>""" + b"".join(
        b"<trace>" + b"".join(
            b'<event><string key="concept:name" value="%s"/></event>' % a for a in trace
        ) + b"</trace>"
        for trace in ([b"b"], [b"a", b"b"], [b"b"], [], [b"a", b"b"], [b"b"])
    ) + b"</log>"
    log = parse_xes(doc)
    assert list(log.variants.items()) == [(("b",), 3), (("a", "b"), 2), ((), 1)]
    assert len(log) == 6


def test_build_dfg_weighted_counts():
    dfg = dfg_from_sequences({("a", "b"): 3, ("a",): 2, (): 4})
    assert dfg.edge_freq == {("a", "b"): 3}
    assert dfg.start_freq == {"a": 5}
    assert dfg.end_freq == {"b": 3, "a": 2}


def test_build_dfg_counts():
    dfg = dfg_from_sequences(Counter([("a", "b"), ("a", "c")]))
    assert dfg.edge_freq == {("a", "b"): 1, ("a", "c"): 1}
    assert dfg.start_freq == {"a": 2}
    assert dfg.end_freq == {"b": 1, "c": 1}


def test_build_dfg_empty_log():
    dfg = build_dfg(EventLog())
    assert dfg.edge_freq == {} and dfg.start_freq == {} and dfg.end_freq == {}


def test_build_dfg_self_loop():
    dfg = dfg_from_sequences(Counter([("a", "a", "a")]))
    assert dfg.edge_freq == {("a", "a"): 2}
    assert dfg.start_freq == {"a": 1} and dfg.end_freq == {"a": 1}


@given(
    st.lists(
        st.lists(st.sampled_from("abcd"), max_size=6).map(tuple), max_size=8
    )
)
def test_dfg_invariants_on_random_logs(sequences):
    dfg = dfg_from_sequences(Counter(sequences))
    assert sum(dfg.edge_freq.values()) == sum(
        max(len(s) - 1, 0) for s in sequences
    )
    nonempty = sum(1 for s in sequences if s)
    assert sum(dfg.start_freq.values()) == nonempty
    assert sum(dfg.end_freq.values()) == nonempty


@given(
    st.lists(
        st.lists(st.sampled_from("abcd"), max_size=6).map(tuple), max_size=12
    )
)
def test_dfg_of_variant_counts_equals_dfg_of_sequences(sequences):
    assert dfg_from_sequences(Counter(sequences)) == dfg_of_traces(sequences)


def _weighted_dfg_of_traces(variants: dict[tuple[str, ...], int]) -> DirectlyFollowsGraph:
    """``dfg_of_traces`` of each variant alone, times its count."""
    totals: list[Counter] = [Counter(), Counter(), Counter()]
    for seq, count in variants.items():
        one = dfg_of_traces([seq])
        for total, freq in zip(totals, (one.edge_freq, one.start_freq, one.end_freq)):
            for item, n in freq.items():
                total[item] += n * count
    return DirectlyFollowsGraph(*map(dict, totals))


@given(st.dictionaries(
    st.lists(st.sampled_from("abcd"), max_size=6).map(tuple),
    st.sampled_from([1, 2, 3]) | st.integers(1, 10**6), max_size=12))
@example({(): 10**6, ("a",): 1, ("a", "b", "a"): 10**6, ("b", "a"): 1})
@example({(): 1})
def test_dfg_of_multiplicities_equals_dfg_of_traces(variants):
    """Counts from 1 to 10^6, shared or not, and empty variants: against
    the trace list itself where it is small, else each variant's counts
    times its multiplicity."""
    dfg = dfg_from_sequences(variants)
    assert dfg == _weighted_dfg_of_traces(variants)
    if sum(variants.values()) <= 1000:
        assert dfg == dfg_of_traces([s for s, count in variants.items() for _ in range(count)])


# --- expat reader against the ElementTree reference -----------------------

XES_NS = "http://www.xes-standard.org/"
KEYS = ["concept:name", "time:timestamp", "lifecycle:transition", "org:resource"]
_values = st.text(alphabet=st.sampled_from("ab z&<>\"'\u00e9\u4e2d"), max_size=5)


@st.composite
def _attributes(draw, p: str, depth: int = 0) -> list[str]:
    """Attribute elements with prefix *p*: strings, dates and ints, and
    below depth 2 lists and strings/dates with nested attributes, whose
    keys may repeat the ones the reader looks for."""
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["string", "date", "int", "list"]))
        key = quoteattr(draw(st.sampled_from(KEYS)))
        value = quoteattr(draw(_values))
        nested = depth < 2 and (kind == "list" or draw(st.booleans()))
        inner = "".join(draw(_attributes(p, depth + 1))) if nested else ""
        if kind == "list":
            parts.append(f"<{p}list key={key}>{inner}</{p}list>")
        elif nested:
            parts.append(f"<{p}{kind} key={key} value={value}>{inner}</{p}{kind}>")
        else:
            parts.append(f"<{p}{kind} key={key} value={value}/>")
    return parts


@st.composite
def _with_name(draw, p: str, probability: float) -> str:
    """Attributes, with a ``concept:name`` string at a random place in most
    draws."""
    parts = draw(_attributes(p))
    if draw(st.floats(0, 1)) < probability:
        name = quoteattr(draw(_values.filter(bool)))
        parts.insert(draw(st.integers(0, len(parts))),
                     f'<{p}string key="concept:name" value={name}/>')
    return "".join(parts)


@st.composite
def xes_documents(draw) -> bytes:
    """XES documents without, with a default and with a prefixed namespace:
    extensions, globals, classifiers and log attributes before the traces;
    traces whose case id may be missing, repeated, nested or after the
    events; events with timestamps, nested attributes or no activity."""
    namespace = draw(st.sampled_from(["", f' xmlns="{XES_NS}"', f' xmlns:xes="{XES_NS}"']))
    p = "xes:" if "xmlns:xes" in namespace else ""
    body = []
    if draw(st.booleans()):
        body.append(f'<{p}extension name="Concept" prefix="concept" uri="x"/>')
    for scope in draw(st.lists(st.sampled_from(["trace", "event"]), max_size=2)):
        body.append(f'<{p}global scope="{scope}">'
                    f'<{p}string key="concept:name" value="UNKNOWN"/>'
                    f'<{p}date key="time:timestamp" value="1970-01-01"/></{p}global>')
    if draw(st.booleans()):
        body.append(f'<{p}classifier name="Activity" keys="concept:name"/>')
    body.extend(draw(_attributes(p)))
    for _ in range(draw(st.integers(0, 4))):
        items = [f"<{p}event>{draw(_with_name(p, 0.9))}</{p}event>"
                 for _ in range(draw(st.integers(0, 4)))]
        items.insert(draw(st.integers(0, len(items))), draw(_with_name(p, 0.5)))
        body.append(f"<{p}trace>{''.join(items)}</{p}trace>")
    sep = draw(st.sampled_from(["", "\n", "\n  "]))
    doc = (f'<?xml version="1.0" encoding="UTF-8"?>\n'
           f'<{p}log xes.version="1.0"{namespace}>{sep}{sep.join(body)}</{p}log>\n')
    return doc.encode("utf-8")


def _outcome(parse, source):
    try:
        return list(parse(source).variants.items())
    except XesParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


@given(xes_documents(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_parse_xes_equals_etree_reference(doc, compress):
    source = gzip.compress(doc) if compress else doc
    assert _outcome(parse_xes, source) == _outcome(parse_xes_etree, source)


@given(xes_documents(), st.data())
@settings(max_examples=200, deadline=None)
def test_truncated_documents_fail_alike(doc, data):
    cut = data.draw(st.integers(0, len(doc) - 1))
    expected = _outcome(parse_xes_etree, doc[:cut])
    assert _outcome(parse_xes, doc[:cut]) == expected
    assert _outcome(parse_xes, gzip.compress(doc[:cut])) == expected


def test_parse_xes_equals_etree_reference_on_bundled_log(running_example_file):
    assert _outcome(parse_xes, running_example_file) == _outcome(
        parse_xes_etree, running_example_file
    )


# --- the plain scan against the handler pass ------------------------------


@contextmanager
def _scan_limits(chunk: int = event_log.CHUNK, carry: int = event_log.CARRY_LIMIT):
    with mock.patch.object(event_log, "CHUNK", chunk), \
            mock.patch.object(event_log, "CARRY_LIMIT", carry):
        yield


def _parse_noting_pass(source, key: str = "concept:name"):
    """``parse_xes``'s outcome on *source*, and the pass that produced it."""
    calls = []
    handlers = event_log._parse_handlers

    def recording(stream, classifier_key):
        calls.append(classifier_key)
        return handlers(stream, classifier_key)

    with mock.patch.object(event_log, "_parse_handlers", recording):
        outcome = _outcome(lambda s: parse_xes(s, key), source)
    return outcome, "handlers" if calls else "plain"


def _handler_outcome(source, key: str = "concept:name"):
    def parse(src):
        with ExitStack() as stack:
            stream = event_log._gunzip(event_log._binary(src, stack), stack)
            return EventLog(event_log._parse_handlers(stream, key))
    return _outcome(parse, source)


def _etree_outcome(source, key: str = "concept:name"):
    return _outcome(lambda s: parse_xes_etree(s, key), source)


_plain_values = st.text(alphabet=st.sampled_from("ab z>/é中"), min_size=1, max_size=5)


@st.composite
def plain_documents(draw) -> tuple[bytes, str]:
    """Documents inside the plain layout, with their classifier key: each
    event's classifier string first, every attribute self-closing, values
    without references, quotes, tabs or line breaks; an optional
    declaration, byte order mark, default namespace and
    ``<global>``/``<classifier>`` header, and case ids before the events."""
    key = draw(st.sampled_from(["concept:name", "action"]))
    sep = draw(st.sampled_from(["", "\n", "\n  ", "\r\n\t"]))
    namespace = draw(st.sampled_from(["", f' xmlns="{XES_NS}"']))
    body = []
    if draw(st.booleans()):
        body.append('<global scope="event"><string key="concept:name" value="UNKNOWN"/>'
                    '<date key="time:timestamp" value="1970-01-01"/></global>')
    if draw(st.booleans()):
        body.append(f'<classifier name="Activity" keys="{key}"/>')
    if draw(st.booleans()):
        body.append('<string key="concept:name" value="log"/>')
    for case in range(draw(st.integers(0, 5))):
        items = []
        if draw(st.booleans()):
            items.append(f'<string key="concept:name" value="{case}"/>')
        for _ in range(draw(st.integers(0, 4))):
            extra = draw(st.sampled_from([
                "", '<string key="lifecycle:transition" value="complete"/>',
                '<date key="time:timestamp" value="2024-01-01T00:00:00"/>',
                '<list key="l"><int key="n" value="3"/></list>']))
            if key != "concept:name" and draw(st.booleans()):
                extra += '<string key="concept:name" value="other"/>'
            value = draw(_plain_values)
            items.append(f'<event>{draw(st.sampled_from(["", sep]))}'
                         f'<string key="{key}" value="{value}"/>{extra}</event>')
        body.append(f"<trace>{sep.join(items)}</trace>")
    declaration = draw(st.sampled_from([
        "", '<?xml version="1.0"?>\n', '<?xml version="1.0" encoding="UTF-8"?>\n',
        "<?xml version='1.0' encoding='utf-8'?>"]))
    bom = draw(st.sampled_from(["", "﻿"]))
    doc = f'{bom}{declaration}<log xes.version="1.0"{namespace}>{sep}{sep.join(body)}</log>\n'
    return doc.encode("utf-8"), key


@given(plain_documents(), st.sampled_from([5, 64, 1 << 16]), st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_plain_documents_take_the_scan(case, chunk, compress, data):
    doc, key = case
    source = gzip.compress(doc) if compress else doc
    with _scan_limits(chunk=chunk):
        outcome, used = _parse_noting_pass(source, key)
        assert used == "plain"
        assert outcome == _etree_outcome(source, key) == _handler_outcome(source, key)
        cut = doc[:data.draw(st.integers(0, len(doc) - 1))]
        assert _parse_noting_pass(cut, key)[0] == _handler_outcome(cut, key)


_nested_values = _plain_values | st.just("xmlns:x")


@st.composite
def _nested_attributes(draw, keys: list[str], depth: int = 0) -> str:
    """Attribute elements keyed from *keys*, as exporters nest them:
    strings self-closing or holding children, ``<list>`` and
    ``<container>`` with children."""
    parts = []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["string", "string", "list", "container"]))
        key = draw(st.sampled_from(keys))
        inner = draw(_nested_attributes(keys, depth + 1)) if depth < 2 else ""
        if kind != "string":
            parts.append(f'<{kind} key="{key}">{inner}</{kind}>')
            continue
        string = f'<string key="{key}" value="{draw(_nested_values)}"'
        closed = not inner and draw(st.booleans())
        parts.append(f"{string}/>" if closed else f"{string}>{inner}</string>")
    return "".join(parts)


@st.composite
def nested_documents(draw) -> tuple[bytes, bool, str]:
    """Plain-layout documents whose traces and events also carry nested and
    non-self-closing attribute elements, with their classifier key.  In
    the risky ones some of those hold the classifier key, and an event's
    classifier string may hold children; the others the plain scan must
    read."""
    key = draw(st.sampled_from(["concept:name", "action"]))
    risky = draw(st.booleans())
    keys = ["org:resource", "lifecycle:transition", "cost", "concept:name"]
    keys = [k for k in keys if k != key] + [key] * risky
    sep = draw(st.sampled_from(["", "\n  "]))
    body = [draw(_nested_attributes(keys))]
    for _ in range(draw(st.integers(0, 4))):
        items = [draw(_nested_attributes(keys))]
        for _ in range(draw(st.integers(0, 3))):
            value = draw(_plain_values)
            inner = draw(_nested_attributes(keys)) if risky and draw(st.booleans()) else ""
            string = f'<string key="{key}" value="{value}"'
            string += f">{inner}</string>" if inner else "/>"
            items.append(f"<event>{string}{draw(_nested_attributes(keys))}</event>")
        body.append(f"<trace>{sep.join(items)}</trace>")
    doc = f'<?xml version="1.0" encoding="UTF-8"?>\n<log>{sep}{sep.join(body)}</log>\n'
    return doc.encode("utf-8"), risky, key


@given(nested_documents(), st.sampled_from([5, 64, 1 << 16]), st.booleans())
@settings(max_examples=300, deadline=None)
def test_nested_attributes_read_alike(case, chunk, compress):
    doc, risky, key = case
    source = gzip.compress(doc) if compress else doc
    with _scan_limits(chunk=chunk):
        outcome, used = _parse_noting_pass(source, key)
    assert outcome == _etree_outcome(source, key) == _handler_outcome(source, key)
    assert risky or used == "plain"


PLAIN = b"""<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0">
  <trace>
    <string key="concept:name" value="1"/>
    <event>
      <string key="concept:name" value="a"/>
      <date key="time:timestamp" value="2024-01-01T00:00:00"/>
    </event>
    <event><string key="concept:name" value="b"/></event>
  </trace>
  <trace><event><string key="concept:name" value="c"/></event></trace>
</log>
"""
A = b'<string key="concept:name" value="a"/>'
B = b'<event><string key="concept:name" value="b"/></event>'
PLAIN_BODY = PLAIN.split(b"?>\n", 1)[1].decode()


def _swap(old: bytes, new: bytes, doc: bytes = PLAIN) -> bytes:
    assert old in doc
    return doc.replace(old, new, 1)


def _lead_byte_at(end: int, after: bytes = b"") -> bytes:
    """PLAIN with a lone UTF-8 lead byte at offset *end* - 1, then ASCII
    and *after*."""
    at = PLAIN.index(b"2024-01-01T00:00:00")
    doc = _swap(b"2024-", b"x" * (end - 1 - at) + b"\xc3" + after + b"-")
    assert doc[end - 1] == 0xC3 and doc[end] < 0x80
    return doc


# One document per guard of the plain scan; each must take the handler pass.
PERTURBED = {
    "utf-16 with byte order mark": PLAIN_BODY.encode("utf-16"),
    "utf-16 without byte order mark": PLAIN_BODY.encode("utf-16-be"),
    "declared latin-1": _swap(b'encoding="UTF-8"', b'encoding="ISO-8859-1"',
                              _swap(b'value="a"', 'value="Ã©"'.encode("latin-1"))),
    "comment": _swap(B, b'<!-- <event><string key="concept:name" value="x"/></event> -->' + B),
    "CDATA": _swap(A, A + b'<![CDATA[</event><event><string key="concept:name" value="x"/>]]>'),
    "DOCTYPE": _swap(b"<log", b'<!DOCTYPE log [<!ATTLIST string key CDATA "concept:name">]>\n<log',
                     _swap(A, A + b'<string value="z"/>')),
    "processing instruction": _swap(B, b'<?pi <event><string key="concept:name" value="x"/>'
                                       b'</event>?>' + B),
    "comment after the declaration": _swap(b"?>\n", b"?>\n<!-- exported -->\n"),
    "reference": _swap(b'value="a"', b'value="a&amp;&#98;"'),
    "prefixed namespace declared, not used": _swap(b"<log ", b'<log xmlns:x="urn:x" '),
    "prefixed elements": PLAIN.replace(b"<log ", b'<x:log xmlns:x="urn:x" ').replace(
        b"</log", b"</x:log").replace(b"trace>", b"x:trace>").replace(b"<event>", b"<x:event>"
    ).replace(b"</event>", b"</x:event>"),
    "xml: prefix": _swap(b"</log>", b"<xml:trace></xml:trace></log>"),
    "tab in value": _swap(b'value="a"', b'value="a\tb"'),
    "line feed in value": _swap(b'value="a"', b'value="a\nb"'),
    "carriage return in value": _swap(b'value="a"', b'value="a\rb"'),
    "empty activity": _swap(b'value="a"', b'value=""'),
    "event with an attribute": _swap(b"<event>", b'<event id="1">'),
    "classifier string not first": _swap(A, b'<int key="n" value="1"/>' + A),
    "nested events": _swap(B, b'<event><string key="concept:name" value="x"/>' + B + b"</event>"),
    "second classifier string": _swap(A, A + b'<string key="concept:name" value="z"/>'),
    "single-quoted classifier key": _swap(A, A + b"<string key='concept:name' value='z'/>"),
    "event before the first trace": _swap(b"<trace>", B + b"<trace>"),
    "event after the last trace": _swap(b"</log>", B + b"</log>"),
    "empty-element trace": _swap(b"</log>", b"<trace/></log>"),
    "nested traces": _swap(b"<trace><event>", b"<trace><trace><event>").replace(
        b"</trace>\n</log>", b"</trace></trace>\n</log>"),
    "last trace closed with a space": _swap(b"</trace>\n</log>", b"</trace >\n</log>"),
    # One document per rule of the trace grammar and the head/tail check.
    "less-than in a value": _swap(b"2024-01-01T00:00:00", b"2024<01"),
    "invalid UTF-8 byte": _swap(b'value="a"', b'value="a\xff"'),
    "lead byte at a chunk end before ASCII": _lead_byte_at(320),
    "lead byte, ASCII chunks, continuation byte": _lead_byte_at(320, b"y" * 320 + b"\xa9"),
    "U+FFFE": _swap(b'value="a"', 'value="a\ufffe"'.encode()),
    "U+FFFF": _swap(b'value="a"', 'value="a\uffff"'.encode()),
    "C0 control in a value": _swap(b"2024-01-01T00:00:00", b"2024\x01"),
    "form feed between traces": _swap(b"</trace>\n  <trace>", b"</trace>\f<trace>"),
    "unclosed event": _swap(B, B[:-len(b"</event>")]),
    "mis-nested end tag": _swap(A, A + b'<list key="l"></string>'),
    "trace with an attribute": _swap(b"<trace><event>", b'<trace id="2"><event>'),
    "attribute element without a key": _swap(A, A + b'<string value="z"/>'),
    "reference in a value": _swap(b"2024-01-01T00:00:00", b"2024&amp;01"),
    "classifier string with children": _swap(A, A[:-2] + b'><int key="n" value="1"/></string>'),
    "element outside the attribute kinds": _swap(A, A + b'<object key="k" value="v"/>'),
    "list with values": _swap(A, A + b'<list key="l"><values><int key="n" value="1"/>'
                                     b"</values></list>"),
    "empty-element trace in the head": _swap(b"<trace>", b"<trace/><trace>"),
    "root closed before the traces": _swap(b'1.0">', b'1.0"/>', _swap(b"</log>\n", b"")),
    "traces without a root element": _swap(b'<log xes.version="1.0">', b"",
                                           _swap(b"</log>\n", b"")),
    "utf-16 without traces": "<log></log>".encode("utf-16-be"),
    # One document per tiling rule of the token split.
    "text between two events": _swap(b"</event>\n    <event>", b"</event>\n    text\n    <event>"),
    "text right after <trace>": _swap(b"<trace><event>", b"<trace>text<event>"),
    "attribute element between traces": _swap(
        b"</trace>\n  <trace>", b'</trace>\n  <string key="concept:name" value="x"/>\n  <trace>'),
    "lone </event>": _swap(B, B + b"</event>"),
}


@pytest.mark.parametrize("doc", PERTURBED.values(), ids=PERTURBED.keys())
def test_documents_outside_the_plain_layout_take_the_handler_pass(doc):
    outcome, used = _parse_noting_pass(doc)
    assert used == "handlers"
    assert outcome == _etree_outcome(doc) == _handler_outcome(doc)
    assert _parse_noting_pass(gzip.compress(doc)) == (outcome, "handlers")


# Documents the plain scan reads, though they look like a guard's case.
SCANNED = {
    "closing string tag": _swap(A, A + b'<string key="org:resource" value="r"></string>'),
    "nested attributes": _swap(A, A + b'<container key="c"><list key="l"><string key="r" '
                                   b'value="v"><int key="n" value="1"/></string></list>'
                                   b'</container>'),
    "xmlns: in a value": _swap(A, A + b'<string key="note" value="xmlns:x"/>'),
    "nested attributes in the trace and in an event": _swap(
        b'<string key="concept:name" value="1"/>',
        b'<list key="ids"><string key="concept:name" value="1"/></list>',
        _swap(A, A + b'<container key="c"><int key="n" value="1"/></container>')),
}


@pytest.mark.parametrize("doc", SCANNED.values(), ids=SCANNED.keys())
def test_plain_layout_variants_take_the_scan(doc):
    outcome, used = _parse_noting_pass(doc)
    assert used == "plain"
    assert outcome == _etree_outcome(doc) == _handler_outcome(doc)
    assert outcome == [(("a", "b"), 1), (("c",), 1)]


# Documents whose outcome must equal the handler pass's, whichever pass reads
# them.
EITHER = {
    "text between traces": _swap(b"</trace>\n  <trace>", b"</trace>\n  text\n  <trace>"),
    "space before />": _swap(A, b'<string key="concept:name" value="a" />'),
}


@pytest.mark.parametrize("chunk", [5, 64, 1 << 16])
@pytest.mark.parametrize("doc, expected", [
    *((doc, "handlers") for doc in PERTURBED.values()),
    *((doc, "plain") for doc in SCANNED.values()),
    *((doc, None) for doc in EITHER.values())],
    ids=[*PERTURBED, *SCANNED, *EITHER])
def test_every_case_reads_alike_at_every_chunk_size(doc, expected, chunk):
    with _scan_limits(chunk=chunk):
        outcome, used = _parse_noting_pass(doc)
        assert _parse_noting_pass(gzip.compress(doc)) == (outcome, used)
    if expected:
        assert used == expected
    assert outcome == _etree_outcome(doc) == _handler_outcome(doc)


def test_a_root_closed_before_the_traces_is_an_error():
    doc = PERTURBED["root closed before the traces"]
    with pytest.raises(XesParseError, match="junk after document element"):
        parse_xes(doc)


def test_a_header_comment_stops_the_scan_at_the_first_trace():
    doc = PERTURBED["comment after the declaration"]
    stream = io.BytesIO(doc)
    with _scan_limits(chunk=16):
        assert event_log._scan_plain(stream, "concept:name") is None
    assert stream.tell() < doc.index(b"</trace>")


def test_plain_document_takes_the_scan():
    outcome, used = _parse_noting_pass(PLAIN)
    assert used == "plain"
    assert outcome == [(("a", "b"), 1), (("c",), 1)] == _handler_outcome(PLAIN)


def test_classifier_key_outside_the_plain_subset_takes_the_handler_pass():
    doc = PLAIN.replace(b"concept:name", b"concept name")
    outcome, used = _parse_noting_pass(doc, "concept name")
    assert used == "handlers"
    assert outcome == [(("a", "b"), 1), (("c",), 1)]


def test_first_segment_ending_inside_a_processing_instruction_takes_the_handler_pass():
    doc = b'<?xml-stylesheet type="<trace></trace>"?>' + PLAIN_BODY.encode()
    for chunk in (5, event_log.CHUNK):
        with _scan_limits(chunk=chunk):
            outcome, used = _parse_noting_pass(doc)
        assert used == "handlers"
        assert outcome == _handler_outcome(doc) == [(("a", "b"), 1), (("c",), 1)]


def test_a_trace_past_the_carry_bound_takes_the_handler_pass():
    long_trace = b"<trace>" + B * 12 + b"</trace>"
    doc = _swap(b"</log>", long_trace + b"</log>")
    assert len(long_trace) > 512
    with _scan_limits(chunk=16, carry=512):
        assert _parse_noting_pass(PLAIN)[1] == "plain"
        outcome, used = _parse_noting_pass(doc)
    assert used == "handlers"
    assert outcome == _handler_outcome(doc) == [(("a", "b"), 1), (("c",), 1), (("b",) * 12, 1)]


# --- possessive and greedy grammars -----------------------------------------


def _splits(cases) -> list[list]:
    """Each grammar's split of every piece of every (document, key) case
    cut at ``</trace>``, flat and nested."""
    return [event_log._grammar(re.escape(key.encode()), depth).split(trace)
            for doc, key in cases for trace in doc.split(b"</trace>")[:-1]
            for depth in (1, 4)]


def _greedy_and_possessive_splits(cases) -> tuple[list, list]:
    with mock.patch.object(event_log, "_POSSESSIVE", b""):
        event_log._grammar.cache_clear()
        try:
            assert b"*+" not in event_log._grammar(b"k", 4).pattern
            greedy = _splits(cases)
        finally:
            event_log._grammar.cache_clear()
    assert b"*+" in event_log._grammar(b"k", 4).pattern
    return greedy, _splits(cases)


needs_possessive = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="re has possessive quantifiers from Python 3.11")


@needs_possessive
@given(st.one_of(plain_documents(), nested_documents().map(lambda case: (case[0], case[2]))))
@settings(max_examples=200, deadline=None)
def test_greedy_and_possessive_grammars_split_generated_traces_alike(case):
    greedy, possessive = _greedy_and_possessive_splits([case])
    assert greedy == possessive


@needs_possessive
def test_greedy_and_possessive_grammars_split_every_case_alike():
    cases = [(doc, "concept:name") for doc in [*PERTURBED.values(), *SCANNED.values()]]
    greedy, possessive = _greedy_and_possessive_splits(cases)
    assert len(greedy) > 2 * len(cases)
    assert greedy == possessive
