from __future__ import annotations

import gc
import gzip
import io
import warnings
from collections import Counter
from pathlib import Path
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import given, settings, strategies as st

from procshap import event_log
from procshap.event_log import (
    EventLog,
    XesParseError,
    build_dfg,
    dfg_from_sequences,
    dump_xes,
    parse_xes,
)

from _xes_etree import parse_xes_etree

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
    assert log.traces[0].activities() == ("a", "b")
    assert log.traces[0].case_id == "t1"
    assert log.alphabet == {"a", "b"}


def test_parse_running_example(running_example_file):
    # Expected values frozen from an independent inspection of the raw
    # XML (grep for <trace>, regex over event classifier values):
    # 6 traces, 42 events, 8 distinct activities.
    log = parse_xes(running_example_file)
    assert len(log) == 6
    assert sum(len(t.events) for t in log.traces) == 42
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
    assert log.traces[0].activities() == ("ship",)


def test_namespaced_document():
    doc = b"""<log xmlns="http://www.xes-standard.org/"><trace>
      <event><string key="concept:name" value="a"/></event>
    </trace></log>"""
    assert parse_xes(doc).alphabet == {"a"}


def test_roundtrip_through_dump(running_example_file):
    log = parse_xes(running_example_file)
    assert parse_xes(dump_xes(log)) == log


def test_timestamps_carried(running_example_file):
    log = parse_xes(running_example_file)
    first = log.traces[0].events[0]
    assert first.timestamp is not None and first.timestamp.startswith("2010-12-31")


def test_event_requires_activity():
    from procshap.event_log import Event

    with pytest.raises(ValueError):
        Event(activity="")


def test_build_dfg_weighted_counts():
    dfg = dfg_from_sequences({("a", "b"): 3, ("a",): 2, (): 4})
    assert dfg.edge_freq == {("a", "b"): 3}
    assert dfg.start_freq == {"a": 5}
    assert dfg.end_freq == {"b": 3, "a": 2}
    assert dfg.activity_freq == {"a": 5, "b": 3}


def test_build_dfg_counts():
    dfg = dfg_from_sequences([("a", "b"), ("a", "c")])
    assert dfg.edge_freq == {("a", "b"): 1, ("a", "c"): 1}
    assert dfg.start_freq == {"a": 2}
    assert dfg.end_freq == {"b": 1, "c": 1}
    assert dfg.activity_freq == {"a": 2, "b": 1, "c": 1}


def test_build_dfg_empty_log():
    dfg = build_dfg(EventLog())
    assert dfg.edge_freq == {} and dfg.start_freq == {} and dfg.end_freq == {}


def test_build_dfg_self_loop():
    dfg = dfg_from_sequences([("a", "a", "a")])
    assert dfg.edge_freq == {("a", "a"): 2}
    assert dfg.start_freq == {"a": 1} and dfg.end_freq == {"a": 1}


@given(
    st.lists(
        st.lists(st.sampled_from("abcd"), max_size=6).map(tuple), max_size=8
    )
)
def test_dfg_invariants_on_random_logs(sequences):
    dfg = dfg_from_sequences(sequences)
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
    assert dfg_from_sequences(Counter(sequences)) == dfg_from_sequences(sequences)


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
        return parse(source)
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
    assert parse_xes(running_example_file) == parse_xes_etree(running_example_file)
