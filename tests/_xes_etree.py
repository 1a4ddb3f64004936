"""The ElementTree XES reader, kept as the reference ``parse_xes`` is
checked against, and ``dump_xes``, which writes a log back as plain XES.

It walks ``ET.iterparse`` start/end events and reads each ``<string>``
attribute when its element ends.  Sources are opened by the package's
``_binary`` and ``_gunzip``, so the two readers differ only in how the XML
is walked.
Errors carry the line and column of the ElementTree ``ParseError``.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
import io
from collections import Counter
from contextlib import ExitStack
from xml.parsers import expat

from procshap.event_log import (
    EventLog,
    Source,
    XesParseError,
    _binary,
    _gunzip,
    _localname,
)


def parse_xes_etree(source: Source, classifier_key: str = "concept:name") -> EventLog:
    variants: Counter = Counter()
    trace_index = 0
    events: list[str] = []
    activity: str | None = None
    in_event = False

    with ExitStack() as stack:
        stream = _gunzip(_binary(source, stack), stack)
        try:
            for action, elem in ET.iterparse(stream, events=("start", "end")):
                tag = _localname(elem.tag)
                if action == "start":
                    if tag == "trace":
                        events = []
                    elif tag == "event":
                        in_event = True
                        activity = None
                    continue
                if tag == "string" and in_event:
                    if elem.get("key") == classifier_key:
                        activity = elem.get("value")
                elif tag == "event":
                    in_event = False
                    if not activity:
                        raise XesParseError(
                            f"event without string attribute {classifier_key!r} "
                            f"in trace {trace_index}"
                        )
                    events.append(activity)
                    elem.clear()
                elif tag == "trace":
                    variants[tuple(events)] += 1
                    trace_index += 1
                    elem.clear()
        except ET.ParseError as exc:
            line, column = exc.position
            raise XesParseError(
                f"malformed XES XML: {expat.ErrorString(exc.code)}", line, column
            ) from exc

    return EventLog(variants)


def dump_xes(log: EventLog) -> bytes:
    """Serialize a log back to plain XES (the debug round-trip format):
    each variant as many times as it occurs, in the log's order."""

    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    out.write('<log xes.version="1.0" xes.features="">\n')
    for activities in log.variants.elements():
        out.write("  <trace>\n")
        for activity in activities:
            out.write("    <event>\n")
            out.write(f'      <string key="concept:name" value="{_escape(activity)}"/>\n')
            out.write("    </event>\n")
        out.write("  </trace>\n")
    out.write("</log>\n")
    return out.getvalue().encode("utf-8")


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
