"""The ElementTree XES reader, kept as the reference ``parse_xes`` is
checked against, and ``dump_xes``, which writes a log back as plain XES.

It walks ``ET.iterparse`` start/end events and reads each ``<string>`` and
``<date>`` attribute when its element ends.  Sources are opened by the
package's ``_open_source``, so the two readers differ only in how the XML
is walked.  Errors carry the line and column of the ElementTree
``ParseError``.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
import io
from contextlib import ExitStack
from xml.parsers import expat

from procshap.event_log import (
    Event,
    EventLog,
    Source,
    Trace,
    XesParseError,
    _localname,
    _open_source,
)


def parse_xes_etree(source: Source, classifier_key: str = "concept:name") -> EventLog:
    traces: list[Trace] = []
    trace_index = 0
    case_id: str | None = None
    events: list[Event] = []
    in_trace = False
    pending: dict[str, str | None] = {}
    in_event = False

    with ExitStack() as stack:
        stream = _open_source(source, stack)
        try:
            for action, elem in ET.iterparse(stream, events=("start", "end")):
                tag = _localname(elem.tag)
                if action == "start":
                    if tag == "trace":
                        in_trace = True
                        case_id = None
                        events = []
                    elif tag == "event":
                        in_event = True
                        pending = {"activity": None, "timestamp": None}
                    continue
                if tag in ("string", "date") and (in_event or in_trace):
                    key = elem.get("key")
                    value = elem.get("value")
                    if in_event:
                        if key == classifier_key and tag == "string":
                            pending["activity"] = value
                        elif key == "time:timestamp" and tag == "date":
                            pending["timestamp"] = value
                    elif key == "concept:name" and tag == "string" and case_id is None:
                        case_id = value
                elif tag == "event":
                    in_event = False
                    if not pending.get("activity"):
                        raise XesParseError(
                            f"event without string attribute {classifier_key!r} "
                            f"in trace {trace_index}"
                        )
                    events.append(
                        Event(activity=pending["activity"], timestamp=pending["timestamp"])
                    )
                    elem.clear()
                elif tag == "trace":
                    in_trace = False
                    traces.append(
                        Trace(case_id=case_id or f"case_{trace_index}", events=tuple(events))
                    )
                    trace_index += 1
                    elem.clear()
        except ET.ParseError as exc:
            line, column = exc.position
            raise XesParseError(
                f"malformed XES XML: {expat.ErrorString(exc.code)}", line, column
            ) from exc

    return EventLog(traces=tuple(traces))


def dump_xes(log: EventLog) -> bytes:
    """Serialize a log back to plain XES (the debug round-trip format)."""

    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    out.write('<log xes.version="1.0" xes.features="">\n')
    for trace in log.traces:
        out.write("  <trace>\n")
        out.write(f'    <string key="concept:name" value="{_escape(trace.case_id)}"/>\n')
        for event in trace.events:
            out.write("    <event>\n")
            out.write(
                f'      <string key="concept:name" value="{_escape(event.activity)}"/>\n'
            )
            if event.timestamp:
                out.write(
                    f'      <date key="time:timestamp" value="{_escape(event.timestamp)}"/>\n'
                )
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
