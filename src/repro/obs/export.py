"""Trace exporters: Chrome ``trace_event`` JSON and JSONL.

The Chrome format loads into ``chrome://tracing`` / Perfetto: spans
become complete (``"ph": "X"``) events on per-category tracks, causal
parent links become flow arrows (``"s"``/``"f"`` pairs), and FaultLog
episodes render as a dedicated ``faults`` track so an actuation can be
eyeballed against the outage that delayed it. Timestamps are simulated
seconds scaled to microseconds (the format's native unit).

JSONL is the machine-consumption format: one JSON object per line with a
``type`` discriminator (``span`` | ``provenance`` | ``fault``), which
streams into jq/pandas without loading the whole run.
"""

from __future__ import annotations

import json
from typing import IO

from repro.obs.tracing import Trace

#: Simulated seconds → exported microseconds.
TIME_SCALE = 1e6

#: Stable track (tid) assignment per span category.
_CATEGORY_TRACKS = {
    "metrics": 1,
    "control": 2,
    "actuation": 3,
    "api": 4,
    "ha": 5,
    "sched": 8,
    "dp": 9,
    "store": 10,
}
_FAULT_TRACK = 6
_DEFAULT_TRACK = 7

#: Minimum exported duration (µs) so zero-length sim spans stay visible.
_MIN_DUR_US = 1.0


def _json_safe(value):
    try:
        json.dumps(value)
        return value
    except TypeError:
        return repr(value)


def _span_args(span) -> dict:
    args = {k: _json_safe(v) for k, v in span.args.items()}
    args["span_id"] = span.id
    if span.parent_id is not None:
        args["parent_id"] = span.parent_id
    return args


def to_chrome_trace(trace: Trace, *, fault_log=None) -> dict:
    """Build the ``trace_event`` JSON object for a run."""
    events: list[dict] = []
    end_of_trace = max((s.end for s in trace.spans), default=0.0)
    for span in trace.spans:
        tid = _CATEGORY_TRACKS.get(span.cat, _DEFAULT_TRACK)
        ts = span.start * TIME_SCALE
        events.append({
            "name": span.name,
            "cat": span.cat or "misc",
            "ph": "X",
            "ts": ts,
            "dur": max(span.duration * TIME_SCALE, _MIN_DUR_US),
            "pid": 1,
            "tid": tid,
            "args": _span_args(span),
        })
        if span.parent_id is not None:
            parent = trace.get(span.parent_id)
            if parent is not None:
                # One flow arrow per causal edge, id'd by the child span.
                flow_cat = span.cat or "misc"
                events.append({
                    "name": "link",
                    "cat": flow_cat,
                    "ph": "s",
                    "id": span.id,
                    "ts": parent.start * TIME_SCALE,
                    "pid": 1,
                    "tid": _CATEGORY_TRACKS.get(parent.cat, _DEFAULT_TRACK),
                })
                events.append({
                    "name": "link",
                    "cat": flow_cat,
                    "ph": "f",
                    "bp": "e",
                    "id": span.id,
                    "ts": ts,
                    "pid": 1,
                    "tid": tid,
                })
    if fault_log is not None:
        for episode in fault_log.episodes:
            end = episode.end if episode.end is not None else end_of_trace
            events.append({
                "name": episode.kind,
                "cat": "fault",
                "ph": "X",
                "ts": episode.start * TIME_SCALE,
                "dur": max((end - episode.start) * TIME_SCALE, _MIN_DUR_US),
                "pid": 1,
                "tid": _FAULT_TRACK,
                "args": {
                    "eid": episode.eid,
                    "target": episode.target,
                    "detail": episode.detail,
                    "domain": episode.domain,
                },
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "spans": len(trace.spans),
            "provenance_records": len(trace.provenance),
            "time_unit": "simulated seconds x 1e6",
        },
    }


def write_chrome_trace(trace: Trace, path: str, *, fault_log=None) -> int:
    """Write the Chrome trace file; returns the number of trace events."""
    doc = to_chrome_trace(trace, fault_log=fault_log)
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return len(doc["traceEvents"])


def _write_jsonl(trace: Trace, handle: IO[str], *, fault_log=None) -> int:
    lines = 0
    for span in trace.spans:
        record = span.as_dict()
        record["type"] = "span"
        record["args"] = {k: _json_safe(v) for k, v in record["args"].items()}
        handle.write(json.dumps(record) + "\n")
        lines += 1
    for prov in trace.provenance:
        record = prov.as_dict()
        record["type"] = "provenance"
        record["target"] = _json_safe(record["target"])
        handle.write(json.dumps(record) + "\n")
        lines += 1
    if fault_log is not None:
        for episode in fault_log.episodes:
            handle.write(json.dumps({
                "type": "fault",
                "eid": episode.eid,
                "kind": episode.kind,
                "target": episode.target,
                "start": episode.start,
                "end": episode.end,
                "detail": episode.detail,
                "domain": episode.domain,
            }) + "\n")
            lines += 1
    return lines


def write_trace_jsonl(trace: Trace, path: str, *, fault_log=None) -> int:
    """Write spans + provenance (+ faults) as JSONL; returns line count."""
    with open(path, "w") as handle:
        return _write_jsonl(trace, handle, fault_log=fault_log)


def filter_trace(
    trace: Trace,
    *,
    name_prefix: str | None = None,
    since: float | None = None,
) -> Trace:
    """Slice a trace down for export: spans whose name starts with
    ``name_prefix`` (when given) and that start at or after ``since``
    (when given).

    Provenance records are kept when their decision span survives the
    filter, so a sliced JSONL stays internally consistent. Parent ids
    are preserved as-is — an ancestor outside the slice simply has no
    matching ``span`` line, which consumers already tolerate (the Chrome
    exporter guards every flow arrow with ``trace.get``).
    """
    spans = trace.spans
    if name_prefix is not None:
        spans = [s for s in spans if s.name.startswith(name_prefix)]
    if since is not None:
        spans = [s for s in spans if s.start >= since]
    kept_ids = {s.id for s in spans}
    out = Trace()
    for span in spans:
        out.add(span)
    out.provenance = [
        p for p in trace.provenance if p.span_id in kept_ids
    ]
    return out
