"""Trace export: JSONL streaming and Chrome trace-event (Perfetto) files.

Two formats, one source of truth (:class:`~repro.sim.tracing.TraceRecord`):

* **JSONL** — one compact, key-sorted JSON object per record, written
  by :class:`~repro.obs.spill.TraceSpiller` (:func:`write_jsonl` is its
  one-shot form).  Because the encoder is canonical (sorted keys, fixed
  separators, ``repr`` floats), re-exporting the same records is
  byte-identical — the determinism guard the test suite leans on.
* **Chrome trace-event JSON** — loadable in ``chrome://tracing`` or
  https://ui.perfetto.dev.  VMs and devices map to tracks; phases,
  requests, switches, and faults map to duration events; one-shot
  markers map to instants.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim.tracing import TraceRecord

__all__ = [
    "encode_record",
    "decode_record",
    "write_jsonl",
    "load_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
]

#: Chrome trace timestamps are microseconds.
_US = 1e6


#: Encodes every value the fast paths below do not take: one encoder,
#: configured like the reference ``json.dumps`` call.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_INF = float("inf")


def _float(value: float) -> str:
    return float.__repr__(value) if -_INF < value < _INF else _encode(value)


#: Exact value types encoded without ``_encode`` (or, for a non-empty
#: list, with it), to the text it would give them.  Subclasses (bool,
#: numpy scalars) are not exact matches.
_FAST = {str: encode_basestring_ascii, int: int.__repr__, float: _float,
         list: lambda value: _encode(value) if value else "[]"}


def _template(topic: str, payload: Dict[str, Any]) -> Tuple[str, Tuple[str, ...]]:
    """The ``%``-format line and sorted payload keys of one record shape."""
    def literal(text: str) -> str:
        return encode_basestring_ascii(text).replace("%", "%%")

    keys = tuple(sorted(payload))
    fields = ",".join(literal(k) + ":%s" for k in keys)
    return ('{"payload":{' + fields + '},"time":%s,"topic":' + literal(topic)
            + "}"), keys


def encode_record(record: TraceRecord,
                  templates: Optional[Dict[tuple, tuple]] = None) -> str:
    """Canonical one-line JSON for a record (byte-stable re-export).

    The text is ``json.dumps({"time": .., "topic": .., "payload": ..},
    sort_keys=True, separators=(",", ":"))``, formatted from a template
    per (topic, payload keys) shape: the sorted, escaped key text is
    built once per shape and kept in ``templates`` (pass one dict per
    output stream), and exact str/int/float values and empty lists are
    rendered directly.  Other values, and payloads with a non-``str``
    key, go through the JSON encoder.
    """
    time, topic, payload = record
    if type(topic) is str and type(payload) is dict:
        if templates is None:
            templates = {}
        shape = (topic, tuple(payload))
        template = templates.get(shape)
        if template is None and all(type(k) is str for k in payload):
            template = templates[shape] = _template(topic, payload)
        if template is not None:
            line, keys = template
            values = [payload[k] for k in keys]
            values.append(time)
            return line % tuple([_FAST.get(type(v), _encode)(v) for v in values])
    return _encode({"time": time, "topic": topic, "payload": payload})


def decode_record(line: str) -> TraceRecord:
    obj = json.loads(line)
    return TraceRecord(time=obj["time"], topic=obj["topic"],
                       payload=obj["payload"])


def write_jsonl(records: Iterable[TraceRecord], path: Path | str) -> int:
    """One-shot export through the streaming writer; returns the count."""
    from .spill import TraceSpiller  # spill imports this module

    spiller = TraceSpiller(path)
    for record in records:
        spiller.add(record)
    return spiller.close()


def load_jsonl(path: Path | str) -> List[TraceRecord]:
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(decode_record(line))
    return records


# -- Chrome trace-event export --------------------------------------------------------


def _track_ids(records: Sequence[TraceRecord]) -> Dict[str, int]:
    """Stable pid assignment: every device (Dom0 disk or guest vdisk)
    gets its own track, sorted by name; pid 0 is the job/control track."""
    devices = sorted({
        r.payload["device"] for r in records
        if r.topic.startswith("disk.") and "device" in r.payload
    })
    return {name: pid for pid, name in enumerate(devices, start=1)}


def to_chrome_trace(records: Sequence[TraceRecord]) -> Dict[str, Any]:
    """Chrome trace-event JSON (dict form) for a recorded run.

    Mapping:

    * job phases (``job.start``/``maps_done``/``shuffle_done``/``done``)
      → ``X`` duration events on the ``job`` track (pid 0);
    * block requests (``disk.submit`` → ``disk.complete``) → ``X``
      events on the owning device's track, one per rid (merged rids
      share the completion edge);
    * elevator switches → ``X`` events spanning the measured stall;
    * faults with durations (``fault.vm_pause``, ``fault.disk_slow``)
      → ``X`` events; one-shot faults/retries/speculation → ``i``
      instants on the control track.
    """
    pids = _track_ids(records)
    events: List[Dict[str, Any]] = []
    for name, pid in [("job", 0), *sorted(pids.items())]:
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name},
        })

    submits: Dict[tuple, TraceRecord] = {}
    marks: Dict[str, float] = {}

    def x_event(name, ts, dur, pid, cat, args=None):
        events.append({
            "name": name, "ph": "X", "ts": round(ts * _US, 3),
            "dur": round(max(dur, 0.0) * _US, 3), "pid": pid, "tid": 0,
            "cat": cat, "args": args or {},
        })

    def instant(name, ts, pid, cat, args=None):
        events.append({
            "name": name, "ph": "i", "ts": round(ts * _US, 3), "pid": pid,
            "tid": 0, "s": "g", "cat": cat, "args": args or {},
        })

    for record in records:
        topic, p, t = record.topic, record.payload, record.time
        if topic == "disk.submit":
            submits[(p["device"], p["rid"])] = record
        elif topic == "disk.complete":
            device = p["device"]
            pid = pids.get(device, 0)
            for rid in [p["rid"], *p.get("merged_rids", ())]:
                sub = submits.pop((device, rid), None)
                if sub is None:
                    continue
                x_event(
                    f"{sub.payload.get('op', 'io')} rid={rid}",
                    sub.time, t - sub.time, pid, "io",
                    {"lba": sub.payload.get("lba"),
                     "nsectors": sub.payload.get("nsectors"),
                     "process": sub.payload.get("process")},
                )
        elif topic == "disk.switched":
            stall = p.get("stall", 0.0)
            x_event(f"elv→{p.get('scheduler', '?')}", t - stall, stall,
                    pids.get(p["device"], 0), "switch")
        elif topic == "job.start":
            marks["start"] = t
        elif topic == "job.maps_done":
            if "start" in marks:
                x_event("phase:map", marks["start"], t - marks["start"], 0,
                        "phase")
            marks["maps_done"] = t
        elif topic == "job.shuffle_done":
            if "maps_done" in marks:
                x_event("phase:shuffle", marks["maps_done"],
                        t - marks["maps_done"], 0, "phase")
            marks["shuffle_done"] = t
        elif topic == "job.done":
            tail_from = marks.get("shuffle_done", marks.get("maps_done"))
            if tail_from is not None:
                x_event("phase:reduce", tail_from, t - tail_from, 0, "phase")
            marks["done"] = t
        elif topic == "fault.vm_pause":
            x_event(f"pause {p['vm']}", t, p.get("duration", 0.0), 0, "fault")
        elif topic == "fault.disk_slow":
            x_event(f"disk_slow {p['host']}", t, p.get("duration", 0.0), 0,
                    "fault", {"factor": p.get("factor")})
        elif topic in ("fault.vm_crash", "task.retry", "task.speculative",
                       "cluster.set_pair", "job.map_finished"):
            instant(topic, t, 0, topic.split(".")[0], dict(p))

    events.sort(key=lambda e: (e["ph"] != "M", e.get("ts", 0.0), e["pid"],
                               e["name"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(records: Sequence[TraceRecord], path: Path | str) -> int:
    """Write the Chrome trace for ``records``; returns the event count."""
    trace = to_chrome_trace(records)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace, sort_keys=True), encoding="utf-8")
    return len(trace["traceEvents"])
