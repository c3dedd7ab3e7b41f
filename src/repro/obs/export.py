"""Trace export: Chrome trace-event JSON and a JSON-lines event log.

The batch :class:`~repro.sim.trace.Tracer` holds everything Projections
would: per-PE execution intervals and message lifecycle events.  This
module serializes that record into two interchange formats:

* **Chrome trace-event JSON** (:func:`export_chrome_trace`) — open the
  file in ``chrome://tracing`` or https://ui.perfetto.dev and the
  Figure-2 timeline renders interactively: one track per PE with
  entry-method slices, async spans for WAN flights, instant markers for
  drops and retransmissions.  Format reference: the "Trace Event
  Format" document (JSON Array / JSON Object variants; we emit the
  object form with ``traceEvents``).
* **JSON-lines event log** (:func:`write_event_log`) — one structured
  record per line, trivially greppable / loadable into pandas, for
  offline analysis that outgrows the built-in queries.

Timestamps are microseconds (the trace-event format's unit); virtual
time zero maps to ts zero.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.obs.health import HealthEvent
from repro.sim.trace import Tracer

#: Event phases this exporter emits (subset of the trace-event format).
_PHASES = {"X", "b", "e", "i", "M", "s", "t", "f", "C"}

_SEC_TO_US = 1e6


def chrome_trace_events(tracer: Tracer,
                        health_events: Optional[Sequence[HealthEvent]] = None
                        ) -> List[Dict[str, Any]]:
    """Build the ``traceEvents`` list for *tracer*'s recorded run.

    *health_events* (e.g. ``env.health_events``) render as
    globally-scoped instant events (``ph="i"``, ``cat="health"``, scope
    ``"g"``) — vertical markers across every PE track at the virtual
    time each watchdog rule fired.

    Emitted events:

    * ``M`` metadata naming the process and one thread per PE;
    * ``X`` complete events for every entry-method execution
      (``cat="exec"``, name ``Chare.entry``);
    * ``b``/``e`` async pairs for every WAN flight window
      (``cat="wan"``, one id per window) so in-flight spans render as
      arcs above the PE tracks;
    * ``i`` instant events for wire drops (``cat="fault"``) and
      retransmissions (second and later sends of one sequence id);
    * ``s``/``f`` flow-event pairs (``cat="causal"``) connecting each
      message send to the entry-method execution its delivery triggered,
      so the viewer draws cause -> effect arrows between PE tracks
      (requires a trace recorded with causal ids, i.e. any trace from
      this runtime; absent ids simply emit no flows);
    * a second ``network`` process (``pid=1``) with one thread per wire
      lane — each WAN link, contended pipe direction and striped stream
      gets its own track — carrying ``X`` slices (``cat="net"``) for
      every hop span the flight recorder stamped (service start to
      arrival), plus ``s``/``f`` flows (``cat="net-flow"``) tying each
      striped chunk to its parent message's delivery on the destination
      PE track (requires a trace recorded with the flight recorder on,
      i.e. any full trace from this runtime);
    * a third ``objects`` process (``pid=2``) with one thread per chare
      — the Projections object view — carrying ``X`` slices
      (``cat="obj"``) for every entry execution on that object's own
      lane regardless of which PE ran it (so migrations read as a
      continuous lane), plus ``C`` counter tracks accumulating the
      object×object communication matrix (total and WAN kB delivered)
      over virtual time (requires a trace recorded with object labels,
      i.e. any full trace from this runtime).
    """
    events: List[Dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": 0, "tid": 0,
        "args": {"name": "repro simulated grid"},
    }]
    pes = sorted({iv.pe for iv in tracer.intervals}
                 | {ev.src_pe for ev in tracer.messages}
                 | {ev.dst_pe for ev in tracer.messages})
    for pe in pes:
        events.append({
            "ph": "M", "name": "thread_name", "pid": 0, "tid": pe,
            "args": {"name": f"PE {pe}"},
        })

    for iv in tracer.intervals:
        events.append({
            "ph": "X", "cat": "exec",
            "name": f"{iv.chare}.{iv.entry}",
            "pid": 0, "tid": iv.pe,
            "ts": iv.start * _SEC_TO_US,
            "dur": iv.duration * _SEC_TO_US,
        })

    for i, (sent, arrived, src, dst) in enumerate(tracer.wan_flight_windows()):
        ident = f"wan-{i}"
        common = {"cat": "wan", "name": f"WAN {src}->{dst}",
                  "pid": 0, "id": ident}
        events.append({**common, "ph": "b", "tid": src,
                       "ts": sent * _SEC_TO_US,
                       "args": {"src_pe": src, "dst_pe": dst}})
        events.append({**common, "ph": "e", "tid": dst,
                       "ts": arrived * _SEC_TO_US})

    seen_sends: set = set()
    for ev in tracer.messages:
        if ev.kind == "drop":
            events.append({
                "ph": "i", "cat": "fault", "name": "drop", "s": "t",
                "pid": 0, "tid": ev.dst_pe, "ts": ev.time * _SEC_TO_US,
                "args": {"src_pe": ev.src_pe, "dst_pe": ev.dst_pe,
                         "tag": ev.tag},
            })
        elif ev.kind == "send":
            key = (ev.src_pe, ev.dst_pe, ev.seq)
            if key in seen_sends:
                events.append({
                    "ph": "i", "cat": "fault", "name": "retransmit",
                    "s": "t", "pid": 0, "tid": ev.src_pe,
                    "ts": ev.time * _SEC_TO_US,
                    "args": {"src_pe": ev.src_pe, "dst_pe": ev.dst_pe,
                             "tag": ev.tag},
                })
            else:
                seen_sends.add(key)

    # Flow arrows: one per (message, triggered execution) pair.  The
    # flow starts at the first send on the source PE's track and
    # finishes (binding to the enclosing slice, bp="e") at the start of
    # the execution the delivery triggered on the destination track.
    first_send_of: Dict[int, Any] = {}
    for ev in tracer.messages:
        if ev.kind == "send" and ev.seq not in first_send_of:
            first_send_of[ev.seq] = ev
    for iv in tracer.intervals:
        if iv.trigger is None:
            continue
        send_ev = first_send_of.get(iv.trigger)
        if send_ev is None:
            continue
        ident = f"flow-{iv.trigger}-{iv.sid}"
        events.append({
            "ph": "s", "cat": "causal", "name": send_ev.tag or "msg",
            "pid": 0, "tid": send_ev.src_pe, "id": ident,
            "ts": send_ev.time * _SEC_TO_US,
            "args": {"seq": iv.trigger, "cause": send_ev.cause},
        })
        events.append({
            "ph": "f", "bp": "e", "cat": "causal",
            "name": send_ev.tag or "msg",
            "pid": 0, "tid": iv.pe, "id": ident,
            "ts": iv.start * _SEC_TO_US,
            "args": {"sid": iv.sid},
        })

    # Network flight-recorder lanes: a second process with one thread
    # per wire lane, so link/stream occupancy renders under the PE rows.
    hop_events = tracer.hops
    if hop_events:
        lanes = sorted({h.device for hev in hop_events for h in hev.hops})
        lane_tid = {lane: tid for tid, lane in enumerate(lanes)}
        events.append({"ph": "M", "name": "process_name", "pid": 1,
                       "tid": 0, "args": {"name": "network"}})
        for lane, tid in lane_tid.items():
            events.append({"ph": "M", "name": "thread_name", "pid": 1,
                           "tid": tid, "args": {"name": lane}})
        for i, hop_ev in enumerate(hop_events):
            for k, h in enumerate(hop_ev.hops):
                args: Dict[str, Any] = {"seq": hop_ev.seq, "kind": h.kind,
                                        "queue_depth": h.queue_depth,
                                        "relay_hop": hop_ev.relay_hop}
                if h.stream is not None:
                    args["stream"] = h.stream
                events.append({
                    "ph": "X", "cat": "net",
                    "name": hop_ev.tag or h.link,
                    "pid": 1, "tid": lane_tid[h.device],
                    "ts": h.dequeue * _SEC_TO_US,
                    "dur": (h.arrive - h.dequeue) * _SEC_TO_US,
                    "args": args,
                })
                if h.kind == "stream":
                    # Tie each striped chunk to the parent message's
                    # delivery on the destination PE track.
                    ident = f"net-{i}-{k}"
                    name = hop_ev.tag or "chunk"
                    events.append({
                        "ph": "s", "cat": "net-flow", "name": name,
                        "pid": 1, "tid": lane_tid[h.device], "id": ident,
                        "ts": h.dequeue * _SEC_TO_US,
                        "args": {"seq": hop_ev.seq, "stream": h.stream}})
                    events.append({
                        "ph": "f", "bp": "e", "cat": "net-flow",
                        "name": name, "pid": 0, "tid": hop_ev.dst_pe,
                        "id": ident, "ts": hop_ev.arrival * _SEC_TO_US,
                        "args": {"seq": hop_ev.seq}})

    # Object lanes: one thread per chare, every execution on its own
    # track no matter which PE ran it — migrations stay one lane.
    objs = sorted({iv.obj for iv in tracer.intervals if iv.obj is not None})
    if objs:
        obj_tid = {obj: tid for tid, obj in enumerate(objs)}
        events.append({"ph": "M", "name": "process_name", "pid": 2,
                       "tid": 0, "args": {"name": "objects"}})
        for obj, tid in obj_tid.items():
            events.append({"ph": "M", "name": "thread_name", "pid": 2,
                           "tid": tid, "args": {"name": obj}})
        for iv in tracer.intervals:
            if iv.obj is None:
                continue
            events.append({
                "ph": "X", "cat": "obj",
                "name": f"{iv.chare}.{iv.entry}",
                "pid": 2, "tid": obj_tid[iv.obj],
                "ts": iv.start * _SEC_TO_US,
                "dur": iv.duration * _SEC_TO_US,
                "args": {"pe": iv.pe},
            })
        # Comm-matrix counters: cumulative object->object traffic as a
        # counter track under the objects process, one sample per
        # labeled delivery.
        cum_bytes = cum_wan = 0
        for ev in tracer.messages:
            if ev.kind != "deliver" or ev.dst_obj is None:
                continue
            cum_bytes += ev.size
            if ev.crossed_wan:
                cum_wan += ev.size
            events.append({
                "ph": "C", "cat": "obj", "name": "object comm",
                "pid": 2, "tid": 0, "ts": ev.time * _SEC_TO_US,
                "args": {"kB": cum_bytes / 1e3, "wan_kB": cum_wan / 1e3},
            })

    for hev in (health_events or ()):
        events.append({
            "ph": "i", "cat": "health", "name": hev.rule, "s": "g",
            "pid": 0, "tid": 0, "ts": hev.t * _SEC_TO_US,
            "args": hev.to_dict(),
        })
    return events


def chrome_trace(tracer: Tracer,
                 health_events: Optional[Sequence[HealthEvent]] = None
                 ) -> Dict[str, Any]:
    """The complete trace-event JSON object for *tracer*."""
    return {"traceEvents": chrome_trace_events(tracer, health_events),
            "displayTimeUnit": "ms"}


def export_chrome_trace(tracer: Tracer,
                        path_or_file: Union[str, IO[str]]) -> Dict[str, Any]:
    """Write the Chrome trace for *tracer* to *path_or_file* (JSON).

    Returns the document just written (handy for validation / tests).
    """
    doc = chrome_trace(tracer)
    if hasattr(path_or_file, "write"):
        json.dump(doc, path_or_file)
    else:
        with open(path_or_file, "w") as fh:
            json.dump(doc, fh)
    return doc


def validate_chrome_trace(doc: Dict[str, Any]) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` on schema breaks.

    Checks the subset of the trace-event format this exporter uses:
    top-level shape, per-phase required keys, numeric timestamps, and
    matched async begin/end pairs.  Used by the unit tests and by
    ``repro inspect`` before writing a file.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ConfigurationError("trace document must contain 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ConfigurationError("'traceEvents' must be a list")
    async_open: Dict[Any, int] = {}
    flow_open: Dict[Any, int] = {}
    for n, ev in enumerate(events):
        where = f"traceEvents[{n}]"
        if not isinstance(ev, dict):
            raise ConfigurationError(f"{where} is not an object")
        ph = ev.get("ph")
        if ph not in _PHASES:
            raise ConfigurationError(f"{where}: unknown phase {ph!r}")
        for key in ("name", "pid", "tid"):
            if key not in ev:
                raise ConfigurationError(f"{where}: missing {key!r}")
        if not isinstance(ev["name"], str):
            raise ConfigurationError(f"{where}: 'name' must be a string")
        for key in ("pid", "tid"):
            if not isinstance(ev[key], int):
                raise ConfigurationError(f"{where}: {key!r} must be an int")
        if ph == "M":
            continue
        if "ts" not in ev or not isinstance(ev["ts"], (int, float)):
            raise ConfigurationError(f"{where}: missing numeric 'ts'")
        if ev["ts"] < 0:
            raise ConfigurationError(f"{where}: negative 'ts'")
        if ph == "X":
            if "dur" not in ev or not isinstance(ev["dur"], (int, float)):
                raise ConfigurationError(f"{where}: X event needs 'dur'")
            if ev["dur"] < 0:
                raise ConfigurationError(f"{where}: negative 'dur'")
        elif ph in ("b", "e"):
            if "id" not in ev:
                raise ConfigurationError(f"{where}: async event needs 'id'")
            key = (ev.get("cat"), ev["id"])
            if ph == "b":
                async_open[key] = async_open.get(key, 0) + 1
            else:
                if async_open.get(key, 0) <= 0:
                    raise ConfigurationError(
                        f"{where}: async end without begin (id={ev['id']})")
                async_open[key] -= 1
        elif ph == "i":
            if ev.get("s") not in ("g", "p", "t"):
                raise ConfigurationError(
                    f"{where}: instant event needs scope 's' in g/p/t")
        elif ph == "C":
            series = ev.get("args")
            if not isinstance(series, dict) or not series:
                raise ConfigurationError(
                    f"{where}: counter event needs non-empty 'args'")
            for k, v in series.items():
                if not isinstance(v, (int, float)):
                    raise ConfigurationError(
                        f"{where}: counter series {k!r} must be numeric")
        elif ph in ("s", "t", "f"):
            if "id" not in ev:
                raise ConfigurationError(f"{where}: flow event needs 'id'")
            key = (ev.get("cat"), ev["id"])
            if ph == "s":
                flow_open[key] = flow_open.get(key, 0) + 1
            else:
                if flow_open.get(key, 0) <= 0:
                    raise ConfigurationError(
                        f"{where}: flow {ph!r} without a preceding 's' "
                        f"(id={ev['id']})")
                if ph == "f":
                    flow_open[key] -= 1
    dangling = {k: v for k, v in async_open.items() if v != 0}
    if dangling:
        raise ConfigurationError(
            f"unbalanced async begin/end pairs: {sorted(dangling)}")
    unfinished = {k: v for k, v in flow_open.items() if v != 0}
    if unfinished:
        raise ConfigurationError(
            f"flow starts without a finish: {sorted(unfinished)}")


def write_event_log(tracer: Tracer,
                    path_or_file: Union[str, IO[str]]) -> int:
    """Write a JSON-lines structured event log; returns the line count.

    One record per execution interval (``type="exec"``), one per
    message lifecycle event (``type="message"``), and one per wire
    copy's hop ledger (``type="hops"``, spans inlined), each a flat
    JSON object with times in seconds.
    """
    lines: List[str] = []
    for iv in tracer.intervals:
        lines.append(json.dumps({
            "type": "exec", "pe": iv.pe, "start_s": iv.start,
            "end_s": iv.end, "chare": iv.chare, "entry": iv.entry,
            "sid": iv.sid, "parent": iv.parent, "trigger": iv.trigger,
            "obj": iv.obj,
        }))
    for ev in tracer.messages:
        lines.append(json.dumps({
            "type": "message", "kind": ev.kind, "time_s": ev.time,
            "src_pe": ev.src_pe, "dst_pe": ev.dst_pe, "size": ev.size,
            "tag": ev.tag, "wan": ev.crossed_wan, "seq": ev.seq,
            "cause": ev.cause, "ack_for": ev.ack_for,
            "src_obj": ev.src_obj, "dst_obj": ev.dst_obj,
        }))
    for hop_ev in tracer.hops:
        lines.append(json.dumps({
            "type": "hops", "time_s": hop_ev.time,
            "src_pe": hop_ev.src_pe, "dst_pe": hop_ev.dst_pe,
            "size": hop_ev.size, "tag": hop_ev.tag,
            "wan": hop_ev.crossed_wan, "seq": hop_ev.seq,
            "arrival_s": hop_ev.arrival, "relay_hop": hop_ev.relay_hop,
            "arq_attempt": hop_ev.arq_attempt,
            "spans": [h.to_dict() for h in hop_ev.hops],
        }))
    text = "\n".join(lines) + ("\n" if lines else "")
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(text)
    return len(lines)
