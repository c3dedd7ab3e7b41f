#!/usr/bin/env python
"""CI gate: validate the structure of ``repro`` JSON documents.

Usage::

    python benchmarks/check_schema.py DOC_JSON [--require-neutral]

What is checked is read from the document itself:

* a ``repro compare --json`` document (it has ``baseline`` and
  ``candidate`` records): the headline ``ratio`` is the candidate's
  ``time_per_step_s`` over the baseline's, the component table covers
  every critical-path component exactly once, the per-component deltas
  sum to the total delta up to the reported residual, and each verdict
  is a known one.  With ``--require-neutral`` the gate also fails
  unless the comparison is an exact, all-neutral self-compare with a
  neutral ratio — the CI smoke runs the same configuration twice, so
  anything non-neutral means the attribution pipeline itself drifted;
* otherwise a ``repro inspect --json`` report, checked section by
  section: ``net`` (the network flight recorder: busy fractions in
  [0, 1], lane roll-ups consistent with the per-lane rows, top messages
  sorted by descending wire time) and ``objects`` (the object view: top
  objects sorted by descending compute, grain quantiles ordered p50 <=
  p95 <= max, blame rows internally consistent, advisor suggestions
  ranked by predicted savings).

The gate fails when the document carries none of these sections.  No
third-party schema library: the checks are hand-rolled so the gate runs
on a bare numpy-only CI image.
"""

import json
import sys

NET_LANE_KEYS = {
    "lane": str, "link": str, "crossings": int, "busy_s": float,
    "queue_s": float, "flight_s": float, "p95_queue_depth": int,
    "max_queue_depth": int, "wan": bool, "busy_fraction": float,
}
NET_LINK_KEYS = {
    "lanes": int, "crossings": int, "busy_s": float, "queue_s": float,
    "wan": bool, "busy_fraction": float,
}
NET_TOP_KEYS = {
    "seq": int, "src_pe": int, "dst_pe": int, "tag": str, "size": int,
    "wire_s": float, "sent_s": float, "arrival_s": float,
    "relay_hop": int, "arq_attempt": int, "wan": bool, "hops": int,
}

OBJ_TOTALS_KEYS = {
    "objects": int, "executions": int, "compute_s": float,
    "queue_wait_s": float, "bytes_sent": int, "wan_bytes_sent": int,
    "matrix_edges": int, "makespan_s": float,
}
OBJ_TOP_KEYS = {
    "obj": str, "executions": int, "compute_s": float,
    "p50_grain_s": float, "p95_grain_s": float, "max_grain_s": float,
    "queue_wait_s": float, "wan_bytes_sent": int, "wan_bytes_recv": int,
}
OBJ_BLAME_KEYS = {
    "compute_s": float, "wan_wait_s": float, "queue_s": float,
    "total_s": float,
}
OBJ_SUGGESTION_KEYS = {
    "obj": str, "action": str, "reason": str,
    "predicted_savings_s": float,
}
ACTIONS = {"split", "merge", "migrate"}
DIRECTIONS = {"finer", "coarser", "keep"}

COMPONENTS = ("compute", "relay_overhead", "propagation",
              "bandwidth_serialization", "stripe_pacing", "device_queue",
              "queue_serial", "retransmit_stall")
#: ``object`` means "must be present, any type".
SIDE_KEYS = {"name": object, "digest": object, "schema": float,
             "time_per_step_s": object, "steps": object}
COMPONENT_KEYS = {"component": object, "baseline_s": float,
                  "candidate_s": float, "delta_s": float,
                  "verdict": object}
RATIO_KEYS = {"value": float, "threshold": float, "verdict": object}
VERDICTS = ("regressed", "improved", "neutral")


def _fail(msg):
    raise SystemExit(f"schema: {msg}")


def _check_mapping(name, row, spec):
    if not isinstance(row, dict):
        _fail(f"{name} must be an object")
    for key, typ in spec.items():
        if key not in row:
            _fail(f"{name} missing key {key!r}")
        value = row[key]
        if typ is float:
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                _fail(f"{name}[{key!r}] is {type(value).__name__}, "
                      f"want number")
        elif not isinstance(value, typ) or \
                (typ is int and isinstance(value, bool)):
            _fail(f"{name}[{key!r}] is {type(value).__name__}, "
                  f"want {typ.__name__}")


def check_net(net):
    """The ``net`` section of a ``repro inspect --view netview`` report."""
    _check_mapping("net", net, {"makespan_s": float, "lanes": dict,
                                "links": dict, "wan_crossings": int,
                                "top_messages": list})
    if not net["lanes"]:
        _fail("net.lanes must be a non-empty object")
    for lane, row in net["lanes"].items():
        _check_mapping(f"lanes[{lane!r}]", row, NET_LANE_KEYS)
        if not 0.0 <= row["busy_fraction"] <= 1.0:
            _fail(f"lanes[{lane!r}].busy_fraction out of [0, 1]: "
                  f"{row['busy_fraction']}")
        if row["p95_queue_depth"] > row["max_queue_depth"]:
            _fail(f"lanes[{lane!r}]: p95 queue depth exceeds max")
    lane_crossings = {}
    for row in net["lanes"].values():
        lane_crossings[row["link"]] = \
            lane_crossings.get(row["link"], 0) + row["crossings"]
    for link, row in net["links"].items():
        _check_mapping(f"links[{link!r}]", row, NET_LINK_KEYS)
        if row["crossings"] != lane_crossings.get(link):
            _fail(f"links[{link!r}].crossings != sum of its lanes")
    wan_crossings = sum(row["crossings"] for row in net["lanes"].values()
                        if row["wan"])
    if net["wan_crossings"] != wan_crossings:
        _fail(f"net.wan_crossings {net['wan_crossings']} != "
              f"sum over WAN lanes {wan_crossings}")
    top = net["top_messages"]
    for i, row in enumerate(top):
        _check_mapping(f"top_messages[{i}]", row, NET_TOP_KEYS)
        if row["wire_s"] < 0:
            _fail(f"top_messages[{i}].wire_s negative")
    for a, b in zip(top, top[1:]):
        if a["wire_s"] < b["wire_s"]:
            _fail("top_messages not sorted by descending wire time")
    return net


def check_objects(objects):
    """The ``objects`` section of a ``repro inspect --view objview``
    report."""
    _check_mapping("objects", objects, {"totals": dict,
                                        "top_by_compute": list})
    totals = objects["totals"]
    _check_mapping("totals", totals, OBJ_TOTALS_KEYS)
    if totals["objects"] <= 0:
        _fail("totals.objects must be positive in a traced run")
    if totals["compute_s"] < 0:
        _fail("totals.compute_s negative")

    top = objects["top_by_compute"]
    if not top:
        _fail("objects.top_by_compute must be a non-empty list")
    for i, row in enumerate(top):
        _check_mapping(f"top_by_compute[{i}]", row, OBJ_TOP_KEYS)
        if not (0.0 <= row["p50_grain_s"] <= row["p95_grain_s"]
                <= row["max_grain_s"]):
            _fail(f"top_by_compute[{i}]: grain quantiles out of order")
        if row["compute_s"] > totals["compute_s"]:
            _fail(f"top_by_compute[{i}]: object compute exceeds total")
    for a, b in zip(top, top[1:]):
        if a["compute_s"] < b["compute_s"]:
            _fail("top_by_compute not sorted by descending compute")

    blame = objects.get("blame")
    if blame is not None:
        if not isinstance(blame, dict):
            _fail("objects.blame must be an object")
        for obj, row in blame.items():
            _check_mapping(f"blame[{obj!r}]", row, OBJ_BLAME_KEYS)
            parts = row["compute_s"] + row["wan_wait_s"] + row["queue_s"]
            if abs(row["total_s"] - parts) > 1e-9 * max(1.0, parts):
                _fail(f"blame[{obj!r}]: total_s != sum of components")

    advice = objects.get("advice")
    if advice is not None:
        if advice.get("direction") not in DIRECTIONS:
            _fail(f"advice.direction {advice.get('direction')!r} not in "
                  f"{sorted(DIRECTIONS)}")
        rec = advice.get("recommended_objects")
        if rec is not None and (not isinstance(rec, int) or rec <= 0):
            _fail("advice.recommended_objects must be a positive int")
        suggestions = advice.get("suggestions")
        if not isinstance(suggestions, list):
            _fail("advice.suggestions must be a list")
        for i, s in enumerate(suggestions):
            _check_mapping(f"suggestions[{i}]", s, OBJ_SUGGESTION_KEYS)
            if s["action"] not in ACTIONS:
                _fail(f"suggestions[{i}].action {s['action']!r} not in "
                      f"{sorted(ACTIONS)}")
            if s["action"] == "migrate" and "partner" not in s:
                _fail(f"suggestions[{i}]: migrate without a partner")
        for a, b in zip(suggestions, suggestions[1:]):
            if a["predicted_savings_s"] < b["predicted_savings_s"]:
                _fail("suggestions not ranked by predicted savings")
    return objects


def check_compare(doc, require_neutral=False):
    """A whole ``repro compare --json`` document."""
    if doc.get("schema") != 1:
        _fail(f"schema is {doc.get('schema')!r}, want 1")
    for side in ("baseline", "candidate"):
        _check_mapping(side, doc.get(side), SIDE_KEYS)
        if doc[side]["schema"] < 2:
            _fail(f"{side} record schema {doc[side]['schema']} < 2 — no "
                  f"critpath payload to have diffed")
    ratio = doc.get("ratio")
    _check_mapping("ratio", ratio, RATIO_KEYS)
    if ratio["verdict"] not in VERDICTS:
        _fail(f"ratio.verdict {ratio['verdict']!r} invalid")
    base = doc["baseline"]["time_per_step_s"]
    if not base > 0:
        _fail(f"baseline time_per_step_s {base!r} is not positive")
    if ratio["value"] != doc["candidate"]["time_per_step_s"] / base:
        _fail(f"ratio.value {ratio['value']!r} != candidate / baseline "
              f"time_per_step_s")
    components = doc.get("components")
    if not isinstance(components, list):
        _fail("components must be a list")
    delta_sum = 0.0
    for i, row in enumerate(components):
        _check_mapping(f"components[{i}]", row, COMPONENT_KEYS)
        if row["verdict"] not in VERDICTS:
            _fail(f"components[{i}].verdict {row['verdict']!r} invalid")
        if abs((row["candidate_s"] - row["baseline_s"])
               - row["delta_s"]) > 1e-12:
            _fail(f"components[{i}].delta_s inconsistent with its sides")
        delta_sum += row["delta_s"]
    seen = [row["component"] for row in components]
    if tuple(seen) != COMPONENTS:
        _fail(f"component order {seen} != {list(COMPONENTS)}")

    total = doc.get("total")
    _check_mapping("total", total, {"delta_s": float, "verdict": object})
    if total["verdict"] not in VERDICTS:
        _fail(f"total.verdict {total['verdict']!r} invalid")
    _check_mapping("document", doc, {"residual_s": float,
                                     "all_neutral": bool,
                                     "config_changed": bool,
                                     "net": dict})
    residual = doc["residual_s"]
    # The headline invariant: deltas + residual == total delta.
    if abs(total["delta_s"] - (delta_sum + residual)) > 1e-15:
        _fail(f"component deltas {delta_sum} + residual {residual} "
              f"!= total delta {total['delta_s']}")
    if doc.get("exact") != (residual == 0.0):
        _fail("exact flag inconsistent with residual_s")

    if require_neutral:
        if ratio["verdict"] != "neutral":
            _fail(f"self-compare ratio {ratio['value']!r} is "
                  f"{ratio['verdict']}, not neutral")
        if not doc["all_neutral"]:
            bad = [r["component"] for r in components
                   if r["verdict"] != "neutral"]
            _fail(f"self-compare not all-neutral: total "
                  f"{total['verdict']}, components {bad}")
        if not doc["exact"]:
            _fail(f"self-compare residual not exact: {residual!r}")
        if doc["config_changed"]:
            _fail("self-compare config digests differ")
    return doc


def check(doc, require_neutral=False):
    """Check every known section *doc* carries.

    Returns one human-readable summary line per section checked.
    """
    if not isinstance(doc, dict):
        _fail("document must be a JSON object")
    if "baseline" in doc and "candidate" in doc:
        check_compare(doc, require_neutral)
        return [f"compare: ratio {doc['ratio']['verdict']}, "
                f"total {doc['total']['verdict']}, "
                f"{len(doc['components'])} components, residual "
                f"{doc['residual_s']:+.3e} s"
                + (", all neutral" if doc["all_neutral"] else "")]
    if require_neutral:
        _fail("--require-neutral applies only to a compare document")
    lines = []
    if "net" in doc:
        net = check_net(doc["net"])
        lines.append(f"net: {len(net['lanes'])} lanes, "
                     f"{len(net['links'])} links, {net['wan_crossings']} "
                     f"WAN crossings, {len(net['top_messages'])} top "
                     f"messages")
    # netview and health reports also echo the virtualization degree
    # as a number under "objects"; only the objview section is a map.
    if isinstance(doc.get("objects"), dict):
        objects = check_objects(doc["objects"])
        advice = objects.get("advice") or {}
        lines.append(f"objects: {objects['totals']['objects']} objects, "
                     f"{len(objects['top_by_compute'])} top rows, "
                     f"{len(objects.get('blame') or {})} blame rows, "
                     f"direction={advice.get('direction', 'n/a')}")
    if not lines:
        _fail("document has none of the known sections (net, objects, "
              "or a compare document)")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    require_neutral = "--require-neutral" in argv
    paths = [a for a in argv if a != "--require-neutral"]
    if len(paths) != 1:
        _fail("usage: check_schema.py DOC_JSON [--require-neutral]")
    with open(paths[0]) as fh:
        doc = json.load(fh)
    for line in check(doc, require_neutral=require_neutral):
        print(f"schema OK: {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
