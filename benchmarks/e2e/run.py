#!/usr/bin/env python
"""End-to-end benchmark of the grid simulator: host time, layer by layer.

One workload in this process::

    python benchmarks/e2e/run.py --workload stencil-dispatch --seed 0 \\
        --seconds 35 --trace 0

The whole suite, each workload in a fresh child process, one after
another, with every metric printed and all of them saved::

    python benchmarks/e2e/run.py --seed 0 --out results.json

A workload run does one untimed warm-up rep (a cold first rep runs
30-50% slow), then timed reps until ``--seconds`` have passed (at least
``MIN_REPS``), with ``gc.collect()`` before each and the collector left
on as users run it.  It then records peak RSS, runs the reference
checks, and with ``--trace 1`` one more rep under the span tracer
(``spans.py``) for the per-layer metrics.  The simulator is
deterministic: virtual time is an output check, host time is what is
measured.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``, each the
median over reps.  The line before it, ``record: {...}``, carries
everything (quartiles, rep counts, both metric sets, the virtual digest).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: A run always attempts at least this many timed reps, however long
#: they take.
MIN_REPS = 3

#: name -> (unit, better); the order the metrics are reported in.
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "engine.events": ("count", "lower"),
    "engine.events_per_s": ("1/s", "higher"),
    "scheduler.executions": ("count", "lower"),
    "scheduler.queue_hwm": ("count", "lower"),
    "rts.calls": ("count", "lower"),
    "fabric.messages": ("count", "lower"),
    "fabric.wan_messages": ("count", "lower"),
    "fabric.bytes": ("B", "lower"),
    "chain.calls": ("count", "lower"),
    "app.calls": ("count", "lower"),
    "trace.calls": ("count", "lower"),
    "tracing.overhead": ("ratio", "lower"),
    "tracing.span_cost_us": ("us", "lower"),
}
for _layer in spans.LAYERS:
    PER_LAYER[f"{_layer}.self_us_per_event"] = ("us", "lower")
    PER_LAYER[f"{_layer}.self_share"] = ("share", "lower")


def _import_workloads():
    """Put ``src`` on the path and import the workloads."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no simulator sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def _benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- measuring one workload --------------------------------------------------

def quartiles(values):
    """``{"median", "q1", "q3", "n"}`` of *values*, plus the tail.

    The tail is the highest percentile with at least ten samples beyond
    it (``tail_pct``, ``tail``); below 20 samples there is none.
    """
    n = len(values)
    if n > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    out = {"median": median, "q1": q1, "q3": q3, "n": n}
    if n >= 20:
        pct = 100 * (n - 10) // n
        out.update(tail_pct=pct,
                   tail=statistics.quantiles(values, n=100)[pct - 1])
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it waited for, in MB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def layer_metrics(tracer, outcome, run_median: float, traced_run: float):
    """The per-layer metrics of one traced rep."""
    totals = tracer.layer_totals()
    events = outcome.events
    counts = outcome.counts
    busy = sum(totals[layer]["self_s"] for layer in spans.LAYERS)
    m = {
        "engine.events": events,
        "engine.events_per_s": events / run_median,
        "scheduler.executions": counts["executions"],
        "scheduler.queue_hwm": counts["queue_hwm"],
        "rts.calls": totals["rts"]["calls"],
        "fabric.messages": counts["messages"],
        "fabric.wan_messages": counts["wan_messages"],
        "fabric.bytes": counts["bytes"],
        "chain.calls": totals["chain"]["calls"],
        "app.calls": totals["app"]["calls"],
        "trace.calls": totals["trace"]["calls"],
        "tracing.overhead": traced_run / run_median - 1.0,
        "tracing.span_cost_us": tracer.span_cost_s * 1e6,
    }
    for layer in spans.LAYERS:
        self_s = totals[layer]["self_s"]
        m[f"{layer}.self_us_per_event"] = self_s * 1e6 / events
        m[f"{layer}.self_share"] = self_s / busy
    return {name: m[name] for name in PER_LAYER}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the full record."""
    workloads = _import_workloads()
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; known: "
                         + ", ".join(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[name]

    def timed_rep():
        gc.collect()
        with workloads.sim_start_marker() as start:
            t0 = time.perf_counter()
            summarize = workload.rep(seed)
            t1 = time.perf_counter()
        return start[0] - t0, t1 - start[0], summarize()

    def same_as(outcome, reference):
        return (outcome.digest, outcome.events) == (reference.digest,
                                                    reference.events)

    _, _, first = timed_rep()
    attempted, failed = 1, 0
    setups, runs = [], []
    t_begin = time.perf_counter()
    while (attempted <= MIN_REPS
           or time.perf_counter() - t_begin < seconds):
        attempted += 1
        try:
            setup_s, run_s, outcome = timed_rep()
            if not same_as(outcome, first):
                raise workloads.CheckFailed(
                    "virtual results differ from the warm-up rep")
        except Exception:
            # A failing rep counts against the run and the loop goes on.
            failed += 1
            traceback.print_exc()
            continue
        setups.append(setup_s)
        runs.append(run_s)
    if not runs:
        raise SystemExit(f"{name}: every timed rep failed")
    rss = peak_rss_mb()

    correct = True
    try:
        workload.check(seed, first)
    except workloads.CheckFailed as exc:
        correct = False
        print(f"{name}: check failed: {exc}", file=sys.stderr)

    run_median = statistics.median(runs)
    record = {
        "workload": name,
        "seed": seed,
        "digest": first.digest,
        "events": first.events,
        "end_to_end": {
            "run_s": quartiles(runs),
            "setup_s": quartiles(setups),
            "peak_rss_mb": quartiles([rss]),
        },
    }
    if trace:
        attempted += 1
        with spans.SpanTracer() as tracer:
            _, traced_run, outcome = timed_rep()
        if not same_as(outcome, first):
            failed += 1
            print(f"{name}: traced rep changed the virtual results",
                  file=sys.stderr)
        record["per_layer"] = layer_metrics(tracer, outcome, run_median,
                                            traced_run)
    # Digests recorded per seed; the flag is informational only.
    with open(HERE / "digests.json") as fh:
        recorded = json.load(fh).get(str(seed), {}).get(name)
    record["virtual_moved"] = (None if recorded is None
                               else recorded != first.digest)
    record.update(correct=correct and failed == 0, attempted=attempted,
                  failed=failed)
    return record


# -- reporting -----------------------------------------------------------------

def print_record(record: dict) -> None:
    name = record["workload"]
    moved = {None: "no recorded digest for this seed", True: "MOVED",
             False: "unchanged"}[record["virtual_moved"]]
    print(f"{name}: virtual digest {record['digest'][:16]} "
          f"({record['events']} events; {moved})")
    for metric, q in record["end_to_end"].items():
        tail = (f", p{q['tail_pct']} {q['tail']:.6g}" if "tail" in q
                else "")
        print(f"{name}: {metric} = {q['median']:.6g} {END_TO_END[metric][0]} "
              f"(q1 {q['q1']:.6g}, q3 {q['q3']:.6g}{tail}, n {q['n']})")
    for metric, value in record.get("per_layer", {}).items():
        print(f"{name}: {metric} = {value:.6g} {PER_LAYER[metric][0]}")
    print(f"{name}: correct {record['correct']}, "
          f"{record['failed']} of {record['attempted']} reps failed")


def result_line(record: dict, trace: bool) -> dict:
    if trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]}
                   for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": q["median"], "unit": END_TO_END[k][0]}
                   for k, q in record["end_to_end"].items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def run_suite(seed: int, seconds: float, out) -> int:
    """Every workload in its own child process, one after another."""
    workloads = _import_workloads()
    results = {"seed": seed, "seconds": seconds,
               "host": {"cpus": os.cpu_count(),
                        "python": sys.version.split()[0]},
               "workloads": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1"],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        records = [json.loads(line[len("record: "):]) for line in lines
                   if line.startswith("record: ")]
        if proc.returncode != 0 or not records:
            print(proc.stdout, end="")
            print(f"{name}: child exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        print_record(records[0])
        results["workloads"][name] = records[0]
    if out:
        with open(out, "w") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
        print(f"results -> {out}")
    return 0 if all(r["correct"] for r in results["workloads"].values()) \
        else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="run only this workload in this process "
                             "(default: the whole suite)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed reps run at least this long "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced rep and report the "
                             "per-layer metrics")
    parser.add_argument("--out", default=None,
                        help="suite mode: write every record here")
    args = parser.parse_args(argv)
    # Before numpy loads (and inherited by suite children): one BLAS
    # thread, so a rep keeps to one core.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    seconds = (args.seconds if args.seconds is not None
               else _benchmark_json()["run_seconds"])

    if args.workload is None:
        return run_suite(args.seed, seconds, args.out)

    record = measure(args.workload, args.seed, seconds, bool(args.trace))
    print_record(record)
    print("record: " + json.dumps(record))
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
