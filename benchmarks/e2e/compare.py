#!/usr/bin/env python
"""Compare benchmark result sets: two commits, or two runs of one.

Each input file is one suite run (``run.py --seed N --out FILE``)::

    python benchmarks/e2e/compare.py --base parent-*.json --head change-*.json
    python benchmarks/e2e/compare.py --repeat run1.json run2.json

``--base``/``--head`` pair the files in the order given, so run them
alternately (parent first, then change first, ...).  For every
(workload, end-to-end metric) the verdict is one of:

* ``gain`` -- at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither side), and the medians differ by more
  than the parent's own spread (q3 - q1 over its runs);
* ``unresolved`` -- the parent's spread, as a share of its median, is
  wider than the metric's bound, and not every change run beats every
  parent run (when it does: ``better``);
* ``regression`` -- the change's median is worse than the parent's by
  more than the bound in ``BENCHMARK.json``;
* ``within bound`` -- otherwise.

``fail_frac`` (failed / attempted reps) is a regression on any increase.

``--repeat`` checks that two runs of the same code agree: every
end-to-end median within its bound of the other in either direction,
and every per-layer count and the virtual digest identical.

Exit status 1 on any regression or disagreement.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

#: Per-layer metrics in these units are counts the simulator makes; they
#: must repeat exactly.
EXACT_UNITS = ("count", "B")

#: Pairs needed before a gain can be claimed, and the share it must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths):
    docs = []
    for path in paths:
        with open(path) as fh:
            docs.append(json.load(fh))
    return docs


def benchmark_spec(section: str):
    """``{name: entry}`` for one metric list of ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m for m in json.load(fh)[section]}


def _spread(docs, workload, metric, values):
    """Run-to-run q3 - q1; from one run, its reps' q3 - q1."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return q3 - q1
    q = docs[0]["workloads"][workload]["end_to_end"][metric]
    return q["q3"] - q["q1"]


def verdict(base, head, base_spread, bound, better) -> str:
    """Verdict for one (workload, metric); see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    b_med, h_med = statistics.median(base), statistics.median(head)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (b_med - h_med) > base_spread):
        return "gain"
    if base_spread / b_med > bound:
        best_base = min(base) if sign > 0 else max(base)
        worst_head = max(head) if sign > 0 else min(head)
        return ("better" if sign * (worst_head - best_base) < 0
                else "unresolved")
    if sign * (h_med - b_med) / b_med > bound:
        return "regression"
    return "within bound"


def compare(base_docs, head_docs) -> int:
    spec = benchmark_spec("end_to_end")
    bad = 0
    print(f"{len(base_docs)} parent runs, {len(head_docs)} change runs")
    for workload in base_docs[0]["workloads"]:
        for metric, m in spec.items():
            base = [d["workloads"][workload]["end_to_end"][metric]["median"]
                    for d in base_docs]
            head = [d["workloads"][workload]["end_to_end"][metric]["median"]
                    for d in head_docs]
            spread = _spread(base_docs, workload, metric, base)
            v = verdict(base, head, spread, m["bound"], m["better"])
            bad += v == "regression"
            b_med, h_med = statistics.median(base), statistics.median(head)
            print(f"{workload:18s} {metric:12s} parent {b_med:.6g} "
                  f"change {h_med:.6g} ({(h_med - b_med) / b_med:+.1%}, "
                  f"bound {m['bound']:.0%}, parent spread "
                  f"{spread / b_med:.1%}): {v}")

        def fail_frac(docs):
            runs = [d["workloads"][workload] for d in docs]
            return (sum(r["failed"] for r in runs)
                    / sum(r["attempted"] for r in runs))

        b_ff, h_ff = fail_frac(base_docs), fail_frac(head_docs)
        v = "regression" if h_ff > b_ff else "within bound"
        bad += v == "regression"
        print(f"{workload:18s} {'fail_frac':12s} parent {b_ff:.3g} "
              f"change {h_ff:.3g}: {v}")
    return 1 if bad else 0


def repeat(first, second) -> int:
    spec = benchmark_spec("end_to_end")
    exact = [name for name, m in benchmark_spec("per_layer").items()
             if m["unit"] in EXACT_UNITS]
    bad = 0
    for workload, a in first["workloads"].items():
        b = second["workloads"][workload]
        for metric, m in spec.items():
            qa, qb = a["end_to_end"][metric], b["end_to_end"][metric]
            diff = (qb["median"] - qa["median"]) / qa["median"]
            ok = abs(diff) <= m["bound"]
            bad += not ok
            print(f"{workload:18s} {metric:12s} "
                  f"{qa['median']:.6g} [{qa['q1']:.6g}, {qa['q3']:.6g}] "
                  f"n={qa['n']} vs {qb['median']:.6g} "
                  f"[{qb['q1']:.6g}, {qb['q3']:.6g}] n={qb['n']} "
                  f"({diff:+.1%}, bound {m['bound']:.0%}): "
                  f"{'within bound' if ok else 'OUTSIDE BOUND'}")
        differ = [name for name in exact
                  if a["per_layer"][name] != b["per_layer"][name]]
        if a["digest"] != b["digest"]:
            differ.append("virtual digest")
        bad += len(differ)
        print(f"{workload:18s} {len(exact)} counts and the virtual digest: "
              + ("identical" if not differ
                 else "DIFFER: " + ", ".join(differ)))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", help="parent result files")
    parser.add_argument("--head", nargs="+", help="change result files")
    parser.add_argument("--repeat", nargs=2, metavar="RUN",
                        help="two runs of the same code")
    args = parser.parse_args(argv)
    if args.repeat:
        return repeat(*load(args.repeat))
    if not (args.base and args.head):
        parser.error("give --base and --head, or --repeat")
    return compare(load(args.base), load(args.head))


if __name__ == "__main__":
    sys.exit(main())
