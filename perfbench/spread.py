"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads f1-protocol --seeds 0,1,2,3,4
    python3 perfbench/spread.py --seeds 0,1,2,3,4,5,6,7,8,9 --sets 2 --baseline perfbench/baseline.json

For every workload and end-to-end metric it prints the median of the runs
and the spread, (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound.  With
``--sets 2`` it runs the whole seed list a second time after the first and
prints, per metric, how far the second set's median lies from the first's,
and whether the quality figures of every seed repeated exactly.  With
``--baseline`` it also makes one traced run per workload and writes the
medians, quartiles, quality figures and per-layer table to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
QUALITY = ("err_j.p50", "e_pct.p50", "accurate_frac", "failed_frac")


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (result line, full result file)."""
    cmd = [*spec.COMMAND, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT, f"result-{workload}-s{seed}-t{trace}.json")) as fh:
        return result, json.load(fh)


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def one_set(workload, seeds, seconds):
    """Run every seed once; print and return the set's figures."""
    runs = [run(workload, seed, seconds, 0) for seed in seeds]
    bad = [s for s, (r, _) in zip(seeds, runs) if not r["correct"] or r["failed"]]
    entry = {"incorrect_or_failed_seeds": bad, "end_to_end": {}, "info": {}}
    for name, (unit, _, bound, _) in spec.END_TO_END.items():
        s = summary([r["metrics"][name]["value"] for r, _ in runs])
        entry["end_to_end"][name] = {"unit": unit, "bound": bound, **s}
        print(f"{workload:12s} {name:20s} median {s['median']:10.5g} {unit:6s} "
              f"spread {s['spread']:.4f} (bound {bound}, third {bound / 3:.4f})"
              + ("" if s["spread"] <= bound / 3 else "  <-- above a third of the bound"),
              flush=True)
    for name, (unit, _) in spec.INFO_METRICS.items():
        s = summary([full["info"][name] for _, full in runs])
        entry["info"][name] = {"unit": unit, **s}
        print(f"{workload:12s} {name:20s} median {s['median']:10.5g} {unit:6s} "
              f"spread {s['spread']:.4f} (not gated)", flush=True)
    entry["seeds_with_e_pct.p50_within_3pct"] = [
        s for s, (_, full) in zip(seeds, runs)
        if full["info"]["e_pct.p50"] is not None and full["info"]["e_pct.p50"] <= 3.0]
    if bad:
        print(f"{workload}: incorrect or failed runs for seeds {bad}")
    return entry


def compare(workload, first, second):
    """Second set against the first: median shift per metric, quality identity."""
    shift = {}
    for name, (_, better, bound, _) in spec.END_TO_END.items():
        a, b = first["end_to_end"][name]["median"], second["end_to_end"][name]["median"]
        worse = (b - a) / a if better == "lower" else (a - b) / a
        shift[name] = worse
        print(f"{workload:12s} {name:20s} second set worse by {worse:+.4f} (bound {bound})"
              + ("" if worse <= bound else "  <-- beyond the bound"), flush=True)
    same = {q: first["info"][q]["values"] == second["info"][q]["values"] for q in QUALITY}
    print(f"{workload:12s} quality figures repeat exactly: {same}", flush=True)
    return {"second_set_worse_by": shift, "quality_repeats_exactly": same}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(n for n, _ in spec.WORKLOADS))
    ap.add_argument("--seeds", default="0,1,2,3,4")
    ap.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1,
                    help="run the seed list once, or twice to compare the two sets")
    ap.add_argument("--baseline", help="write medians, quality and the traced table here")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")

    sets = [{w: one_set(w, seeds, args.seconds) for w in workloads} for _ in range(args.sets)]
    doc = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in workloads:
        entry = dict(sets[0][workload])
        if args.sets == 2:
            entry["second_set"] = sets[1][workload]
            entry.update(compare(workload, sets[0][workload], sets[1][workload]))
        if args.baseline:
            _, traced = run(workload, seeds[0], args.seconds, 1)
            entry["traced_seed"] = seeds[0]
            entry["per_layer"] = traced["info"]["per_layer_table"]
            entry["traced_quality"] = {k: traced["info"][k] for k in QUALITY}
            doc["env"] = traced["env"]
        doc["workloads"][workload] = entry

    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
