#!/usr/bin/env python3
"""Steadiness evidence for the pipeline benchmark.

Runs the benchmark command from BENCHMARK.json in sets of runs of one
commit, each run on another seed, with workloads interleaved so that
machine drift reaches all of them alike. For every workload and
end-to-end metric it reports each set's median and quartiles, the
interquartile spread as a share of the median, and how far the later
sets' medians moved from the first set's in the metric's worse
direction, each relative to the metric's bound. Beside each time metric
it gives the same spread for the unscaled figure, the raw thread-CPU time
before the host-speed correction (see src/probe.rs), which each run prints
on its "unscaled:" line.

A row passes when every spread stays within the bound, and no later
set's median is worse than the first set's by more than the bound. A row is steady when, in addition, every spread stays
below a third of the bound.

    python3 pipebench/steadiness.py --sets 2 --runs 10
    python3 pipebench/steadiness.py --sets 1 --runs 5 --workloads maze-resume

Each run lasts run_seconds from BENCHMARK.json. Set k (from 0) uses seeds
k * 1000 + 1 onwards. Run it from the root of the repository. The report
is written as JSON to .pipebench/steadiness.json (or --out) and printed as
a table.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, log):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed the checks:\n{proc.stderr}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    unscaled = {}
    for line in lines:
        if line.startswith(f"{workload}: unscaled: "):
            words = line.split(";")[0].split()[2:]
            unscaled = {k: float(v) for k, v in zip(words[::2], words[1::2])}
    log.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall,
                          "metrics": values, "unscaled": unscaled}) + "\n")
    log.flush()
    print(f"  {workload:<22} seed {seed:<5} {wall:6.1f} s  "
          + "  ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    return values, unscaled


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--out", default=str(ROOT / ".pipebench" / "steadiness.json"))
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("quartiles need at least two runs")

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    sets = []
    with open(out.with_suffix(".runs.jsonl"), "w") as log:
        for s in range(args.sets):
            print(f"set {s + 1} of {args.sets}", flush=True)
            runs = {w: [] for w in args.workloads}
            for r in range(args.runs):
                # Each set draws its own seeds.
                seed = s * 1000 + r + 1
                for w in args.workloads:
                    runs[w].append(run_once(spec["command"], w, seed, spec["run_seconds"], log))
            sets.append(runs)

    rows = []
    ok = True
    for w in args.workloads:
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            per_set = [summarise([v[name] for v, _ in runs[w]]) for runs in sets]
            raw = [summarise([u[name] for _, u in runs[w]]) for runs in sets
                   if all(name in u for _, u in runs[w])]
            first = per_set[0]["median"]
            worse = [((s["median"] - first) if lower else (first - s["median"])) / first
                     for s in per_set[1:]]
            spread_ok = all(s["spread"] <= bound for s in per_set)
            steady = all(s["spread"] < bound / 3 for s in per_set)
            gap_ok = all(g <= bound for g in worse)
            ok &= spread_ok and gap_ok
            rows.append({"workload": w, "metric": name, "unit": m["unit"], "bound": bound,
                         "sets": per_set, "worse_gap": worse, "unscaled": raw,
                         "spread_over_bound": [s["spread"] / bound for s in per_set],
                         "gap_over_bound": [g / bound for g in worse],
                         "pass": spread_ok and gap_ok, "steady": steady})

    out.write_text(json.dumps({"seconds": spec["run_seconds"], "runs_per_set": args.runs,
                               "rows": rows}, indent=1) + "\n")
    print(f"\n{'workload':<22} {'metric':<15} {'bound':>5}  "
          "set medians [q1..q3] spread/bound   worse-gap/bound   unscaled spread/bound")
    for row in rows:
        sets_txt = "  ".join(f"{s['median']:.6g} [{s['q1']:.4g}..{s['q3']:.4g}] "
                             f"{s['spread'] / row['bound']:.2f}" for s in row["sets"])
        gaps = " ".join(f"{g:+.2f}" for g in row["gap_over_bound"]) or "-"
        raw = " ".join(f"{s['spread'] / row['bound']:.2f}" for s in row["unscaled"]) or "-"
        print(f"{row['workload']:<22} {row['metric']:<15} {row['bound']:>5}  {sets_txt}  "
              f"{gaps}  {'ok' if row['pass'] else 'FAIL'}{'' if row['steady'] else ' (unsteady)'}"
              f"  {raw}")
    print(f"\nwrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
