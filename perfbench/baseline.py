"""Repeat the benchmark over seeds and summarise each metric by median and quartiles.

    python3 perfbench/baseline.py

Run from the root of a source tree.  Every workload in BENCHMARK.json runs
``RUNS`` times untraced, seeds 0..RUNS-1, and ``TRACED_RUNS`` times traced,
seeds 0..TRACED_RUNS-1; the summary is written to ``perfbench/baseline.json``.
For each metric the summary holds the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median; an
end-to-end spread is flagged when it is not below a third of the metric's
bound.  The tracing overhead of a workload is the time of one traced round of
its commands (rescaled like the untraced times) minus the sum of their
untraced median times.  For every time metric the summary also gives the
spread the same runs would have had with unscaled wall or CPU time
(``unscaled_spread``).  The exit code is 1 when a spread other than
``setup_s``'s is flagged.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from run import OUT_DIR, scaled
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10
TRACED_RUNS = 2
OUT = os.path.join(HERE, "baseline.json")


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """The result line and the full record of one benchmark run."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    if proc.stderr:
        print(proc.stderr, end="", file=sys.stderr)
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        record = json.load(fh)
    return json.loads(proc.stdout.strip().splitlines()[-1]), record


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def _unscaled_spreads(workload, records: list) -> dict:
    """Spread over runs of each time metric had it been raw wall or CPU time."""
    pick = {"setup_s": lambda rec: [(s["setup_wall_s"], s["setup_s"])
                                    for s in rec["setup_samples"]]}
    for cmd in workload.commands:
        pick[f"{cmd.metric}_s"] = lambda rec, m=cmd.metric: [
            (s["wall_s"], s["cpu_s"]) for s in rec["samples"] if s["command"] == m]
    out = {}
    for metric, samples in pick.items():
        per_run = [samples(rec) for rec in records]
        out[metric] = {kind: summarise([statistics.median(p[i] for p in run)
                                        for run in per_run])["spread"]
                       for i, kind in enumerate(("wall", "cpu"))}
    return out


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for name in (w["name"] for w in spec["workloads"]):
        seeds = list(range(RUNS))
        runs = [_run(name, s, spec["run_seconds"], 0) for s in seeds]
        traced = [_run(name, s, spec["run_seconds"], 1) for s in range(TRACED_RUNS)]
        meta = {k: v for k, v in runs[0][1].items()
                if k in ("git_commit", "nproc", "cpu_model", "python", "numpy", "scipy",
                         "blas", "threads", "env")}
        summary.setdefault("machine", meta)
        workload = WORKLOADS[name]
        entry = {"why": workload.why, "layer_map": workload.layer_map,
                 "unchanged": workload.unchanged,
                 "seeds": seeds, "correct": [res["correct"] for res, _ in runs + traced],
                 "attempted": sum(res["attempted"] for res, _ in runs),
                 "failed": sum(res["failed"] for res, _ in runs),
                 "end_to_end": {}, "per_layer": {}}
        for metric in bounds:
            s = summarise([res["metrics"][metric]["value"] for res, _ in runs])
            entry["end_to_end"][metric] = s
            flag = "" if s["spread"] < bounds[metric] / 3 else "  <-- not below bound/3"
            if flag and metric != "setup_s":
                steady = False
            print(f"{name:13s} {metric:24s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f} (bound {bounds[metric]}){flag}")
        entry["unscaled_spread"] = _unscaled_spreads(workload, [rec for _, rec in runs])
        for m in spec["per_layer"]:
            entry["per_layer"][m["name"]] = summarise(
                [res["metrics"][m["name"]]["value"] for res, _ in traced])
        untraced = sum(entry["end_to_end"][f"{c.metric}_s"]["median"] for c in workload.commands)
        rounds = [sum(scaled(r, "cpu_s") for r in rnd)
                  for _, rec in traced for rnd in rec["rounds"]]
        overhead = statistics.median(rounds) - untraced
        entry["tracing_overhead_s"] = overhead
        print(f"{name:13s} tracing overhead {overhead:.3f} s on {untraced:.3f} s untraced")
        summary["workloads"][name] = entry
    with open(OUT, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
