"""blochlab benchmark: time-to-verdict and peak memory of the CLI, per workload.

    python3 perfbench/run.py --workload free-1d --seed 0 --seconds 40 --trace 0

Run from the root of a source tree (``src/blochlab`` and ``BENCHMARK.json``).
Each workload is a generated config plus a fixed list of ``blochlab`` commands
(``workloads.py``).  Every command runs in a fresh child interpreter, one at a
time, with ``--threads 1`` and one BLAS/OpenMP thread.

``--trace 0`` measures the end-to-end metrics.  The commands run in rounds for
``--seconds`` seconds, the shorter ones repeated more often, and each round
starts with a set-up measurement: a fresh interpreter timing the import of
``blochlab.cli`` plus config -> scenario.  ``setup_s`` is the median set-up
time, a command's time the median time of ``blochlab.cli.main`` inside its
process, and its memory the median of the processes' peak RSS.

Times are CPU seconds rescaled to one fixed machine speed.  The speed a
shared machine gives a process drifts by tens of percent over minutes, for
CPU time as much as for wall time.  So every timed call runs next to a fixed
reference kernel (``child._kernel``), and a sample's time is its CPU time
times ``KERNEL_REF_S / kernel_s``: the time the call would take when the
kernel takes ``KERNEL_REF_S``.  Raw CPU and wall times stay in the record.

``--trace 1`` runs whole rounds of the commands with every public blochlab
function wrapped (``tracing.py``) and reports the per-layer metrics: self
times (wall seconds, not rescaled) as medians over rounds, counts from the
first round, which every later round must repeat exactly.

Every command's outputs are checked (``workloads.check_output``); a command
that exits nonzero or breaks a check counts as failed.  The last line of
standard output is the JSON result; the full record, with machine metadata
and every sample, is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracing import COUNTERS, MAX_COUNTERS
from workloads import WORKLOADS, check_output, config_text

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
# Fewest fresh interpreters whose median gives setup_s.
N_SETUP = 5
# Most runs of one command in a round of the end-to-end measurement.
MAX_REPEATS = 4
# CPU seconds of the reference kernel at the speed reported times refer to: a
# round figure within the 0.24-0.40 s it took on a 2-core Xeon VM as that
# machine's speed varied.
KERNEL_REF_S = 0.3
# A run must end within 180 s; children are killed when this much has passed.
RUN_LIMIT_S = 170.0
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"


class ChildFailed(Exception):
    pass


def _child_env() -> dict:
    # Children cache bytecode whatever the caller's setting, so set-up time is
    # that of an installed package's import, not of compiling its sources.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BLOCHLAB_") and k != "PYTHONDONTWRITEBYTECODE"}
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    return env


def _child(args, env, deadline: float) -> dict:
    """Run child.py to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("run time limit reached")
    try:
        proc = subprocess.run([sys.executable, CHILD, *args], env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"killed after {timeout:.0f} s: {' '.join(args)}")
    if proc.returncode != 0:
        raise ChildFailed(f"exit {proc.returncode}: {' '.join(args)}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def scaled(sample: dict, key: str) -> float:
    """A sample's CPU time ``key`` at the reference speed."""
    return sample[key] * KERNEL_REF_S / sample["kernel_s"]


def _run_command(workload, command, seed, configs, env, deadline, traced, index) -> dict:
    """One command in a child; returns the child's result plus ``error`` (None if ok)."""
    outdir = os.path.join(os.path.dirname(configs[command.kind]), f"out{index}")
    mode = "trace" if traced else "run"
    try:
        res = _child([mode, configs[command.kind], outdir, command.subcommand], env, deadline)
    except ChildFailed as exc:
        return {"command": command.metric, "error": str(exc)}
    res["command"] = command.metric
    res["error"] = (f"exit code {res['exit']}" if res["exit"] != 0
                    else check_output(workload, command, seed, outdir))
    shutil.rmtree(outdir, ignore_errors=True)
    return res


def _measure(workload, seed, seconds, configs, env, deadline) -> tuple:
    """Rounds of the commands for ``seconds``; a command runs only if it still fits.

    The first round runs each command once.  Later rounds start with the
    longest command, so that the end of the run cuts a short one, and repeat
    each command that takes at most half as long, interleaved, up to
    ``MAX_REPEATS`` times, so that every command is sampled over about the
    same share of the run.  Each round starts with a set-up measurement, so
    set-up and commands both sample the machine over the whole run rather
    than over one stretch of it.
    """
    n = len(workload.commands)
    setup_config = configs[workload.commands[0].kind]
    setups, samples = [], []
    cost = {}
    repeats = [1] * n
    order = range(n)
    start = time.monotonic()
    while True:
        ran = False
        for i in [i for k in range(max(repeats)) for i in order if k < repeats[i]]:
            if i in cost and time.monotonic() - start + cost[i] > seconds:
                continue
            if not ran:
                setups.append(_child(["setup", setup_config], env, deadline))
                ran = True
            t0 = time.monotonic()
            samples.append(_run_command(workload, workload.commands[i], seed, configs, env,
                                        deadline, False, len(samples)))
            cost[i] = time.monotonic() - t0
        if not ran:
            break
        longest = max(cost.values())
        repeats = [max(1, min(MAX_REPEATS, int(longest / cost[i]))) for i in range(n)]
        order = sorted(range(n), key=lambda i: -cost[i])
    while len(setups) < N_SETUP:
        setups.append(_child(["setup", setup_config], env, deadline))
    return setups, samples


def _trace_rounds(workload, seed, seconds, configs, env, deadline) -> list:
    """Whole traced rounds of the command list; another round only if it fits."""
    rounds = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        rounds.append([_run_command(workload, cmd, seed, configs, env, deadline, True, i)
                       for i, cmd in enumerate(workload.commands)])
        used = time.monotonic() - start
        if used + (time.monotonic() - t0) > seconds or time.monotonic() >= deadline:
            return rounds


def _round_layers(results) -> tuple:
    """Per-layer times and counts of one traced round, summed over its commands."""
    times, counts = {}, {}
    for res in results:
        trace = res.get("trace")
        if trace is None:
            continue
        for span, rec in trace["spans"].items():
            for key in ("self_s", "total_s"):
                times[f"{span}.{key}"] = times.get(f"{span}.{key}", 0.0) + rec[key]
            counts[f"{span}.calls"] = counts.get(f"{span}.calls", 0) + rec["calls"]
        for name, value in trace["counters"].items():
            if name in MAX_COUNTERS:
                counts[name] = max(counts.get(name, 0.0), value)
            else:
                counts[name] = counts.get(name, 0.0) + value
        for module, n in trace["errors"].items():
            counts[f"{module}.errors"] = counts.get(f"{module}.errors", 0) + n
    points = counts.get("bloch.transform_points", 0.0)
    counts["bloch.pad_frac"] = counts.get("bloch.coeff_points", 0.0) / points if points else 0.0
    return times, counts


def _end_to_end(workload, args, configs, env, deadline, spec, record, errors):
    setups, samples = _measure(workload, args.seed, args.seconds, configs, env, deadline)
    record["setup_samples"] = setups
    record["samples"] = samples
    values = {"setup_s": statistics.median(scaled(s, "setup_s") for s in setups)}
    for cmd in workload.commands:
        mine = [s for s in samples if s["command"] == cmd.metric and "cpu_s" in s]
        if not mine:
            errors.append(f"{cmd.metric}: no completed sample")
            continue
        values[f"{cmd.metric}_s"] = statistics.median(scaled(s, "cpu_s") for s in mine)
        values[f"{cmd.metric}_rss_mb"] = statistics.median(s["rss_mb"] for s in mine)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec["end_to_end"]}
    return metrics, samples


def _per_layer(workload, args, configs, env, deadline, spec, record, errors):
    rounds = _trace_rounds(workload, args.seed, args.seconds, configs, env, deadline)
    record["rounds"] = rounds
    layers = [_round_layers(rnd) for rnd in rounds]
    counts = layers[0][1]
    for i, (_, again) in enumerate(layers[1:], start=2):
        if again != counts:
            diff = sorted(k for k in set(again) | set(counts) if again.get(k) != counts.get(k))
            errors.append(f"traced round {i} counts differ from round 1: {diff}")
    times = {k: statistics.median(t.get(k, 0.0) for t, _ in layers)
             for k in set().union(*(t for t, _ in layers))}
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if not (name.endswith((".self_s", ".total_s", ".calls", ".errors"))
                or name in COUNTERS):
            raise KeyError(f"BENCHMARK.json names an unknown layer metric {name!r}")
        # a span or counter the workload never reaches reads 0
        metrics[name] = {"value": times.get(name, counts.get(name, 0)), "unit": m["unit"]}
    return metrics, [res for rnd in rounds for res in rnd]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if not os.path.isfile(os.path.join("src", "blochlab", "cli.py")):
        print("error: run from the root of a blochlab source tree (src/blochlab is missing)",
              file=sys.stderr)
        return 2
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = _child_env()
    workdir = os.path.abspath(os.path.join(WORK_DIR, f"{workload.name}-{args.seed}-{os.getpid()}"))
    os.makedirs(workdir, exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git_commit": _git_commit(), "nproc": os.cpu_count(),
              "cpu_model": _cpu_model(), "threads": 1,
              "env": {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
              "layer_map": workload.layer_map, "unchanged": workload.unchanged}
    errors = []
    try:
        configs = {}
        for kind in sorted({c.kind for c in workload.commands}):
            configs[kind] = os.path.join(workdir, f"{kind}.cfg")
            with open(configs[kind], "w") as fh:
                fh.write(config_text(workload, args.seed, kind))
        # the first interpreter also compiles bytecode, so it is not timed
        warm = _child(["setup", configs[workload.commands[0].kind]], env, deadline)
        record.update({k: v for k, v in warm.items() if k != "setup_s"})
        measure = _end_to_end if args.trace == 0 else _per_layer
        metrics, results = measure(workload, args, configs, env, deadline, spec, record, errors)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [res for res in results if res["error"]]
    errors += [f"{res['command']}: {res['error']}" for res in failures]
    record["errors"] = errors
    record["elapsed_s"] = time.monotonic() - started
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    meta = {k: record[k] for k in ("workload", "seed", "git_commit", "nproc", "cpu_model",
                                   "python", "numpy", "scipy", "blas", "threads", "env")}
    print("# " + json.dumps(meta))
    print(json.dumps({"correct": not errors, "attempted": len(results),
                      "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
