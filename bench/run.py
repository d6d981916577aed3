"""The orbifold-voa benchmark: one command, three seeded workloads.

    python3 bench/run.py --workload query|modes|large-k --seed N
                         --seconds S [--trace 0|1]
    python3 bench/run.py --compare BEFORE AFTER

Each workload is a closed loop with one client, in one single-threaded
process that receives only the inputs generated from the seed:

* `query`    `fusion query` through `cli.main`, text and json, at
             k = 8, 12, 16, 20; half the triples from the nonzero table and
             half uniform.  The restriction bound is nearly all the cost.
* `modes`    on-grid mode sweeps through the library at k = 1, 2, 3 with
             vertex_mode, intertwiner_mode (Y_rs, Y_rs_theta), tilde_mode,
             mtheta_mode and twisted_mode.  The operator kernels, the Fock
             vectors and cyclotomic scalars are the cost.
* `large-k`  `verify identities`, `verify table1`, `zhu table` and
             `verify decomp` through `cli.main` at k = 12..24: few huge
             expansions and graded-dimension counting.

Every answer is checked against the results stored in bench/expected/.
With `--trace 0` the run reports the end-to-end metrics, measured
untraced: set-up time (median of several fresh processes), throughput,
median and 90th-percentile latency, peak RSS and the share of ops that
succeeded.  With `--trace 1` it also runs a fixed number of ops with every
layer's entry points wrapped, and the same ops again with the hot
element-level entry points counted, and reports self time and call counts
per layer, plus the tracing overhead over the same ops untraced.

Every time is scaled to a reference host speed, measured by a fixed
stdlib-only loop run between the ops (see hostspeed.py), because the
speed of the shared host drifts by tens of percent within minutes.

Each run prints one JSON line describing the run (seed, digests of the op
plan and of the ops run, the unscaled wall-clock figures, environment)
and, last, the result line
`{"correct", "attempted", "failed", "metrics"}`.  `--compare` reads two
files of such output, one run per line pair, and prints per workload and
metric the median and quartiles of each side and their ratio, flagging
moves beyond the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as W

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# set-up is measured in this many fresh processes, the run's own included;
# the median is reported
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 20
RUN_TIMEOUT_S = 60


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # an ambient thread count must not move verify suites onto the pool,
    # and a fixed hash seed keeps set and dict orders the same in every run
    env["ORBIFOLD_VOA_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], timeout: float) -> tuple[float, float, dict | None]:
    """Run one worker; returns (set-up seconds scaled to the reference host
    speed, set-up wall-clock seconds, summary).  Set-up runs from spawn to
    `ready`, less the time the worker spent sampling the host speed."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=child_env(),
        text=True,
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    fields = first.split()
    if len(fields) != 3 or fields[0] != "ready" or proc.returncode != 0:
        raise ChildError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    scale, ref_s = float(fields[1]), float(fields[2])
    setup_s = ready_s - ref_s
    lines = rest.strip().splitlines()
    return setup_s * scale, setup_s, json.loads(lines[-1]) if lines else None


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_sha": sha,
        "ORBIFOLD_VOA_THREADS": "1",
        "PYTHONHASHSEED": "0",
    }


def scaled(summary: dict, key: str) -> list[float]:
    return [t * s for t, s in zip(summary[key], summary["scales"])]


def timings(setups: list[float], lat: list[float], cycles: list[float]) -> dict:
    out = {
        "ops_per_s": len(lat) / sum(cycles),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p90_ms": 1000 * statistics.quantiles(lat, n=10)[8],
    }
    if setups:
        out["setup_s"] = statistics.median(setups)
    return out


def end_to_end(setups: list[float], run: dict, units: dict) -> dict:
    n = len(run["latencies"])
    values = timings(setups, scaled(run, "latencies"), scaled(run, "cycles"))
    values["peak_rss_mb"] = run["rss_kb"] / 1024
    values["ok_ratio"] = (n - run["failed"]) / n
    return {name: (values[name], units[name]) for name in units}


def per_layer(run: dict, traced: dict, counted: dict, units: dict) -> dict:
    """Self times from the timed pass, scaled by its median host speed;
    counts from both passes; overhead of the timed pass over the same ops
    untraced."""
    scale = statistics.median(traced["scales"])
    values = {
        name: value * scale if name.endswith("_s") else value
        for name, value in traced["layers"].items()
    }
    values.update(counted["layers"])
    n = len(traced["latencies"])
    values["trace.overhead"] = sum(scaled(traced, "latencies")) / sum(scaled(run, "latencies")[:n])
    return {name: (values[name], units[name]) for name in units}


def measure(args) -> int:
    if not (ROOT / "src" / "orbifold_voa" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [] if args.trace else [
            spawn(common + ["--role", "setup"], SETUP_TIMEOUT_S)[:2]
            for _ in range(SETUP_REPEATS - 1)
        ]
        *run_setup, run = spawn(
            common + ["--role", "run", "--seconds", str(args.seconds)],
            args.seconds + RUN_TIMEOUT_S,
        )
        if not args.trace:
            setups.append(tuple(run_setup))
        passes = [
            spawn(common + ["--role", role], RUN_TIMEOUT_S + 60)[2]
            for role in (("trace", "count") if args.trace else ())
        ]
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = [run] + passes
    attempted = sum(len(r["latencies"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    warm_failed = sum(r["warmup_failed"] for r in runs)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(run, *passes, units)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = end_to_end([s for s, _wall in setups], run, units)
    info = {
        "bench": "orbifold-voa",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(run["latencies"]),
        "plan_ops": run["plan_ops"],
        "plan_digest": run["plan_digest"],
        "ops_digest": run["ops_digest"],
        "failed_ratio": failed / attempted,
        "setup_samples_s": [s for s, _wall in setups],
        "host_scale": statistics.median(run["scales"]),
        "wall_clock": timings([w for _s, w in setups], run["latencies"], run["cycles"]),
        "errors": [e for r in runs for e in r["errors"]][:5],
        "env": environment(),
    }
    if passes:
        info["traced_ops"] = len(passes[0]["latencies"])
        info["traced_ops_digest"] = passes[0]["ops_digest"]
        info["entry_calls"] = dict(passes[0]["entry_calls"], **passes[1]["entry_calls"])
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and warm_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


# -- compare ------------------------------------------------------------------------


def load_runs(path: str) -> dict:
    """{workload: {metric: [values]}} from a file of benchmark output."""
    out: dict = {}
    workload = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            rec = json.loads(line)
            if "workload" in rec:
                workload = rec["workload"]
            elif "metrics" in rec and workload is not None:
                for name, m in rec["metrics"].items():
                    out.setdefault(workload, {}).setdefault(name, []).append(m["value"])
                workload = None
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(before_path: str, after_path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load_runs(before_path), load_runs(after_path)
    print(f"{'workload':9} {'metric':28} {'before median [q1, q3]':34} "
          f"{'after median [q1, q3]':34} {'after/before':>12}  flag")
    for workload in W.WORKLOADS:
        for name, m in metrics.items():
            a = before.get(workload, {}).get(name)
            b = after.get(workload, {}).get(name)
            if not a or not b:
                continue
            (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
            ratio = b2 / a2 if a2 else float("nan")
            flag = ""
            bound = m.get("bound")
            if bound is not None and a2 and b2:
                sign = 1 if m["better"] == "lower" else -1
                worse = sign * (b2 - a2) > bound * a2
                better = sign * (a2 - b2) > bound * a2
                # a wide spread leaves a move unresolved unless every run of
                # one side reads better than every run of the other
                wide = (a3 - a1) / a2 > bound or (b3 - b1) / b2 > bound
                apart = max(sign * x for x in b) < min(sign * x for x in a) or (
                    min(sign * x for x in b) > max(sign * x for x in a)
                )
                if wide and not apart:
                    flag = "unresolved"
                elif worse:
                    flag = "WORSE"
                elif better:
                    flag = "better"
            unit = m["unit"]
            print(
                f"{workload:9} {name:28} "
                f"{f'{a2:.4g} [{a1:.4g}, {a3:.4g}] {unit}':34} "
                f"{f'{b2:.4g} [{b1:.4g}, {b3:.4g}] {unit}':34} "
                f"{ratio:>7.3f} of {a2:.4g}  {flag}".rstrip()
            )
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="orbifold-voa benchmark")
    ap.add_argument("--workload", choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seconds is None:
        ap.error("--workload and --seconds are required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
