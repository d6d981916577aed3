"""One benchmark process: imports the program, sets up, and runs one
workload's ops in a closed loop with one client.

    python3 bench/worker.py --workload W --seed N --role setup|run|trace|count
                            [--seconds S]

`setup` stops once set-up is done; `run` measures untraced for S seconds,
at least MIN_OPS ops and whole rounds of the plan; `trace` runs the first
TRACE_OPS ops of the plan with spans on the layers' entry points, and
`count` runs the same ops with counters on the hot element-level entry
points only.  Every role prints `ready SCALE REF_S` on its own line when
set-up is done: the host-speed scale (see hostspeed.py) sampled at the
start and at the end of set-up, and the seconds those samples took.
`run`/`trace`/`count` then print one JSON summary line with raw times and
the host-speed scale of every op.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

import workloads as W
from hostspeed import Sampler, scale_now

ROOT = Path(__file__).resolve().parent.parent
# at least ten samples lie beyond the 90th percentile
MIN_OPS = 100


def sample_scale() -> tuple[float, float]:
    """(host-speed scale now, seconds the sampling took)."""
    t0 = perf_counter()
    scale = scale_now()
    return scale, perf_counter() - t0


def main() -> int:
    scale_start, ref_start_s = sample_scale()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--role", choices=("setup", "run", "trace", "count"), required=True)
    ap.add_argument("--seconds", type=float, help="length of the timed loop; role run only")
    args = ap.parse_args()
    if (args.role == "run") != (args.seconds is not None):
        ap.error("--seconds is given exactly with --role run")
    os.environ["ORBIFOLD_VOA_THREADS"] = "1"

    warmup = W.WARMUPS[args.workload](args.seed)
    modules = W.load_program(ROOT)
    tracer = None
    if args.role in ("trace", "count"):
        from layertrace import Tracer

        tracer = Tracer(W.LAYERS, counted=args.role == "count")
        tracer.install(modules)
        tracer.active = True

    # set-up: ring and engine builds for the workload's k values, then the
    # warm-up ops, which are never among the timed ones
    prog = W.Program(modules)
    for k in W.KS[args.workload]:
        prog.ring(k)
        if args.workload == "query":
            modules["fusion"].get_engine(k)
    warm = W.Checker(prog, None, perf_counter, tracer)
    warm_errors = [err for err in (warm.run(op)[1] for op in warmup) if err]
    setup_entries = None
    if tracer is not None:
        tracer.active = False
        setup_entries = {name: rec[0] for name, rec in tracer.entries.items()}
        if not tracer.counted:
            engine_build_s = tracer.entries["FusionEngine.__init__"][3]
        tracer.reset()
    scale_end, ref_end_s = sample_scale()
    print("ready", (scale_start + scale_end) / 2, ref_start_s + ref_end_s, flush=True)
    if args.role == "setup":
        return 1 if warm_errors else 0

    expected = W.load_expected(args.workload)
    if args.workload == "query":
        W.index_query_expected(expected)
    plan = W.PLANS[args.workload](args.seed, expected)
    checker = W.Checker(prog, expected, perf_counter, tracer)
    latencies = []
    cycles = []
    errors = []
    limit = len(plan) if args.role == "run" else W.TRACE_OPS[args.workload]
    round_ops = W.ROUND_OPS[args.workload]
    sampler = Sampler()
    sampler.take(0)
    t_start = perf_counter()
    for i, op in enumerate(plan[:limit]):
        # stop only between whole rounds, so every run has the same mix
        if (
            args.role == "run"
            and i % round_ops == 0
            and i >= MIN_OPS
            and perf_counter() - t_start >= args.seconds
        ):
            break
        sampler.due(i)
        t0 = perf_counter()
        dt, err = checker.run(op)
        cycles.append(perf_counter() - t0)
        latencies.append(dt)
        if err:
            errors.append(err)
    done = len(latencies)
    sampler.take(done)

    summary = {
        "latencies": latencies,
        "cycles": cycles,
        "scales": sampler.scales(done),
        "failed": len(errors),
        "errors": (warm_errors + errors)[:5],
        "warmup_failed": len(warm_errors),
        "plan_ops": len(plan),
        "plan_digest": W.digest(plan),
        "ops_digest": W.digest(plan[:done]),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        layers = tracer.metrics()
        if not tracer.counted:
            layers["fusion.engine_build_s"] = engine_build_s
        summary["layers"] = layers
        summary["entry_calls"] = {
            name: {"setup": setup_entries[name], "run": rec[0]}
            for name, rec in tracer.entries.items()
        }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
