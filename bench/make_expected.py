"""Regenerate the expected results in bench/expected/ from the program.

The stored files are the reference every benchmark run is checked
against, taken from the program as it was when the benchmark was defined.
Regenerate them only for a change that is meant to alter the program's
answers, and review the diff.

    python3 bench/make_expected.py [query] [modes] [large-k]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads as W

ROOT = Path(__file__).resolve().parent.parent


def make_query(prog: W.Program) -> dict:
    """Every triple at every query k: the nonzero table with bounds and
    witnesses, and the zero triples whose bound is nonzero."""
    witness_names: list[str] = []
    tables = {}
    for k in W.QUERY_KS:
        codes = W.label_codes(k)
        if [lab.code for lab in prog.m["labels"].all_labels(k)] != codes:
            raise SystemExit(f"label order at k={k} differs from the benchmark's")
        nonzero, bounded = [], []
        n = len(codes)
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    argv = ["fusion", "query", "--k", str(k), "--format", "json"]
                    argv += [codes[i], codes[j], codes[l]]
                    rc, out, _dt = W.run_cli(prog, argv, time.perf_counter)
                    if rc != 0:
                        raise SystemExit(f"query failed: {argv}")
                    rec = json.loads(out)
                    if rec["value"]:
                        w = None
                        if rec["witnesses"]:
                            (name,) = rec["witnesses"]
                            if name not in witness_names:
                                witness_names.append(name)
                            w = witness_names.index(name)
                        nonzero.append([i, j, l, rec["bound"], w])
                    elif rec["bound"]:
                        bounded.append([i, j, l, rec["bound"]])
            print(f"query k={k}: first label {i + 1}/{n}", file=sys.stderr, flush=True)
        tables[str(k)] = {"nonzero": nonzero, "bounded": bounded}
    return {"witness_names": witness_names, "tables": tables}


def make_modes(prog: W.Program) -> dict:
    """Digest of the exact images of every op of every (k, operator) cell,
    in the order of the cell's inputs."""
    cells = {}
    for name, universe in W.modes_cells().items():
        k, kind = name.split("|")
        out = []
        for pos, inputs in enumerate(universe):
            fn, u, v, sweep = W.modes_inputs(prog, ["modes", int(k), kind, pos, *inputs])
            out.append(W.digest([[str(m), W.canonical(fn(u, m, v))] for m in sweep]))
        cells[name] = out
        print(f"modes {name}: {len(out)} ops", file=sys.stderr, flush=True)
    return {"cells": cells}


def make_large(prog: W.Program) -> dict:
    """Digest of the answer of every large-k command: verify items as
    [name, status] pairs, or the zhu action table."""
    answers = {}
    for k in W.LARGE_KS:
        for cmd in W.LARGE_COMMANDS:
            for cutoff in W.LARGE_CUTOFFS if cmd == "decomp" else [None]:
                argv = W.large_argv(cmd, k, "json", cutoff)
                rc, out, _dt = W.run_cli(prog, argv, time.perf_counter)
                if rc != 0:
                    raise SystemExit(f"command failed: {argv}")
                answers[W.large_key(cmd, k, cutoff)] = W.digest(W.large_meaning(cmd, "json", out))
        print(f"large-k k={k}", file=sys.stderr, flush=True)
    return {"answers": answers}


MAKERS = {"query": make_query, "modes": make_modes, "large-k": make_large}


def main(argv: list[str]) -> int:
    names = argv or list(MAKERS)
    prog = W.Program(W.load_program(ROOT))
    for name in names:
        data = MAKERS[name](prog)
        path = W.EXPECTED_DIR / f"{name}.json"
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
