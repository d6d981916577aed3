"""Census of the `src/` functions that the project's commands reach.

    python3 .github/census.py src

runs two sets of work in this one process under `sys.setprofile`: every
command of `.github/cli_digest.py`'s `commands()` through `cli.main`, and
the seed-1 warm-ups and plans of the `query`, `modes` and `large-k` bench
workloads through `bench/workloads.Checker`, each answer checked against
`bench/expected`.  SRC (default `src`) is the directory that holds the
`orbifold_voa` package; `cli_digest.py` reads it from the same argument
when it is imported.  No bytecode is written, so `bench/` and SRC are only
read.

The entries are every module-level function and every method of a
module-level class in SRC/orbifold_voa, named `module.qualname`, dunder
methods included: an operator or protocol method that nothing calls is
unreached like any other function.  A call is matched to its entry by the
file and first line of its code object (a decorated function's code
starts at its first decorator, on Python 3.10 and 3.11 alike).  The
script lists the unreached entries and exits 1 when one of them is not
in `KEPT`, when a `KEPT` entry was reached or names no entry, or when a
bench op failed, since a failing op may stop short of code it should
reach.  Stdlib only."""

import ast
import os
import sys
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(sys.argv[1] if len(sys.argv) > 1 else "src")

# unreached entries that stay, each with why
KEPT = {
    "fusion.fusion": "the package API: one fusion number without an engine in hand",
    "fusion.m1_fusion": "bench/layertrace.py wraps it by name (ROADMAP item 1(a))",
    "zhu.top_action": "bench/layertrace.py wraps it by name (ROADMAP item 1(a))",
    "labels.ModuleLabel._make": "`_replace` calls it, so a replaced label is checked",
    "ring.RingParams._mul_basis": "the product of two irrational Scalars, for ROADMAP items 4-6",
    "ring.RingParams.scalar": "the tests read it",
    "ring.Scalar.__sub__": "the tests subtract Scalars (tests/test_fock.py)",
    "ring.Scalar.__rmul__": "the tests scale a Scalar from the left (tests/test_mode_kernel.py)",
    "ring.Scalar.__hash__": "pairs with `Scalar.__eq__`, so equal Scalars hash alike",
    "ring.RingParams.__hash__": "pairs with `RingParams.__eq__`, so equal rings hash alike",
    "ring.Scalar.__repr__": "pytest prints it in a failing assertion on Scalars",
    "ring.RingParams.__repr__": "pytest prints it in a failing assertion on rings",
    "labels.ModuleLabel.__str__": "`print(label)` shows the label code, not the field tuple",
    "labels.M1Label.__str__": "`print(label)` shows the constituent code, not the field tuple",
    "fock._SparseVector.__hash__": "raises by design, so graded vectors stay unhashable",
    "fusion.EngineInconsistencyError.__init__": "the failure path: the two transcriptions disagree",
}


def entries(package: Path) -> dict[tuple[str, int], str]:
    """{(real file path, first line): `module.qualname`} over the package."""
    out = {}
    for path in sorted(package.glob("*.py")):
        where = os.path.realpath(path)
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef):
                methods = [d for d in node.body if isinstance(d, ast.FunctionDef)]
                defs = [(f"{node.name}.{d.name}", d) for d in methods]
            elif isinstance(node, ast.FunctionDef):
                defs = [(node.name, node)]
            else:
                continue
            for name, d in defs:
                first = min([d.lineno] + [dec.lineno for dec in d.decorator_list])
                out[where, first] = f"{path.stem}.{name}"
    return out


def run_digest() -> int:
    """Every digest command; returns how many."""
    import cli_digest

    n = 0
    for argv in cli_digest.commands():
        cli_digest.digest(argv)
        n += 1
    return n


def run_bench() -> tuple[int, list[str]]:
    """The seed-1 warm-ups and plans of every bench workload, set up as
    `bench/worker.py` sets them up; returns (ops, failures)."""
    import importlib

    sys.path.insert(0, str(ROOT / "bench"))
    import workloads as W

    modules = {name: importlib.import_module(f"orbifold_voa.{name}") for name in W.LAYERS}
    ops, failures = 0, []
    for workload in W.WORKLOADS:
        prog = W.Program(modules)
        for k in W.KS[workload]:
            prog.ring(k)
            if workload == "query":
                modules["fusion"].get_engine(k)
        expected = W.load_expected(workload)
        if workload == "query":
            W.index_query_expected(expected)
        warm = W.Checker(prog, None, perf_counter)
        check = W.Checker(prog, expected, perf_counter)
        runs = [(warm, op) for op in W.WARMUPS[workload](1)]
        runs += [(check, op) for op in W.PLANS[workload](1, expected)]
        for checker, op in runs:
            err = checker.run(op)[1]
            if err:
                failures.append(err)
        ops += len(runs)
    return ops, failures


def main() -> int:
    package = SRC / "orbifold_voa"
    if not (package / "__init__.py").is_file():
        print(f"census: no orbifold_voa package under {SRC}", file=sys.stderr)
        return 2
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    t0 = perf_counter()
    sys.setprofile(profile)  # from before the imports: import-time calls count
    try:
        n_commands = run_digest()
        t1 = perf_counter()
        n_ops, failures = run_bench()
    finally:
        sys.setprofile(None)
    t2 = perf_counter()

    table = entries(package)
    names = set(table.values())
    reached = {table.get((os.path.realpath(c.co_filename), c.co_firstlineno)) for c in codes}
    unreached = sorted(names - reached)
    print(
        f"census of {SRC}: {n_commands} digest commands ({t1 - t0:.1f} s), "
        f"{n_ops} bench ops ({t2 - t1:.1f} s); {len(names)} functions, "
        f"{len(names) - len(unreached)} reached"
    )
    bad = False
    for name in unreached:
        if name in KEPT:
            print(f"kept: {name}: {KEPT[name]}")
        else:
            print(f"UNREACHED: {name}: no command or bench op calls it, and KEPT lacks it")
            bad = True
    for name in sorted(KEPT):
        if name not in names:
            print(f"STALE KEPT: {name}: no such function")
            bad = True
        elif name in reached:
            print(f"STALE KEPT: {name}: now reached")
            bad = True
    for err in failures:
        print(f"BENCH OP FAILED: {err}")
        bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
