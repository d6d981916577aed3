"""The three benchmark workloads: seeded op plans, op execution, and the
checks of every result against the expected results in `bench/expected/`.

An op is a JSON-able list whose first item names its cell.  A plan is a
sequence of rounds; every round holds one op (or a fixed number of ops)
from every cell of the workload in a seeded order, so a run that stops
after any whole number of rounds has the same mix of work whatever the
seed.  Within a cell, ops are drawn along a low-discrepancy walk over the
cell's inputs in a fixed order (for `query`, sorted by cost), so a prefix
of the walk covers them evenly.  No op repeats within a plan.

This module does not import the program; callers pass the loaded program
modules in through `Program`.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product
from math import floor, gcd, prod
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

WORKLOADS = ("query", "modes", "large-k")

QUERY_KS = (8, 12, 16, 20)
MODES_KS = (1, 2, 3)
LARGE_KS = tuple(range(12, 25))
# warm-up ops run at k values, or on inputs, that no timed op uses, so the
# warm-up never computes a timed op ahead of time
QUERY_WARM_KS = (9, 10, 11)
LARGE_WARM_KS = (9, 10, 11)

MODE_KINDS = ("vertex", "Y_rs", "Y_rs_theta", "tilde", "mtheta", "twisted")
UNTWISTED_KINDS = ("vertex", "Y_rs", "Y_rs_theta")
# oscillator parts of u, and of v (doubled for the half-odd twisted parts)
PARTS_UPTO_3 = ((), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1))
U_PARTS_UNTWISTED = PARTS_UPTO_3
V_PARTS_UNTWISTED = PARTS_UPTO_3
U_PARTS_TWISTED = ((), (1,), (2,), (1, 1), (3,))
V_PARTS_TWISTED = (
    (), (1,), (1, 1), (3,), (1, 1, 1), (3, 1), (1, 1, 1, 1), (5,), (3, 1, 1), (1, 1, 1, 1, 1)
)
# every mode is evaluated from the lowest output weight up to this depth
MODES_DEPTH = 4
# ops per (k, operator) cell: an even subsample of the cell's inputs
MODES_CELL_SIZE = 600

LARGE_CUTOFFS = ("1", "2", "3", "4")
LARGE_COMMANDS = ("identities", "table1", "zhu", "decomp")

# ops per round of each plan; runs stop only between rounds
ROUND_OPS = {
    "query": 4 * len(QUERY_KS),
    "modes": len(MODES_KS) * len(MODE_KINDS),
    "large-k": len(LARGE_KS) * (2 + len(LARGE_CUTOFFS) // 2),
}
# ops traced per workload: whole rounds, so traced counts repeat exactly
TRACE_OPS = {
    "query": 3 * ROUND_OPS["query"],
    "modes": 10 * ROUND_OPS["modes"],
    "large-k": ROUND_OPS["large-k"],
}


def digest(obj) -> str:
    """Short stable digest of a JSON-able object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected(workload: str) -> dict:
    with open(EXPECTED_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def label_codes(k: int) -> list[str]:
    """The k+7 module labels in the program's order, as the CLI spells them."""
    return (
        ["V+", "V-"]
        + [f"Vl{r}" for r in range(1, k)]
        + ["Va+", "Va-", "VT1+", "VT1-", "VT2+", "VT2-"]
    )


def walk(n: int, rng: random.Random):
    """All of range(n) once, in golden-ratio strides from a seeded start."""
    stride = max(1, round(n * 0.6180339887498949))
    while gcd(stride, n) != 1:
        stride += 1
    start = rng.randrange(n)
    for i in range(n):
        yield (start + i * stride) % n


def warm_seed(seed: int) -> int:
    return seed * 7919 + 104729


# -- query ------------------------------------------------------------------------


def _bound_work(k: int, codes: list[str], triple) -> int:
    """Size of the constituent loop the restriction bound runs for a triple
    with a nonzero bound: the product of the labels' decomposition sizes."""
    size = {"VT": 1, "Vl": 4 * k + 5}
    return prod(size.get(codes[i][:2], 2 * k + 3) for i in triple)


def query_plan(seed: int, expected: dict) -> list:
    """Rounds of 16 `fusion query` ops: per k, two triples from the nonzero
    table and two uniform over all triples, one of each pair as text and one
    as json.

    The cost of a query is that of its restriction bound, which varies a
    thousandfold between triples.  Both walks run over triples sorted by
    that cost (zero-bound triples exit early), so the ops of any run sample
    every cost range in proportion, whatever the seed.  Capped at half the
    smallest table, so the walks never run out when uniform picks take
    table triples first."""
    rng = random.Random(seed)
    walks = {}
    for k in QUERY_KS:
        codes = label_codes(k)
        n = len(codes)
        tab = expected["tables"][str(k)]
        bounded = {tuple(row[:3]) for row in tab["nonzero"] + tab["bounded"]}

        def cost(t, k=k, codes=codes, bounded=bounded):
            return (_bound_work(k, codes, t) if t in bounded else 0, t)

        table = sorted((tuple(row[:3]) for row in tab["nonzero"]), key=cost)
        every = sorted(product(range(n), repeat=3), key=cost)
        walks[k] = (
            iter([table[i] for i in walk(len(table), rng)]),
            iter([every[i] for i in walk(len(every), rng)]),
        )
    rounds = min(len(expected["tables"][str(k)]["nonzero"]) for k in QUERY_KS) // 4
    seen = set()
    plan = []
    for _ in range(rounds):
        batch = []
        for k in QUERY_KS:
            for source in walks[k]:
                for fmt in ("text", "json"):
                    triple = next(t for t in source if (k, *t) not in seen)
                    seen.add((k, *triple))
                    batch.append(["query", k, fmt, *triple])
        rng.shuffle(batch)
        plan += batch
    return plan


def query_warmup(seed: int) -> list:
    """Four triples per format at k values the plan does not use.  The first
    label is twisted, which keeps the bound cheap, so set-up time does not
    depend on the seed."""
    rng = random.Random(warm_seed(seed))
    ops = []
    for fmt in ("text", "json") * 4:
        k = rng.choice(QUERY_WARM_KS)
        first = k + 3 + rng.randrange(4)  # one of VT1+ VT1- VT2+ VT2-
        ops.append(["query", k, fmt, first, rng.randrange(k + 7), rng.randrange(k + 7)])
    return ops


_QUERY_TEXT = re.compile(
    r"^(\S+) x (\S+) -> (\S+): value (\d+) \(bound (\d+)\)(?: witnesses: (.*))?$"
)


def query_expect(expected: dict, k: int, triple) -> tuple:
    """(value, bound, witnesses) stored for a triple of label indices."""
    table = expected["_index"][k]
    value, bound, witnesses = table.get(tuple(triple), (0, 0, []))
    return value, bound, witnesses


def index_query_expected(expected: dict) -> dict:
    """Add a lookup from (k, i, j, l) to the stored answer."""
    names = expected["witness_names"]
    index = {}
    for k_text, tab in expected["tables"].items():
        entries = {}
        for i, j, l, bound, w in tab["nonzero"]:
            entries[(i, j, l)] = (1, bound, [] if w is None else [names[w]])
        for i, j, l, bound in tab["bounded"]:
            entries[(i, j, l)] = (0, bound, [])
        index[int(k_text)] = entries
    expected["_index"] = index
    return expected


def query_parse(fmt: str, out: str) -> tuple:
    """(triple codes, value, bound, witnesses) from `fusion query` output."""
    if fmt == "json":
        rec = json.loads(out)
        return rec["triple"], rec["value"], rec["bound"], rec["witnesses"]
    m = _QUERY_TEXT.match(out.strip())
    if m is None:
        raise ValueError(f"unparsed query output {out!r}")
    witnesses = m.group(6).split(", ") if m.group(6) else []
    return list(m.group(1, 2, 3)), int(m.group(4)), int(m.group(5)), witnesses


# -- modes ------------------------------------------------------------------------


def modes_cell(k: int, kind: str, warm: bool = False) -> list:
    """(u parts, u index, v parts, v index or sector) inputs of a cell: an
    even subsample of all pairs, in a fixed order.  The warm-up cells use
    lattice indices of u just outside the timed range and no oscillators,
    so warm-up costs about the same whatever the seed."""
    untwisted = kind in UNTWISTED_KINDS
    if kind == "twisted":
        # lattice support only: multiples of 2k
        u_indices = [2 * k * m for m in range(-5, 6) if (abs(m) == 5) == warm]
    else:
        reach = (2 if untwisted else 3) * k
        u_indices = [r for r in range(-reach - k, reach + k + 1) if (abs(r) > reach) == warm]
    u_parts = ((),) if warm else U_PARTS_UNTWISTED if untwisted else U_PARTS_TWISTED
    v_parts = ((),) if warm else V_PARTS_UNTWISTED if untwisted else V_PARTS_TWISTED
    v_indices = range(-2 * k + 1, 2 * k + 1) if untwisted else (1, 2)
    full = [
        [list(up), r, list(vp), c]
        for r in u_indices for up in u_parts for c in v_indices for vp in v_parts
    ]
    size = min(len(full), MODES_CELL_SIZE)
    return [full[i * len(full) // size] for i in range(size)]


def modes_cells(warm: bool = False) -> dict:
    return {f"{k}|{kind}": modes_cell(k, kind, warm) for k in MODES_KS for kind in MODE_KINDS}


def modes_plan(seed: int, expected: dict | None = None) -> list:
    """Rounds of one op per (k, operator) cell; capped where the smallest
    cell runs out."""
    rng = random.Random(seed)
    cells = modes_cells()
    walks = {name: walk(len(universe), rng) for name, universe in cells.items()}
    rounds = min(len(universe) for universe in cells.values())
    plan = []
    for _ in range(rounds):
        batch = []
        for name, universe in cells.items():
            pos = next(walks[name])
            k, kind = name.split("|")
            batch.append(["modes", int(k), kind, pos, *universe[pos]])
        rng.shuffle(batch)
        plan += batch
    return plan


def modes_warmup(seed: int) -> list:
    """One op per cell, from the warm-up cells."""
    rng = random.Random(warm_seed(seed))
    ops = []
    for name, universe in modes_cells(warm=True).items():
        k, kind = name.split("|")
        pos = rng.randrange(len(universe))
        ops.append(["modes", int(k), kind, -1, *universe[pos]])
    return ops


def _grid_top(off: Fraction, step: Fraction, top: Fraction) -> Fraction:
    """Largest m <= top with m = off mod step."""
    return off + step * floor((top - off) / step)


def modes_sweep(k: int, kind: str, uparts, r: int, vparts, c: int) -> list[Fraction]:
    """The on-grid modes of one op, from the lowest output weight down the
    support grid for MODES_DEPTH weight units."""
    wt_u = Fraction(sum(uparts)) + Fraction(r * r, 4 * k)
    if kind in UNTWISTED_KINDS:
        s = -c if kind == "Y_rs_theta" else c
        wt_v = Fraction(sum(vparts)) + Fraction(c * c, 4 * k)
        step = Fraction(1)
        off = Fraction(-r * s, 2 * k) % step
        lowest = Fraction((r + s) ** 2, 4 * k)
    else:
        wt_v = Fraction(sum(vparts), 2) + Fraction(1, 16)
        step = Fraction(1, 2)
        off = Fraction(r * r, 4 * k) % step
        lowest = Fraction(1, 16)
    m = _grid_top(off, step, wt_u + wt_v - 1 - lowest)
    return [m - j * step for j in range(int(MODES_DEPTH / step) + 1)]


def canonical(vec) -> list:
    """Exact, order-independent form of a graded vector."""
    return sorted(
        [[str(p) for p in parts], idx, [[a, b, str(q)] for (a, b), q in sorted(c.terms.items())]]
        for (parts, idx), c in vec.terms.items()
    )


# -- large-k ----------------------------------------------------------------------


def large_plan(seed: int, expected: dict | None = None) -> list:
    """Two rounds over every k.  Per k the plan runs `verify identities` in
    text and in json, `verify decomp` once at each cutoff, `verify table1`
    once and `zhu table --format json` once; each round holds one
    identities, two decomps and one of table1 and zhu.  So every run does
    the same work whatever the seed, and the cheap table1 and zhu commands
    are a quarter of the ops: the median lies among the expensive ones, not
    in the gap between the two."""
    rng = random.Random(seed)
    rounds = [[], []]
    for k in LARGE_KS:
        fmts = ["text", "json"]
        rng.shuffle(fmts)
        cutoffs = list(LARGE_CUTOFFS)
        rng.shuffle(cutoffs)
        cheap = [("table1", rng.choice(fmts)), ("zhu", "json")]
        rng.shuffle(cheap)
        variants = [("identities", fmt, None) for fmt in fmts]
        variants += [("decomp", fmts[i % 2], c) for i, c in enumerate(cutoffs)]
        variants += [(cmd, fmt, None) for cmd, fmt in cheap]
        for i, (cmd, fmt, cutoff) in enumerate(variants):
            rounds[i % 2].append(["large", cmd, k, fmt, cutoff])
    plan = []
    for rnd in rounds:
        rng.shuffle(rnd)
        plan += rnd
    return plan


def large_warmup(seed: int) -> list:
    rng = random.Random(warm_seed(seed))
    return [
        ["large", cmd, rng.choice(LARGE_WARM_KS), rng.choice(("text", "json")),
         LARGE_CUTOFFS[0] if cmd == "decomp" else None]
        for cmd in LARGE_COMMANDS
    ]


def large_argv(cmd: str, k: int, fmt: str, cutoff) -> list[str]:
    if cmd == "zhu":
        return ["zhu", "table", "--k", str(k), "--format", fmt]
    argv = ["verify", cmd, "--k", str(k), "--format", fmt]
    return argv + (["--cutoff", cutoff] if cutoff is not None else [])


_ZHU_TEXT = re.compile(r"^(\S+)\s+omega=(.*)  J=(.*)  E=(.*)$")


def large_meaning(cmd: str, fmt: str, out: str):
    """What a large-k command answered: verify items as [name, status], or
    the zhu action table."""
    if cmd == "zhu":
        if fmt == "json":
            return json.loads(out)["actions"]
        actions = {}
        for line in out.splitlines():
            m = _ZHU_TEXT.match(line)
            if m is None:
                raise ValueError(f"unparsed zhu line {line!r}")
            actions[m.group(1)] = {"omega": m.group(2), "J": m.group(3), "E": m.group(4)}
        return actions
    if fmt == "json":
        return [[item["name"], item["status"]] for item in json.loads(out)["results"]]
    items = []
    for line in out.splitlines():
        status, _, rest = line.partition(" ")
        items.append([rest.strip().split(": ", 1)[0], status.lower()])
    return items


def large_key(cmd: str, k: int, cutoff) -> str:
    return f"{cmd}|{k}" + (f"|{cutoff}" if cutoff is not None else "")


# -- running ops ------------------------------------------------------------------


LAYERS = ("ring", "labels", "fock", "untwisted", "twisted", "intertwine", "zhu", "fusion", "cli")


def load_program(root: Path) -> dict:
    """Import every layer module of the program from `root/src`.

    Modules are reached through importlib: the package namespace rebinds
    some module names (`orbifold_voa.fusion` is the function of that name).
    """
    import importlib
    import sys

    src = (root / "src").resolve()
    if not (src / "orbifold_voa" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source under {src}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"orbifold_voa.{name}") for name in LAYERS}
    origin = Path(modules["cli"].__file__).resolve()
    if src not in origin.parents:
        raise ImportError(f"orbifold_voa was imported from {origin}, not from {src}")
    return modules


class Program:
    """The program's layer modules plus per-k ring parameters built during
    set-up."""

    def __init__(self, modules: dict):
        self.m = modules
        self.params = {}

    def ring(self, k: int):
        if k not in self.params:
            self.params[k] = self.m["ring"].RingParams(k)
        return self.params[k]


def run_cli(prog: Program, argv: list[str], clock) -> tuple[int, str, float]:
    """Run one command through cli.main; returns (exit code, stdout, seconds)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        t0 = clock()
        rc = prog.m["cli"].main(argv)
        dt = clock() - t0
    return rc, buf.getvalue(), dt


def modes_inputs(prog: Program, op):
    """(operator callable, u, v, sweep) for a modes op; built untimed."""
    _tag, k, kind, _pos, uparts, r, vparts, c = op
    fock = prog.m["fock"]
    params = prog.ring(k)
    u = fock.UVector(params, {(tuple(sorted(uparts, reverse=True)), r): 1})
    sweep = modes_sweep(k, kind, uparts, r, vparts, c)
    if kind in UNTWISTED_KINDS:
        v = fock.UVector(params, {(tuple(sorted(vparts, reverse=True)), c): 1})
        if kind == "vertex":
            fn = prog.m["untwisted"].vertex_mode
        else:
            it = prog.m["intertwine"]
            spec = it.IntertwinerSpec(kind, r % (2 * k), c % (2 * k))
            fn = lambda u, m, v, _s=spec, _f=it.intertwiner_mode: _f(_s, u, m, v)
    else:
        parts = tuple(Fraction(p, 2) for p in sorted(vparts, reverse=True))
        v = fock.TVector(params, {(parts, c): 1})
        fn = getattr(prog.m["twisted"], f"{kind}_mode")
    return fn, u, v, sweep


class Checker:
    """Runs ops and compares each answer with the stored expected result
    (only exit codes and failing items when `expected` is None).  `run`
    returns (seconds, failure message or None)."""

    def __init__(self, prog: Program, expected: dict | None, clock, tracer=None):
        self.prog = prog
        self.expected = expected
        self.clock = clock
        self.tracer = tracer

    def _on(self):
        if self.tracer is not None:
            self.tracer.active = True

    def _off(self):
        if self.tracer is not None:
            self.tracer.active = False

    def run(self, op) -> tuple[float, str | None]:
        t0 = self.clock()
        try:
            if op[0] == "query":
                return self._query(op)
            if op[0] == "modes":
                return self._modes(op)
            return self._large(op)
        except Exception as exc:  # a failing op is counted, not fatal
            self._off()
            return self.clock() - t0, f"{op}: {type(exc).__name__}: {exc}"

    def _query(self, op):
        _tag, k, fmt, *triple = op
        codes = label_codes(k)
        names = [codes[i] for i in triple]
        self._on()
        argv = ["fusion", "query", "--k", str(k), "--format", fmt, *names]
        rc, out, dt = run_cli(self.prog, argv, self.clock)
        self._off()
        if rc != 0:
            return dt, f"{argv}: exit code {rc}"
        if self.expected is None:
            return dt, None
        got = query_parse(fmt, out)
        want = (names, *query_expect(self.expected, k, triple))
        if list(got) != list(want):
            return dt, f"query {k} {names}: got {got}, expected {want}"
        return dt, None

    def _modes(self, op):
        fn, u, v, sweep = modes_inputs(self.prog, op)
        self._on()
        t0 = self.clock()
        images = [fn(u, m, v) for m in sweep]
        dt = self.clock() - t0
        self._off()
        if self.expected is None:
            return dt, None
        got = digest([[str(m), canonical(img)] for m, img in zip(sweep, images)])
        _tag, k, kind, pos = op[:4]
        want = self.expected["cells"][f"{k}|{kind}"][pos]
        if got != want:
            return dt, f"modes {op}: image digest {got}, expected {want}"
        return dt, None

    def _large(self, op):
        _tag, cmd, k, fmt, cutoff = op
        argv = large_argv(cmd, k, fmt, cutoff)
        self._on()
        rc, out, dt = run_cli(self.prog, argv, self.clock)
        self._off()
        if rc != 0:
            return dt, f"{argv}: exit code {rc}"
        meaning = large_meaning(cmd, fmt, out)
        if cmd != "zhu" and any(status == "fail" for _n, status in meaning):
            return dt, f"{argv}: an item failed"
        if self.expected is None:
            return dt, None
        got, want = digest(meaning), self.expected["answers"][large_key(cmd, k, cutoff)]
        if got != want:
            return dt, f"{argv}: answer digest {got}, expected {want}"
        return dt, None


PLANS = {"query": query_plan, "modes": modes_plan, "large-k": large_plan}
WARMUPS = {"query": query_warmup, "modes": modes_warmup, "large-k": large_warmup}
KS = {"query": QUERY_KS, "modes": MODES_KS, "large-k": LARGE_KS}
