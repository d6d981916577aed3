"""Batch command-line surface: fusion queries and table dumps, computed
top-level actions, decomposition listings, and the verification suites.

Each verification suite is a generator: it yields its (name, status,
detail) items one after another, in the order it runs them, and an item
takes as long as it takes to produce.  Output is deterministic: fixed
term ordering, fixed JSON key order and fixed item order.

`main` maps every outcome to its exit code in one place: 0 success / all
pass, 1 usage errors (an option the command does not define, which
argparse refuses as unrecognized: `verify` takes only --k, --cutoff and
--format, since its suites sample nothing; and `UsageError`, including
k < 1, a negative cutoff, order or window, a `--cutoff` for a suite that
does not read it, a `dump` option for a target that does not read it, a
fractional cutoff for `verify delta` and a cutoff that is not a multiple
of 1/2 for `verify decomp`), failing suite items or a `witness` that
finds no nonzero image (`NO-DIRECT-CONSTRUCTION` or `ZERO-UP-TO-CUTOFF`),
2 fusion-table inconsistency (`EngineInconsistencyError`).  A stdout
closed by its reader ends the output: no traceback, exit code 1.

`build_parser` builds the one parser tree (top level, command, subcommand)
for help, usage and errors.  `main` walks the command words at the head
of the line (`fusion query`, `verify`, `zhu table`, ...) down the tree and
reads a well-formed rest straight off the actions of the leaf they name;
any other rest goes to that one parser's `parse_known_args`; see `_parse`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import isqrt

from . import labels as lb
from . import zhu
from .fock import (
    TVector,
    UVector,
    coset_basis,
    graded_dim,
    heis_act,
    lattice_vector,
    m1_graded_dim,
    twisted_basis,
)
from .fusion import (
    EngineInconsistencyError,
    bound_blind_zeros,
    decompose,
    get_engine,
    upper_bound,
)
from .intertwine import (
    Y_RS,
    Y_RS_THETA,
    IntertwinerSpec,
    direct_witness,
    first_nonzero_mode,
    forced_zero_coupling,
    intertwiner_mode,
    target_of,
    witness_vectors,
)
from .ring import RingParams
from .twisted import (
    conjugation_check,
    delta_coeff,
    delta_table,
    lattice_sector_map,
    mtheta_mode,
    psi_map,
    tilde_mode,
)
from .untwisted import commutator_formula_check, e_vec, omega_vec, p_coeff_apply, vertex_mode

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONSISTENT = 2


class UsageError(Exception):
    """Bad command-line input: `main` prints it and exits 1."""


def _emit_report(k: int, command: str, items, fmt: str) -> None:
    if fmt == "json":
        payload = {
            "k": k,
            "command": command,
            "results": [
                {"name": name, "status": status, "detail": detail}
                for name, status, detail in items
            ],
        }
        print(json.dumps(payload))
        return
    for name, status, detail in items:
        line = f"{status.upper():5s} {name}"
        print(line + (f": {detail}" if detail else ""))


def _check(ok: bool, detail_pass: str, detail_fail: str):
    return ("pass", detail_pass) if ok else ("fail", detail_fail)


# -- verification suites -------------------------------------------------------


def suite_table1(k: int, cutoff):
    params = RingParams(k)
    table = zhu.top_action_table(params)
    for label in lb.all_labels(k):
        expected = zhu.expected_top_actions(params, label)
        for gen in zhu.GENERATORS:
            name = f"top action o({gen}) on {label.code}"
            if label.code not in table:  # V- at k=1, the one label it leaves out
                yield name, "skip", "two-dimensional top level at k=1"
                continue
            got = table[label.code][gen]
            want = expected[gen]
            yield name, *_check(got == want, str(got), f"computed {got}, expected {want}")


def suite_identities(k: int, cutoff):
    params = RingParams(k)
    E = e_vec(params)
    v0 = lattice_vector(params, k) + lattice_vector(params, -k)
    w = heis_act(-1, lattice_vector(params, k)) - heis_act(-1, lattice_vector(params, -k))
    yield "half-shift top fixed by the symmetric lattice mode", *_check(
        vertex_mode(E, k - 1, v0) == v0,
        "weight-preserving mode fixes the half-shift top", "the half-shift top moves",
    )
    yield "oscillator transfer identity", *_check(
        vertex_mode(E, k, w) == v0 * (2 * k),
        "degree-one oscillator transfer matches", "degree-one oscillator transfer differs",
    )
    lhs = vertex_mode(E, 0, v0)
    rhs = p_coeff_apply(params, +1, k - 1, lattice_vector(params, k)) + p_coeff_apply(
        params, -1, k - 1, lattice_vector(params, -k)
    )
    yield "creation-series expansion of the zero mode", *_check(
        lhs == rhs,
        "zero mode equals the creation-series coefficient", "zero mode and coefficient differ",
    )


def _symmetry_sweep(eng):
    """Both symmetries of the fusion rules on every index triple of the
    table: f(i, j, l) = f(j, i, l) = f(i, l', j'), l' the position of the
    contragredient of label l (`FusionEngine.duals`)."""
    k, table, labels, dual = eng.k, eng.table, eng.labels, eng.duals
    for i, j, l in product(range(len(labels)), repeat=3):
        f = (i, j, l) in table
        if f != ((j, i, l) in table) or f != ((i, dual[l], dual[j]) in table):
            name = "swap" if f != ((j, i, l) in table) else "dual"
            codes = f"{labels[i].code},{labels[j].code},{labels[l].code}"
            return "fail", f"{name} symmetry broken at {codes}"
    return "pass", f"all {(k + 7) ** 3} triples symmetric"


def suite_closure(k: int, cutoff):
    eng = get_engine(k)
    yield "closure fixed point", "pass", (
        f"{len(eng.table)} nonzero triples; closure equals transcription"
    )
    yield "symmetry sweep", *_symmetry_sweep(eng)
    yield "transcription notes", "pass", "; ".join(eng.notes)


def _bound_soundness(eng):
    k = eng.k
    for (w1, w2, w3) in eng.all_triples():
        f = eng.fusion(w1, w2, w3)
        b = upper_bound(w1, w2, w3, k)
        if f > b:
            return "fail", f"fusion {f} > bound {b} at {w1.code},{w2.code},{w3.code}"
    return "pass", f"fusion <= bound on all {(k + 7) ** 3} triples"


def suite_bounds(k: int, cutoff):
    eng = get_engine(k)
    yield "bound soundness", *_bound_soundness(eng)
    for t in bound_blind_zeros(k):
        f = eng.fusion(*t)
        b = upper_bound(*t, k)
        yield f"bound-blind zero {t[0].code},{t[1].code},{t[2].code}", *_check(
            f == 0 and b >= 1, f"fusion {f}, bound {b}", f"fusion {f}, bound {b}"
        )


def decomp_window(k: int, weight) -> int:
    """The `decompose` window that lists every constituent of weight at
    most `weight` for the untwisted labels.

    A constituent M(c) starts at weight c^2/4k.  For |m| >= 1 the shift-m
    constituent of V+-, Va+- (c = 2km, k + 2km) and Vl<r> (c = r + 2km,
    0 < r < k) has |c| > 2k(|m| - 1), so it reaches `weight` only if
    k(|m| - 1)^2 < weight, that is |m| - 1 <= isqrt(floor(weight / k))."""
    return isqrt(Fraction(weight) // k) + 1


def _decomp_character(params: RingParams, label, extra: Fraction):
    k = params.k
    top = lb.top_weight(label, k)
    constituents = decompose(label, k, window=decomp_window(k, top + extra))
    for j in range(int(2 * extra) + 1):
        w = top + Fraction(j, 2)
        lhs = graded_dim(params, label, w)
        rhs = sum(m1_graded_dim(params, m1, w) for m1, _idx in constituents)
        if lhs != rhs:
            return "fail", f"weight {w}: module {lhs} != constituents {rhs}"
    return "pass", f"weights up to top+{extra} agree"


def suite_decomp(k: int, cutoff):
    """Graded dimension of each module against the sum over its
    constituents, at weights top, top + 1/2, ..., top + cutoff.

    The constituents come from one `decompose` list per label, sized by
    `decomp_window` for the largest checked weight; those it leaves out
    start above every checked weight.  The two sides stay independent:
    `graded_dim` finds the module's constituents by weight, not through
    the window, so a window too small would show as a failing item, not
    as a pass."""
    if cutoff is not None and (2 * cutoff).denominator != 1:
        # the weights are checked in steps of 1/2; int(2 * cutoff) would drop the rest
        raise UsageError("verify decomp needs a --cutoff that is a multiple of 1/2")
    params = RingParams(k)
    extra = Fraction(cutoff) if cutoff is not None else Fraction(10)
    for label in lb.all_labels(k):
        yield f"decomposition character of {label.code}", *_decomp_character(params, label, extra)


def _delta_symmetry(order: int):
    """c[m][n] against c[n][m] for m < n.  A pair with both sides zero
    shows nothing, so with no other pair the item is skipped."""
    tab = delta_table(order)
    pairs = [(m, n) for (m, n) in tab if m < n and (tab[(m, n)] or tab[(n, m)])]
    if not pairs:
        return "skip", f"no nonzero off-diagonal c[m][n] through total order {order}"
    for m, n in pairs:
        if tab[(m, n)] != tab[(n, m)]:
            return "fail", f"c[{m}][{n}] != c[{n}][{m}]"
    return "pass", f"c[m][n] symmetric through total order {order}"


def suite_delta(k: int, cutoff):
    if cutoff is not None and cutoff.denominator != 1:
        # the cutoff is the series order there; int() would truncate it
        raise UsageError("verify delta needs an integer --cutoff")
    order = int(cutoff) if cutoff is not None else 8
    low = (
        delta_coeff(0, 0) == 0
        and delta_coeff(1, 0) == Fraction(-1, 4)
        and delta_coeff(0, 1) == Fraction(-1, 4)
        and delta_coeff(1, 1) == Fraction(1, 16)
    )
    want = "c00=0, c10=c01=-1/4, c11=1/16"
    yield "low-order values", *_check(low, want, f"values differ from {want}")
    yield "index symmetry", *_delta_symmetry(order)
    # -4 (1+x)^(1/2) g_x u = 1 for g the computed expansion and u the
    # average of the two square roots; checked as truncated series
    from .twisted import _series_mul

    half = Fraction(1, 2)
    binom = [Fraction(1)]
    for n in range(1, order + 2):
        binom.append(binom[-1] * (half - (n - 1)) / n)
    sqrt_x = {(n, 0): binom[n] for n in range(order + 2)}
    u = dict(sqrt_x)
    for n in range(order + 2):
        u[(0, n)] = u.get((0, n), Fraction(0)) + binom[n]
    u = {kk: c / 2 for kk, c in u.items() if c}
    tab = delta_table(order + 1)
    gx = {}
    for (m, n), c in tab.items():
        if m >= 1 and c:
            gx[(m - 1, n)] = c * m
    lhs = _series_mul(_series_mul(gx, sqrt_x, order), u, order)
    lhs = {kk: -4 * c for kk, c in lhs.items() if c}
    ok = lhs.get((0, 0)) == 1 and all(c == 0 for kk, c in lhs.items() if kk != (0, 0))
    yield "defining equation residual", *_check(
        ok, f"series satisfies the defining equation to order {order}",
        f"nonzero residual to order {order}",
    )


def _psi_relations(params: RingParams):
    k = params.k
    for b in range(-3, 4):
        eb = lattice_sector_map(b)
        for r in range(-6 * k, 6 * k + 1):
            ps = psi_map(params, r)
            sign = -1 if (b * r) % 2 else 1
            if eb.compose(ps) != ps.compose(eb).scale(sign):
                return "fail", f"commutation broken at b={b}, r={r}"
            if eb.compose(ps) != psi_map(params, r + 2 * k * b):
                return "fail", f"translation broken at b={b}, r={r}"
    return "pass", f"|b| <= 3, |r| <= {6 * k} all hold"


def _psi_special_cases(params: RingParams):
    k = params.k
    for m in range(-3, 4):
        if psi_map(params, -2 * k * m) != psi_map(params, 2 * k * m):
            return "fail", f"lattice symmetry broken at m={m}"
        lhs = psi_map(params, -(k + 2 * k * m))
        rhs = lattice_sector_map(-1).compose(psi_map(params, k + 2 * k * m))
        if lhs != rhs:
            return "fail", f"half-shift reflection broken at m={m}"
    return "pass", "reflection identities hold"


def suite_psi(k: int, cutoff):
    params = RingParams(k)
    yield "signed-permutation relations", *_psi_relations(params)
    yield "reflection special cases", *_psi_special_cases(params)


def suite_p31(k: int, cutoff):
    params = RingParams(k)
    yield "forced zero coupling", *_check(
        forced_zero_coupling(params), "coupling constant forced to zero",
        "coupling constant left undetermined",
    )


def _swept(results, detail: str):
    """One suite item from (call name, (ok, nontrivial)) pairs, run in order
    up to the first failing call, which it names.  A call that compared only
    zeros showed nothing, so an item with one is skipped and names them all."""
    vacuous = []
    for name, (ok, count) in results:
        if not ok:
            return "fail", name
        if not count:
            vacuous.append(name)
    if vacuous:
        return "skip", "; ".join(vacuous) + " compared only zeros"
    return "pass", detail


def suite_jacobi(k: int, cutoff):
    params = RingParams(k)
    cut = Fraction(cutoff) if cutoff is not None else Fraction(4)
    alpha = UVector(params, {((1,), 0): 1})  # alpha(-1)1, whose modes are the oscillators
    # the twisted basis vectors of weight <= 3/2 in sectors 1 and 2
    sector1, sector2 = (
        [TVector(params, {key: 1}) for key in twisted_basis(params, sector, Fraction(3, 2))]
        for sector in (1, 2)
    )

    def untwisted():
        u = lattice_vector(params, 2 * k)
        for c in (0, 1):
            basis = [UVector(params, {key: 1}) for key in coset_basis(params, c, cut - 1)]
            # the images of e[2k] sit up to its weight k above the basis cutoff
            yield f"coset {c}", commutator_formula_check(
                vertex_mode, alpha, heis_act, range(-2, 3), u, basis, cut - 1 + k
            )

    def twisted():
        modes = (Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2))
        for r in sorted({1, k, 2 * k}):
            u = lattice_vector(params, r)
            yield f"r={r}", commutator_formula_check(mtheta_mode, alpha, heis_act, modes, u, sector1, cut)

    def named(u: UVector) -> str:
        (key,) = u.terms  # each u of the conjugation items is one basis vector
        return f"u = {UVector.key_str(key)}"

    def conjugation():
        e1 = lattice_vector(params, 1)
        for u in (e1, heis_act(-1, e1), lattice_vector(params, 2 * k)):
            yield named(u), conjugation_check(mtheta_mode, u, sector1, cut)

    def tilde_conjugation():
        for r, dress in ((2 * k, None), (k, lattice_sector_map(1))):
            u = lattice_vector(params, r)
            yield named(u), conjugation_check(tilde_mode, u, sector1 + sector2, cut, dress)

    def residue():
        # a = omega at n = 0, 1 (translation and grading) and a = E at the
        # weight-preserving and -lowering modes n = k - 1, k
        u = lattice_vector(params, 1)
        generators = (("omega", omega_vec(params), (0, 1)), ("E", e_vec(params), (k - 1, k)))
        for kind in (Y_RS, Y_RS_THETA):
            spec = IntertwinerSpec(kind, 1, 1)
            mode, grid = partial(intertwiner_mode, spec), partial(target_of, spec)
            for name, a, ns in generators:
                for n in ns:
                    yield f"{spec.name}, a={name}, n={n}", commutator_formula_check(
                        mode, a, partial(vertex_mode, a), (n,), u, (u,), cut, grid
                    )

    yield "untwisted commutators", *_swept(
        untwisted(), "oscillator commutators with the lattice operator hold"
    )
    yield "twisted commutators", *_swept(twisted(), "twisted commutators hold")
    yield "conjugation, oscillator part", *_swept(
        conjugation(), "conjugation identity holds on the oscillator part"
    )
    yield "conjugation, sector maps", *_swept(
        tilde_conjugation(), "conjugation identities with sector maps hold"
    )
    yield "intertwiner Jacobi residue", *_swept(
        residue(), "Jacobi residue holds for Y_rs and Y_rs∘theta with a = omega, E"
    )


SUITES = {
    "table1": suite_table1,
    "identities": suite_identities,
    "closure": suite_closure,
    "bounds": suite_bounds,
    "decomp": suite_decomp,
    "delta": suite_delta,
    "psi": suite_psi,
    "p31": suite_p31,
    "jacobi": suite_jacobi,
}
# the suites that read each option; the others would ignore it and still pass
SUITE_OPTIONS = {"cutoff": ("decomp", "delta", "jacobi")}


# -- commands -------------------------------------------------------------------


def _parse_labels(texts, k: int):
    """The module labels spelled by `texts`; a bad spelling is a usage
    error."""
    try:
        return tuple(lb.parse_label(t, k) for t in texts)
    except ValueError as exc:
        raise UsageError(exc) from None


def cmd_query(args) -> int:
    k = args.k
    eng = get_engine(k)
    w1, w2, w3 = _parse_labels(args.labels, k)
    value = eng.fusion(w1, w2, w3)
    bound = upper_bound(w1, w2, w3, k)
    witnesses = witness_names(k, (w1, w2, w3)) if value else []
    record = {
        "k": k,
        "triple": [w1.code, w2.code, w3.code],
        "value": value,
        "bound": bound,
        "witnesses": witnesses,
    }
    if args.format == "json":
        print(json.dumps(record))
    else:
        wtxt = f" witnesses: {', '.join(witnesses)}" if witnesses else ""
        print(f"{w1.code} x {w2.code} -> {w3.code}: value {value} (bound {bound}){wtxt}")
    return EXIT_OK


def cmd_table(args) -> int:
    """`fusion table` and its alias `dump table`: JSON, or csv for any
    other format."""
    k = args.k
    eng = get_engine(k)
    codes = [label.code for label in eng.labels]
    rows = [
        (codes[i], codes[j], codes[l], 1 if (i, j, l) in eng.table else 0)
        for i, j, l in product(range(len(codes)), repeat=3)
    ]
    if args.format == "json":
        triples = [{"triple": [a, b, c], "value": v} for a, b, c, v in rows]
        print(json.dumps({"k": k, "command": "fusion table", "triples": triples}))
    else:
        print("w1,w2,w3,value")
        for row in rows:
            print(",".join(str(x) for x in row))
    return EXIT_OK


def witness_names(k: int, triple) -> list[str]:
    """Names of explicit constructions witnessing a nonzero fusion value,
    searching the symmetry orbit when the triple itself is not covered.
    Names only: nothing is built or evaluated."""
    orbit = [triple]
    for t in orbit:
        hit = direct_witness(k, t)
        if hit is not None:
            name = hit[0].name
            return [name if t == triple else f"{name} (via symmetry)"]
        w1, w2, w3 = t
        for image in ((w2, w1, w3), (w1, lb.contragredient(w3, k), lb.contragredient(w2, k))):
            if image not in orbit:
                orbit.append(image)
    return []


def _refuse_unread_options(args, command: str, target: str, readers: dict) -> None:
    """A usage error for an option of `readers` (option -> the targets
    that read it) given to a `target` that does not read it: the command
    would ignore it and still exit 0."""
    for option, targets in readers.items():
        if getattr(args, option) is not None and target not in targets:
            raise UsageError(f"{command} {target} takes no --{option}")


def cmd_verify(args) -> int:
    _refuse_unread_options(args, "verify", args.suite, SUITE_OPTIONS)
    items = list(SUITES[args.suite](args.k, args.cutoff))
    _emit_report(args.k, f"verify {args.suite}", items, args.format)
    return EXIT_FAIL if any(status == "fail" for _n, status, _d in items) else EXIT_OK


# the `dump` targets that read each option
DUMP_OPTIONS = {"order": ("delta",), "module": ("decompose",), "window": ("decompose",)}


def cmd_dump(args) -> int:
    k = args.k
    _refuse_unread_options(args, "dump", args.what, DUMP_OPTIONS)
    if args.what == "table":
        return cmd_table(args)
    if args.what == "delta":
        if args.format == "json":
            raise UsageError("dump delta writes csv only; drop --format json")
        order = args.order if args.order is not None else 8
        tab = delta_table(order)
        print("m,n,c")
        for (m, n) in sorted(tab):
            print(f"{m},{n},{tab[(m, n)]}")
        return EXIT_OK
    if args.what == "decompose":
        if not args.module:
            raise UsageError("dump decompose needs --module")
        (label,) = _parse_labels([args.module], k)
        window = args.window if args.window is not None else 2
        rows = decompose(label, k, window=window)
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "k": k,
                        "module": label.code,
                        "window": window,
                        "constituents": [
                            {
                                "constituent": m1.code,
                                "lattice_index": idx,
                                "norm": str(m1.norm(k)),
                            }
                            for m1, idx in rows
                        ],
                    }
                )
            )
        else:
            print("constituent,lattice_index,norm")
            for m1, idx in rows:
                print(f"{m1.code},{'' if idx is None else idx},{m1.norm(k)}")
        return EXIT_OK
    # zhu: argparse admits no other target
    table = zhu.top_action_table(RingParams(k))
    if args.format == "json":
        _print_zhu_json(k, "dump zhu", table)
    else:
        print("label,omega,J,E")
        for code, gens in table.items():
            print(f"{code},{gens['omega']},{gens['J']},{gens['E']}")
    return EXIT_OK


def _print_zhu_json(k: int, command: str, table) -> None:
    """The JSON form of a top-action table, shared by `dump zhu` and
    `zhu table`."""
    actions = {code: {g: str(v) for g, v in gens.items()} for code, gens in table.items()}
    print(json.dumps({"k": k, "command": command, "actions": actions}))


def cmd_zhu(args) -> int:
    params = RingParams(args.k)
    table = zhu.top_action_table(params)
    if args.format == "json":
        _print_zhu_json(args.k, "zhu table", table)
    else:
        width = max(len(code) for code in table)
        for code, gens in table.items():
            print(
                f"{code:<{width}}  omega={gens['omega']}  J={gens['J']}  E={gens['E']}"
            )
    return EXIT_OK


def cmd_witness(args) -> int:
    k = args.k
    parts = args.type.split(",")
    if len(parts) != 3:
        raise UsageError("--type wants W1,W2,W3")
    triple = _parse_labels(parts, k)
    hit = direct_witness(k, triple)
    if hit is None:
        print("NO-DIRECT-CONSTRUCTION")
        return EXIT_FAIL
    spec, sign = hit
    u, v = witness_vectors(RingParams(k), triple)
    cutoff = args.cutoff if args.cutoff is not None else lb.top_weight(triple[2], k) + 4
    res = first_nonzero_mode(spec, u, v, cutoff, sign)
    if res is None:
        print("ZERO-UP-TO-CUTOFF")
        return EXIT_FAIL
    m, img = res
    print(f"{spec.name} mode {m}: {img}")
    return EXIT_OK


def _fraction(text: str) -> Fraction:
    """argparse type of `--cutoff`: an exact rational.  Every malformed
    value, a zero denominator among them, is a usage error that names the
    type, not a traceback."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """The argument parser: the one tree for help, usage and errors."""
    return _parsers()[()]


@lru_cache(maxsize=None)
def _parsers() -> dict[tuple[str, ...], argparse.ArgumentParser]:
    """Every parser of the tree by the command words that name it, () for
    the top level; built once per process.  Parsing leaves the parsers
    unchanged, so every `main` call shares them."""
    parser = argparse.ArgumentParser(
        prog="orbifold-voa",
        description="exact fusion-rule engine for the rank-one charge "
        "conjugation orbifold",
    )
    parsers = {(): parser}

    def command(subparsers, *words: str, help: str) -> argparse.ArgumentParser:
        parsers[words] = subparsers.add_parser(words[-1], help=help)
        return parsers[words]

    sub = parser.add_subparsers(dest="command", required=True)

    fus = command(sub, "fusion", help="fusion queries and table dumps")
    fsub = fus.add_subparsers(dest="which", required=True)
    q = command(fsub, "fusion", "query", help="value of one triple")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.add_argument("labels", nargs=3, metavar="LABEL")
    q.set_defaults(fn=cmd_query)
    t = command(fsub, "fusion", "table", help="all label triples")
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--format", choices=("json", "csv"), default="csv")
    t.set_defaults(fn=cmd_table)

    ver = command(sub, "verify", help="run a verification suite")
    ver.add_argument("suite", choices=SUITES)
    ver.add_argument("--k", type=int, default=2)
    ver.add_argument("--cutoff", type=_fraction, default=None)
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.set_defaults(fn=cmd_verify)

    dmp = command(sub, "dump", help="machine-readable data dumps")
    dmp.add_argument("what", choices=("decompose", "delta", "zhu", "table"))
    dmp.add_argument("--k", type=int, default=2)
    dmp.add_argument("--order", type=int, default=None)
    dmp.add_argument("--window", type=int, default=None)
    dmp.add_argument("--module", type=str, default=None)
    dmp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    dmp.set_defaults(fn=cmd_dump)

    zh = command(sub, "zhu", help="computed generator actions on top levels")
    zsub = zh.add_subparsers(dest="which", required=True)
    zt = command(zsub, "zhu", "table", help="all labels at once")
    zt.add_argument("--k", type=int, required=True)
    zt.add_argument("--format", choices=("text", "json"), default="text")
    zt.set_defaults(fn=cmd_zhu)

    wit = command(sub, "witness", help="first nonzero mode of a construction")
    wit.add_argument("--type", required=True, metavar="W1,W2,W3")
    wit.add_argument("--k", type=int, required=True)
    wit.add_argument("--cutoff", type=_fraction, default=None)
    wit.set_defaults(fn=cmd_witness)

    return parsers


@lru_cache(maxsize=None)
def _leaf(words: tuple[str, ...]):
    """(option string -> action, positional actions, defaults) of the leaf
    parser that `words` name, None for a parser with subcommands; built
    once per parser.  The actions are those `_parsers` added, in order
    (argparse keeps them in `_actions`); -h, whose default is SUPPRESS, is
    left out, so a line that asks for help goes to argparse.  The defaults
    start the namespace as `parse_known_args` starts it: each action's
    default, then `fn`."""
    parser = _parsers()[words]
    fn = parser.get_default("fn")
    if fn is None:
        return None
    options, positionals, defaults = {}, [], {}
    for action in parser._actions:
        if action.default is argparse.SUPPRESS:
            continue
        defaults[action.dest] = action.default
        if action.option_strings:
            options.update(dict.fromkeys(action.option_strings, action))
        else:
            positionals.append(action)
    defaults["fn"] = fn
    return options, positionals, defaults


def _value(action: argparse.Action, text: str):
    """`text` converted by the action's type and checked against its
    choices; ValueError, TypeError or ArgumentTypeError where argparse
    would refuse it."""
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(text)
    return value


def _read(words: tuple[str, ...], line: list[str]) -> argparse.Namespace | None:
    """The namespace `parse_known_args` of the leaf `words` gives `line`, for
    the lines of a strict subset; None for any other line.  In the subset
    each option is an exact option string, given at most once, with a
    value that does not start with `-`; every required option is there;
    the other words form one run, with no option inside it, that fills
    the positionals exactly; and every value passes its action's type and
    choices.  A run split by an option is refused: argparse fills no
    positional from a part too short for it, so `V+ --k 2 V+ V+` misses
    a LABEL."""
    leaf = _leaf(words)
    if leaf is None:
        return None
    options, positionals, defaults = leaf
    given, run, end, i = {}, [], 0, 0
    while i < len(line):
        token = line[i]
        i += 1
        if not token.startswith("-"):
            if run and end != i - 1:  # a second run
                return None
            run.append(token)
            end = i
            continue
        action = options.get(token)
        if action is None or action in given or i == len(line) or line[i].startswith("-"):
            return None
        given[action] = line[i]
        i += 1
    if any(action.required and action not in given for action in options.values()):
        return None
    values = dict(defaults)
    try:
        for action, text in given.items():
            values[action.dest] = _value(action, text)
        for action in positionals:
            n = 1 if action.nargs is None else action.nargs
            texts, run = run[:n], run[n:]
            if len(texts) < n:
                return None
            got = [_value(action, text) for text in texts]
            values[action.dest] = got[0] if action.nargs is None else got
    except (ValueError, TypeError, argparse.ArgumentTypeError):
        return None
    return None if run else argparse.Namespace(**values)


def _parse(argv) -> argparse.Namespace:
    """`argv` parsed for the leaf its leading command words name.  A line
    of the subset `_read` takes is read off the leaf's actions with no
    argparse call; any other line goes to the parser the words name, so
    help, usage and errors stay argparse's.  Where the walk stops early
    (no command word, `-h`, a typo) that parser prints the help or error
    the whole tree would; arguments left over get the top-level error
    that `parse_args` gives, but for one case: beside a leftover
    positional, each unknown option is named with the word after it,
    since argparse reads that word as a positional.  The namespace lacks
    the `command` and `which` dests of the levels walked past, which no
    command reads."""
    parsers = _parsers()
    words: tuple[str, ...] = ()
    for word in argv:
        if words + (word,) not in parsers:
            break
        words += (word,)
    line = argv[len(words):]
    args = _read(words, line)
    if args is not None:
        return args
    args, rest = parsers[words].parse_known_args(line)
    if rest:
        unknown = [a for a in rest if a.startswith("-")]
        loose = [a for a in rest if not a.startswith("-")]
        if unknown and loose:
            # argparse gives an unknown option no value, so in `--seed 1 V+
            # V+ V+` the 1 fills a LABEL and a V+ is left over: name the
            # option with its value, and only the positionals beyond the
            # values so named
            named = []
            for a, after in zip(line, line[1:] + [None]):
                if a in unknown:
                    owns = after is not None and "=" not in a and not after.startswith("-")
                    named += [a, after] if owns else [a]
            rest = named + loose[len(named) - len(unknown):]
        parsers[()].error(f"unrecognized arguments: {' '.join(rest)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return EXIT_FAIL if exc.code else EXIT_OK
    try:
        if args.k < 1:
            raise UsageError("k must be a positive integer")
        for option in ("cutoff", "order", "window"):
            value = getattr(args, option, None)
            if value is not None and value < 0:
                raise UsageError(f"--{option} must be nonnegative")
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: the output ends here.  Point stdout at
        # devnull so that the interpreter's last flush does not raise again
        with suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except EngineInconsistencyError as exc:
        print(f"fusion table inconsistent: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
