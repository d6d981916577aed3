"""The suites of `orbifold-voa verify`, which `cli.cmd_verify` imports when
it runs.  Each suite is a generator: it yields its (name, status, detail)
items one after another, in the order it runs them, and an item takes as
long as it takes to produce."""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product
from math import isqrt
from operator import add

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
    partition_count,
    twisted_basis,
)
from .fusion import Y_RS, Y_RS_THETA, IntertwinerSpec, bound_blind_zeros, decompose, get_engine, upper_bound
from .intertwine import forced_zero_coupling, intertwiner_mode, target_of
from .ring import RingParams
from .twisted import (
    conjugation_check,
    delta_coeff,
    delta_rows,
    lattice_sector_map,
    mtheta_mode,
    psi_map,
    tilde_mode,
)
from .untwisted import commutator_formula_check, e_vec, omega_vec, p_coeff_apply, vertex_mode


# the largest p(k - 1), the keys per lattice index of its vectors, that
# `verify identities` runs: about 2.6 KB a key, 428 MB at k = 50 (README)
IDENTITIES_KEYS = 200_000


def refusal(suite: str, k: int, cutoff) -> str | None:
    """Why `verify suite` refuses k and cutoff, None where it runs them;
    `cli.cmd_verify` raises it as a usage error before the suite starts."""
    if suite == "decomp" and cutoff is not None and (2 * cutoff).denominator != 1:
        # the weights are checked in steps of 1/2; int(2 * cutoff) would drop the rest
        return "verify decomp needs a --cutoff that is a multiple of 1/2"
    if suite == "delta" and cutoff is not None and cutoff.denominator != 1:
        # the cutoff is the series order there; int() would truncate it
        return "verify delta needs an integer --cutoff"
    n = min(k - 1, 999)  # p(n) costs O(n^2): p(999) takes about 0.06 s
    if suite == "identities" and partition_count(n) > IDENTITIES_KEYS:
        top = next(j for j in range(n + 1) if partition_count(j) > IDENTITIES_KEYS)
        size = f"{'more than ' if n < k - 1 else ''}{partition_count(n):,}"
        return (
            f"verify identities at k = {k} builds vectors of p(k - 1) = {size} keys, "
            f"above the limit of {IDENTITIES_KEYS:,}: the largest k it runs is {top}"
        )
    return None


def _check(ok: bool, detail_pass: str, detail_fail: str):
    return ("pass", detail_pass) if ok else ("fail", detail_fail)


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


def _decomp_character(k: int, label, extra: Fraction):
    top = lb.top_weight(label, k)
    count = int(2 * extra) + 1
    lhs = graded_dim(k, label, top, count)
    rhs = [0] * count
    for m1, _idx in decompose(label, k, window=decomp_window(k, top + extra)):
        rhs = list(map(add, rhs, m1_graded_dim(k, m1, top, count)))
    for j, (module, constituents) in enumerate(zip(lhs, rhs)):
        if module != constituents:
            return "fail", f"weight {top + Fraction(j, 2)}: module {module} != constituents {constituents}"
    return "pass", f"weights up to top+{extra} agree"


def suite_decomp(k: int, cutoff):
    """Graded dimension of each module against the sum over its
    constituents, at weights top, top + 1/2, ..., top + cutoff: one series
    from each counter per label and per constituent, counted in integer
    units 1/16k (every weight the modules carry is a whole number of them).

    The constituents come from one `decompose` list per label, sized by
    `decomp_window` for the largest checked weight; those it leaves out
    start above every checked weight.  The two sides stay independent:
    `graded_dim` finds the module's constituents by weight, not through
    the window, so a window too small would show as a failing item, not
    as a pass.  No ring is built."""
    extra = Fraction(cutoff) if cutoff is not None else Fraction(10)
    for label in lb.all_labels(k):
        yield f"decomposition character of {label.code}", *_decomp_character(k, label, extra)


def _delta_symmetry(order: int):
    """c[m][n] against c[n][m] for m < n.  A pair with both sides zero
    shows nothing, so with no other pair the item is skipped."""
    tab = {(m, n): c for m, n, c in delta_rows(order)}
    pairs = [(m, n) for (m, n) in tab if m < n and (tab[(m, n)] or tab[(n, m)])]
    if not pairs:
        return "skip", f"no nonzero off-diagonal c[m][n] through total order {order}"
    for m, n in pairs:
        if tab[(m, n)] != tab[(n, m)]:
            return "fail", f"c[{m}][{n}] != c[{n}][{m}]"
    return "pass", f"c[m][n] symmetric through total order {order}"


def _series_mul(a: dict, b: dict, order: int) -> dict:
    """The product of two series {(i, j): c}, truncated at total order."""
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), ca in a.items():
        for (p, q), cb in b.items():
            if i + j + p + q <= order:
                out[i + p, j + q] = out.get((i + p, j + q), 0) + ca * cb
    return out


def suite_delta(k: int, cutoff):
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
    half = Fraction(1, 2)
    binom = [Fraction(1)]
    for n in range(1, order + 2):
        binom.append(binom[-1] * (half - (n - 1)) / n)
    sqrt_x = {(n, 0): binom[n] for n in range(order + 2)}
    u = dict(sqrt_x)
    for n in range(order + 2):
        u[(0, n)] = u.get((0, n), Fraction(0)) + binom[n]
    u = {kk: c / 2 for kk, c in u.items() if c}
    gx = {(m - 1, n): c * m for m, n, c in delta_rows(order + 1) if m >= 1 and c}
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
