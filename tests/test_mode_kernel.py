"""The mode kernel and the operators built on it, each layer against one
reference.

A layer keeps one reference, the one that shares the least code with the
package; a new route through a layer does not keep the route it replaced
as a second reference, its cases move onto the layer's one.  The
references here:

- mode kernel and mode operators: `_term_mode` and `_wtheta_term_mode`,
  with their helpers and the `vertex_mode`, `tilde_mode` and `mtheta_mode`
  built on them, copied verbatim from the last version of the package
  that had them;
- creation stage: `_fresh_creation_stage`, a fresh walk over the closed
  per-part formula `_per_part_creation_table`;
- stages 1 and 2 (`_skeleton`): `_path_by_path_skeleton`, the skeleton
  as it was before stage 1 merged its paths after each factor;
- the exp(Delta_z) expansion (`twisted.delta_apply`): `_vector_delta_apply`,
  the loop through vector arithmetic that it replaced, which the reference
  twisted operators also call.

(The exp(Delta_z) coefficients have theirs in the sympy series of
`conftest.delta_series_oracle`.)  The driver, `untwisted.term_pair_images`,
returns each operator's summed image, a term pair's image going in whole
when its plan item is the first at its output index or target sector and
key by key otherwise; the operators compared against the references are
one wrap of that dict.  The other tests here check properties, such as
bilinearity, no product per key, the sum of images that share a slot and
the memo's behaviour, not a second route.  Every comparison is exact, and each test counts the
comparisons with a nonzero image so that it cannot pass on zeros alone.

The oracles are pure functions of k and their small arguments, so their
results are memoized for the test session (`_session_memo` and
`lru_cache` wrap the verbatim bodies): a term pair or creation table that
several cases reach is computed once, and every case is still compared.
"""

from fractions import Fraction
from functools import lru_cache, partial, wraps
from itertools import combinations_with_replacement
from math import factorial, gcd, lcm
from types import BuiltinMethodType, FunctionType, MethodType

import pytest

from orbifold_voa import cli, intertwine, twisted, untwisted
from orbifold_voa.fock import (
    TOP_TW,
    TVector,
    UVector,
    heis_act,
    lattice_vector,
    odd_partitions_of,
    partitions_of,
    sort_parts,
    t_term,
    theta,
    tw_vacuum,
    u_term,
)
from orbifold_voa.ring import RingParams, Scalar
from orbifold_voa.twisted import delta_apply, delta_rows, psi_map
from orbifold_voa.untwisted import _creation_table, halve, support_modes

HALF = Fraction(1, 2)


def mode_kernel_sum(params, r, mu, s, m, twisted, terms):
    """The mode kernel with no plan (the `untwisted` module docstring):
    stages 1 and 2 (`_skeleton`) walked afresh and stage 3 (`_create`) at
    the budget of m (`_budget`), keeping nothing; {} when m is off the
    grid.  Stage 3 places the image at index 0 with the lift of 1, and the
    image is read back as {parts: Fraction} (`_kernel_fractions`), twisted
    parts doubled.  The planned driver, `untwisted.term_pair_images`, is
    compared against it."""
    t0 = untwisted._budget(params, r, s, m, twisted)
    if t0 is None:
        return {}
    skeleton = untwisted._skeleton(params, r, mu, s, twisted, terms)
    return _kernel_fractions(untwisted._create(params, r, t0, twisted, skeleton, 0, untwisted._lift(None)))


def _kernel_fractions(image: dict) -> dict:
    """{parts: Fraction} of a stage-3 image {(parts, where): Scalar} whose
    every Scalar is rational, in the image's order."""
    return {parts: c.as_rational() for (parts, _where), c in image.items()}


def mode_kernel(params, nu, r, mu, s, m, twisted):
    """Mode m of the one term a(-nu) e[r]: `mode_kernel_sum`, its twisted
    keys, which leave the kernel doubled, halved back (untwisted keys leave
    it in their own units)."""
    image = mode_kernel_sum(params, r, mu, s, m, twisted, ((0, nu, 1, 1),))
    return {halve(key): c for key, c in image.items()} if twisted else image


def _output_parts(parts: tuple, twisted_: bool) -> tuple:
    """Doubled parts in the units the kernel's tables hold them: twisted
    parts stay doubled and untwisted parts are halved."""
    return parts if twisted_ else tuple(p // 2 for p in parts)


def _code(parts: tuple) -> int:
    """The multiplicity code of integer parts that the kernel merges
    (`untwisted._decode`): the multiplicity of a part p in bits 16p to
    16p + 15."""
    return sum(1 << 16 * p for p in parts)


def _session_memo(fn):
    """fn(params, *args) memoized for the test session on (k, *args): the
    reference results depend on the ring only through k and hold only
    Fractions.  Each call gets its own copy of the result dict."""
    cache: dict = {}

    @wraps(fn)
    def memo(params, *args):
        key = (params.k, *args)
        if key not in cache:
            cache[key] = fn(params, *args)
        return dict(cache[key])

    return memo


# -- reference: the untwisted engine --------------------------------------------

@lru_cache(maxsize=None)
def _dcoef(n: int, j: Fraction) -> Fraction:
    """Coefficient of alpha(j) z^(-j-n) in the (n-1)-th divided z-derivative
    of the oscillator field."""
    q = n - 1
    x = Fraction(j) + n - 1
    prod = Fraction(1)
    for y in range(q):
        prod *= x - y
    return prod * (-1) ** q / factorial(q)


@lru_cache(maxsize=None)
def _exp_coeff(r: int, k: int, created: tuple[int, ...]) -> Fraction:
    """Multiset coefficient of the creation exponential for lambda_r."""
    coeff = Fraction(1)
    seen: dict[int, int] = {}
    for n in created:
        seen[n] = seen.get(n, 0) + 1
    for n, i_n in seen.items():
        coeff *= Fraction(r, 2 * k * n) ** i_n / factorial(i_n)
    return coeff


@_session_memo
def _term_mode(
    params: RingParams,
    nu: tuple[int, ...],
    r: int,
    mu: tuple[int, ...],
    s: int,
    m: Fraction,
) -> dict[tuple, Fraction]:
    """Mode action of the term a(-n1)...a(-nl) e[r] on a(-m1)... e[s]."""
    k = params.k
    target = -m - 1
    out: dict[tuple, Fraction] = {}

    counts0: dict[int, int] = {}
    for p in mu:
        counts0[p] = counts0.get(p, 0) + 1

    def emit(parts: list[int], coeff: Fraction) -> None:
        key = (sort_parts(parts), r + s)
        prev = out.get(key)
        total = coeff if prev is None else prev + coeff
        if total:
            out[key] = total
        else:
            out.pop(key, None)

    def stage_create(
        remaining: list[int], pending: tuple[int, ...], budget: Fraction, coeff: Fraction
    ) -> None:
        if budget.denominator != 1 or budget < len(pending):
            return
        w_total = int(budget)

        def rec(i: int, w: int, c: Fraction, created: list[int]) -> None:
            if i == len(pending):
                if r == 0:
                    if w == 0:
                        emit(remaining + created, c)
                    return
                for lam_parts in partitions_of(w):
                    emit(
                        remaining + created + list(lam_parts),
                        c * _exp_coeff(r, k, lam_parts),
                    )
                return
            n_i = pending[i]
            rest = len(pending) - i - 1
            for p in range(1, w - rest + 1):
                dc = _dcoef(n_i, Fraction(-p))
                if dc:
                    rec(i + 1, w - p, c * dc, created + [p])

        rec(0, w_total, coeff, [])

    def stage_aminus(
        counts: dict[int, int], zshift: Fraction, coeff: Fraction, pending: tuple[int, ...]
    ) -> None:
        values = [p for p in sorted(counts) if counts[p] > 0]

        def rec(i: int, cstate: dict[int, int], z: Fraction, c: Fraction) -> None:
            if i == len(values):
                z += Fraction(r * s, 2 * k)  # the z^{lambda(0)} factor
                remaining = [p for p, mult in sorted(cstate.items()) for _ in range(mult)]
                budget = (target - z) + sum(pending)
                stage_create(remaining, pending, budget, c)
                return
            p = values[i]
            m_p = cstate[p]
            rec(i + 1, cstate, z, c)
            if r != 0:
                binom = 1
                for j in range(1, m_p + 1):
                    binom = binom * (m_p - j + 1) // j
                    c_j = c * (-r) ** j * binom
                    c2 = dict(cstate)
                    c2[p] = m_p - j
                    rec(i + 1, c2, z - p * j, c_j)

        rec(0, counts, zshift, coeff)

    def stage_factors(
        idx: int, counts: dict[int, int], zshift: Fraction, coeff: Fraction, pending: tuple[int, ...]
    ) -> None:
        if idx == len(nu):
            stage_aminus(counts, zshift, coeff, pending)
            return
        n_i = nu[idx]
        stage_factors(idx + 1, counts, zshift, coeff, pending + (n_i,))
        if s != 0:
            stage_factors(idx + 1, counts, zshift - n_i, coeff * _dcoef(n_i, Fraction(0)) * s, pending)
        for j in sorted(counts):
            mult = counts[j]
            if mult == 0:
                continue
            dc = _dcoef(n_i, Fraction(j))
            if not dc:
                continue
            c2 = dict(counts)
            c2[j] = mult - 1
            stage_factors(
                idx + 1, c2, zshift - j - n_i, coeff * dc * mult * (2 * k * j), pending
            )

    stage_factors(0, counts0, Fraction(0), Fraction(1), ())
    return out


def vertex_mode(u: UVector, m, v: UVector, cutoff=None) -> UVector:
    """The mode u_m of the untwisted operator of u, applied to v.

    Exact; `cutoff`, when given, must dominate the weight of v (guard
    against accidentally feeding unbounded sweeps).
    """
    params = u.params
    if params != v.params:
        raise ValueError("vertex_mode: mixed ring parameters")
    m = Fraction(m)
    if cutoff is not None and v and v.max_weight() > Fraction(cutoff):
        raise ValueError(
            f"cutoff {cutoff} is below the weight {v.max_weight()} of the target"
        )
    acc: dict = {}
    for (nu, r), cu in u.terms.items():
        for (mu, s), cv in v.terms.items():
            if (m + Fraction(r * s, 2 * params.k)).denominator != 1:
                continue  # outside the support grid of this term pair
            cuv = cu * cv
            for key, q in _term_mode(params, nu, r, mu, s, m).items():
                c = cuv * q
                prev = acc.get(key)
                total = c if prev is None else prev + c
                if total.is_zero():
                    acc.pop(key, None)
                else:
                    acc[key] = total
    return UVector(params, acc)


# -- reference: the twisted engine ----------------------------------------------


def _vector_delta_apply(u: UVector) -> dict[int, UVector]:
    """Finite expansion of exp(Delta_z) u as {d: coefficient of z^(-d)}.

    Delta_z is quadratic in oscillator modes with strictly weight-lowering
    terms, hence nilpotent on finite vectors; nothing is truncated.

    `twisted.delta_apply` as it was while it expanded through vector
    arithmetic (`heis_act`, `UVector` sums and products); its body is
    copied verbatim except that `v / j` is written `v * Fraction(1, j)`,
    since vectors no longer divide.
    """
    params = u.params
    k = params.k
    if not u:
        return {}
    maxw = max((sum(parts) for (parts, _r) in u.terms), default=0)
    table = {(m, n): c for m, n, c in delta_rows(int(maxw))} if maxw else {}
    pairs = [(mn, c) for mn, c in table.items() if c and sum(mn) >= 1]

    def once(state: dict[int, UVector]) -> dict[int, UVector]:
        out: dict[int, UVector] = {}
        for d, vec in state.items():
            for (mm, nn), c in pairs:
                w = heis_act(mm, heis_act(nn, vec)) * (c / (2 * k))
                if w:
                    key = d + mm + nn
                    out[key] = out[key] + w if key in out else w
        return out

    acc = {0: u}
    cur = {0: u}
    j = 1
    while cur:
        nxt = once(cur)
        cur = {d: v * Fraction(1, j) for d, v in nxt.items() if v}
        for d, v in cur.items():
            acc[d] = acc[d] + v if d in acc else v
        j += 1
    return {d: v for d, v in acc.items() if v}


def half_odd_partitions_of(total: Fraction):
    total = Fraction(total)
    if total < 0 or (2 * total).denominator != 1:
        return
    for doubled in odd_partitions_of(int(2 * total)):
        yield tuple(Fraction(p, 2) for p in doubled)


@lru_cache(maxsize=None)
def _exp_coeff_half(r: int, k: int, created: tuple[Fraction, ...]) -> Fraction:
    coeff = Fraction(1)
    seen: dict[Fraction, int] = {}
    for n in created:
        seen[n] = seen.get(n, 0) + 1
    for n, i_n in seen.items():
        coeff *= (Fraction(r, 2 * k) / n) ** i_n / factorial(i_n)
    return coeff


@_session_memo
def _wtheta_term_mode(
    params: RingParams,
    nu: tuple[int, ...],
    r: int,
    mu: tuple[Fraction, ...],
    m: Fraction,
) -> dict[tuple, Fraction]:
    """Mode of the normally ordered half-odd expansion (prefactor excluded)
    of a(-n1)...a(-nl) e[r], on the twisted partition mu."""
    k = params.k
    target = -m - 1 + Fraction(r * r, 4 * k)  # z-budget after the exponent shift
    out: dict[tuple, Fraction] = {}

    counts0: dict[Fraction, int] = {}
    for p in mu:
        counts0[p] = counts0.get(p, 0) + 1

    def emit(parts: list[Fraction], coeff: Fraction) -> None:
        key = sort_parts(parts)
        prev = out.get(key)
        total = coeff if prev is None else prev + coeff
        if total:
            out[key] = total
        else:
            out.pop(key, None)

    def stage_create(
        remaining: list[Fraction], pending: tuple[int, ...], budget: Fraction, coeff: Fraction
    ) -> None:
        if (2 * budget).denominator != 1 or budget < HALF * len(pending):
            return

        def rec(i: int, w: Fraction, c: Fraction, created: list[Fraction]) -> None:
            if i == len(pending):
                if r == 0:
                    if w == 0:
                        emit(remaining + created, c)
                    return
                for lam_parts in half_odd_partitions_of(w):
                    emit(
                        remaining + created + list(lam_parts),
                        c * _exp_coeff_half(r, k, lam_parts),
                    )
                return
            n_i = pending[i]
            rest = len(pending) - i - 1
            p = HALF
            while p <= w - HALF * rest:
                dc = _dcoef(n_i, -p)
                if dc:
                    rec(i + 1, w - p, c * dc, created + [p])
                p += 1

        rec(0, budget, coeff, [])

    def stage_aminus(
        counts: dict[Fraction, int], zshift: Fraction, coeff: Fraction, pending: tuple[int, ...]
    ) -> None:
        values = [p for p in sorted(counts) if counts[p] > 0]

        def rec(i: int, cstate: dict[Fraction, int], z: Fraction, c: Fraction) -> None:
            if i == len(values):
                remaining = [p for p, mult in sorted(cstate.items()) for _ in range(mult)]
                budget = (target - z) + sum(n for n in pending)
                stage_create(remaining, pending, budget, c)
                return
            p = values[i]
            m_p = cstate[p]
            rec(i + 1, cstate, z, c)
            if r != 0:
                binom = 1
                for j in range(1, m_p + 1):
                    binom = binom * (m_p - j + 1) // j
                    c_j = c * (-r) ** j * binom
                    c2 = dict(cstate)
                    c2[p] = m_p - j
                    rec(i + 1, c2, z - p * j, c_j)

        rec(0, counts, zshift, coeff)

    def stage_factors(
        idx: int, counts: dict[Fraction, int], zshift: Fraction, coeff: Fraction, pending: tuple[int, ...]
    ) -> None:
        if idx == len(nu):
            stage_aminus(counts, zshift, coeff, pending)
            return
        n_i = nu[idx]
        stage_factors(idx + 1, counts, zshift, coeff, pending + (n_i,))
        for j in sorted(counts):
            mult = counts[j]
            if mult == 0:
                continue
            dc = _dcoef(n_i, j)
            if not dc:
                continue
            c2 = dict(counts)
            c2[j] = mult - 1
            stage_factors(
                idx + 1, c2, zshift - j - n_i, coeff * dc * mult * (2 * k * j), pending
            )

    stage_factors(0, counts0, Fraction(0), Fraction(1), ())
    return out


def tilde_mode(u: UVector, m, v: TVector, cutoff=None) -> TVector:
    """Mode of the twisted intertwiner: the corrected half-odd expansion of
    u tensored with the sector map of each lattice component of u."""
    params = u.params
    if params != v.params:
        raise ValueError("tilde_mode: mixed ring parameters")
    m = Fraction(m)
    if cutoff is not None and v and v.max_weight() > Fraction(cutoff):
        raise ValueError(
            f"cutoff {cutoff} is below the weight {v.max_weight()} of the target"
        )
    k = params.k
    out = TVector(params, {})
    by_r: dict[int, list] = {}
    for (nu, r), cu in u.terms.items():
        by_r.setdefault(r, []).append((nu, cu))
    for r, entries in by_r.items():
        if (2 * (m - Fraction(r * r, 4 * k))).denominator != 1:
            continue  # outside the support grid
        psi = psi_map(params, r)
        prefactor = params.two_to(Fraction(-r * r, 2 * k))
        piece = UVector(params, {(nu, r): c for nu, c in entries})
        corrected = _vector_delta_apply(piece)
        acc = TVector(params, {})
        for d, uvec in corrected.items():
            for (nu2, _r2), cdel in uvec.terms.items():
                for (mu, sector), cv in v.terms.items():
                    contrib = _wtheta_term_mode(params, nu2, r, mu, m - d)
                    if not contrib:
                        continue
                    cc = cdel * cv
                    tv = TVector(
                        params, {(parts, sector): cc * q for parts, q in contrib.items()}
                    )
                    acc = acc + tv
        out = out + psi.apply(acc) * prefactor
    return out


def mtheta_mode(u: UVector, m, v: TVector, cutoff=None) -> TVector:
    """The bare corrected twisted operator with no sector action: the
    intertwiner for the oscillator subalgebra alone.  Sector labels of v
    pass through untouched."""
    params = u.params
    m = Fraction(m)
    k = params.k
    out = TVector(params, {})
    for (nu, r), cu in u.terms.items():
        if (2 * (m - Fraction(r * r, 4 * k))).denominator != 1:
            continue
        prefactor = params.two_to(Fraction(-r * r, 2 * k))
        corrected = _vector_delta_apply(UVector(params, {(nu, r): cu}))
        for d, uvec in corrected.items():
            for (nu2, _r2), cdel in uvec.terms.items():
                for (mu, sector), cv in v.terms.items():
                    contrib = _wtheta_term_mode(params, nu2, r, mu, m - d)
                    if not contrib:
                        continue
                    cc = cdel * cv * prefactor
                    out = out + TVector(
                        params, {(parts, sector): cc * q for parts, q in contrib.items()}
                    )
    return out


# -- comparisons ------------------------------------------------------------------

PARTS = ((), (1,), (2,), (1, 1), (2, 1))
HALF_ODD_PARTS = tuple(
    tuple(Fraction(p, 2) for p in doubled)
    for doubled in ((), (1,), (1, 1), (3,), (3, 1), (5,))
)


def _indices(k: int) -> tuple[int, ...]:
    return (0, 1, k, -2 * k, 2 * k + 1)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_untwisted_kernel_matches_term_mode(k):
    params = RingParams(k)
    nonzero = 0
    for nu in PARTS:
        for r in _indices(k):
            for mu in PARTS:
                for s in _indices(k):
                    top = sum(nu) + sum(mu) - 1 - Fraction(r * s, 2 * k)
                    for j in range(-1, 4):
                        m = top - j
                        got = mode_kernel(params, nu, r, mu, s, m, False)
                        want = _term_mode(params, nu, r, mu, s, m)
                        assert got == {parts: c for (parts, _rs), c in want.items()}
                        assert all(rs == r + s for (_parts, rs) in want)
                        nonzero += bool(got)
                    for off in (HALF, Fraction(1, 3)):
                        assert mode_kernel(params, nu, r, mu, s, top - off, False) == {}
    assert nonzero > 0


@pytest.mark.parametrize("k", (1, 2, 3))
def test_twisted_kernel_matches_wtheta_term_mode(k):
    params = RingParams(k)
    nonzero = 0
    for nu in PARTS:
        for r in _indices(k):
            for mu in HALF_ODD_PARTS:
                top = sum(nu) + sum(mu) - 1 + Fraction(r * r, 4 * k)
                for j in range(-1, 8):
                    m = top - j * HALF
                    got = mode_kernel(params, nu, r, mu, 0, m, True)
                    assert got == _wtheta_term_mode(params, nu, r, mu, m), (nu, r, mu, m)
                    nonzero += bool(got)
                assert mode_kernel(params, nu, r, mu, 0, top - Fraction(1, 4), True) == {}
    assert nonzero > 0


def _live_rows(params: RingParams, r: int, t0: int, twisted_: bool, skeleton: tuple) -> list:
    """The code of the kept parts (`_code`, 0 for none) of each row of
    `skeleton` that meets the budget t0 with a nonempty creation table: the
    rows `_create` expands."""
    _den, rows = skeleton
    return [
        kept
        for need, off, _num, kept, _tables, pending in rows
        if t0 >= need and _creation_table(params, r, t0 + off, twisted_, pending)[1]
    ]


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_one_live_row_matches_the_verbatim_engines(k):
    """Where one row of the skeleton meets the budget, the case `_create`
    fills in one pass with no merge, its image equals `_term_mode` and
    `_wtheta_term_mode`, on both lattices, for rows with kept parts and
    without."""
    params = RingParams(k)
    seen = dict.fromkeys([(False, False), (False, True), (True, False), (True, True)], 0)
    for nu in PARTS:
        for r in _indices(k):
            cases = [
                (False, mu, s, sum(nu) + sum(mu) - 1 - Fraction(r * s, 2 * k) - j)
                for mu in PARTS
                for s in _indices(k)
                for j in range(-1, 4)
            ]
            cases += [
                (True, mu, 0, sum(nu) + sum(mu) - 1 + Fraction(r * r, 4 * k) - j * HALF)
                for mu in HALF_ODD_PARTS
                for j in range(-1, 8)
            ]
            for twisted_, mu, s, m in cases:
                t0 = untwisted._budget(params, r, s, m, twisted_)
                skeleton = untwisted._skeleton(params, r, mu, s, twisted_, ((0, nu, 1, 1),))
                live = _live_rows(params, r, t0, twisted_, skeleton)
                if len(live) != 1:
                    continue
                # placed as the operators place it: a sector's key map, or the output index
                keys = twisted._SectorKeys(1) if twisted_ else r + s
                got = untwisted._create(params, r, t0, twisted_, skeleton, keys, untwisted._lift(None))
                assert all(type(c) is Scalar for c in got.values())
                got = _kernel_fractions(got)
                if twisted_:
                    want = _wtheta_term_mode(params, nu, r, mu, m)
                else:
                    want = {parts: c for (parts, _rs), c in _term_mode(params, nu, r, mu, s, m).items()}
                assert got and got == want, (twisted_, nu, r, mu, s, m)
                seen[twisted_, bool(live[0])] += 1
    assert all(seen.values()), seen


def _cancelling_pair(op, u, t1: UVector, t2: UVector, modes) -> tuple:
    """(m, c, key): the first m of `modes` at which op(u, m, .) of t1 and of
    t2 share a key, the rational c that cancels that key in t1 + c t2, and
    the key."""
    for m in modes:
        x, y = op(u, m, t1).terms, op(u, m, t2).terms
        for key in x.keys() & y.keys():
            return m, -x[key].as_rational() / y[key].as_rational(), key
    raise AssertionError("no shared key")


@pytest.mark.parametrize("k", (1, 2, 3))
def test_terms_of_v_at_one_index_still_merge(k):
    """`vertex_mode` and `p_coeff_apply` put a block into the result whole
    only at a lattice index no earlier block reached: on two terms of v at
    one index whose images share a key, the shared key sums, and one whose
    sum is zero is dropped.  `vertex_mode` is checked against the verbatim
    engine and `p_coeff_apply` against its sum over the terms of v."""
    params = RingParams(k)

    def p_coeff(sign, n, w):
        return untwisted.p_coeff_apply(params, sign, n, w)

    for s in (0, 1, -k):
        t1, t2 = u_term(params, [2], s), u_term(params, [1, 1], s)
        for u in (lattice_vector(params, 1), untwisted.e_vec(params)):
            m, c, key = _cancelling_pair(untwisted.vertex_mode, u, t1, t2, _sweep(u, t1))
            for v in (t1 + t2 * 3, t1 + t2 * c):
                got = untwisted.vertex_mode(u, m, v)
                assert got == vertex_mode(u, m, v), (s, m)
                assert all(not x.is_zero() for x in got.terms.values())
                assert (key in got.terms) == (v == t1 + t2 * 3)
        for sign in (+1, -1):
            n, c, key = _cancelling_pair(p_coeff, sign, t1, t2, (2, 3, 4))
            for v in (t1 + t2 * 3, t1 + t2 * c):
                got = p_coeff(sign, n, v)
                assert got == p_coeff(sign, n, t1) + p_coeff(sign, n, v - t1), (s, sign, n)
                assert all(not x.is_zero() for x in got.terms.values())
                assert (key in got.terms) == (v == t1 + t2 * 3)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_two_items_on_one_target_sector_sum(k):
    """`tilde_mode` and `mtheta_mode` sum the images of plan items that
    land in one target sector: u with two lattice groups, at r and -r, on
    a one-term v makes two plan items that land in one sector (the bare
    map keeps the sector, and psi_map(r) and psi_map(-r) send it to one
    sector), and their images share keys.  The image of u is the sum of
    the two single-group images, and a shared key whose sum is zero is
    dropped."""
    params = RingParams(k)
    shared = dropped = 0
    for op in (twisted.tilde_mode, twisted.mtheta_mode):
        for v in (tw_vacuum(params, 1), t_term(params, [HALF], 2, 3)):
            for r in sorted({1, k}):
                u1 = lattice_vector(params, r)
                u2 = lattice_vector(params, -r) + u_term(params, [1], -r, Fraction(-2, 3))
                for m in _sweep(u1 + u2, v):
                    x, y = op(u1, m, v), op(u2, m, v)
                    got = op(u1 + u2, m, v)
                    assert got == x + y, (op.__name__, v, r, m)
                    assert all(not c.is_zero() for c in got.terms.values())
                    assert len({sector for _parts, sector in (*x.terms, *y.terms)}) <= 1
                    both = x.terms.keys() & y.terms.keys()
                    shared += bool(both)
                    dropped += any(key not in got.terms for key in both)
    assert shared > 0 and dropped > 0


@pytest.mark.parametrize("k", range(1, 7))
def test_delta_apply_matches_the_vector_loop(k):
    """`twisted.delta_apply` on plain dicts equals the vector-arithmetic
    loop it replaced: on a(-nu) e[r] for every partition nu of weight at
    most 6 and every r in {0, +-1, +-k, +-2k, 2k + 1}, on a two-term u with
    a zeta coefficient, and on a two-term u whose rows cancel in one key."""
    params = RingParams(k)
    cases = [
        UVector(params, {(nu, r): 1})
        for w in range(7)
        for nu in partitions_of(w)
        for r in sorted({0, 1, -1, k, -k, 2 * k, -2 * k, 2 * k + 1})
    ]
    cases.append(u_term(params, [2, 1], 1, params.zeta(1)) + u_term(params, [1, 1, 1], 1, Fraction(-3, 2)))
    two, one_one = _vector_delta_apply(u_term(params, [2], 1)), _vector_delta_apply(u_term(params, [1, 1], 1))
    ratio = -two[2].terms[((), 1)].as_rational() / one_one[2].terms[((), 1)].as_rational()
    cancelling = u_term(params, [2], 1) + u_term(params, [1, 1], 1, ratio)
    assert ((), 1) not in _vector_delta_apply(cancelling).get(2, UVector(params, {})).terms
    cases.append(cancelling)
    corrected = 0
    for u in cases:
        got = delta_apply(u)
        assert got == _vector_delta_apply(u), u
        assert all(vec for vec in got.values())
        corrected += len(got) > 1
    assert corrected > 0


def _sweep(u, v, depth: int = 4) -> list[Fraction]:
    """The union over the term pairs of (u, v) of `support_modes`, each
    down to `depth` weight units above the lowest weight the pair reaches."""
    k = u.params.k
    modes = set()
    for key_u in u.terms:
        for key_v in v.terms:
            if isinstance(v, TVector):
                lowest = TOP_TW
            else:
                lowest = Fraction((key_u[1] + key_v[1]) ** 2, 4 * k)
            pair = (UVector(u.params, {key_u: 1}), type(v)(v.params, {key_v: 1}))
            modes.update(support_modes(*pair, lowest + depth))
    return sorted(modes)


def _multi_u(params: RingParams, r: int, partner: int) -> UVector:
    """Four terms: three at r and `partner` (on the same support grid as r
    for the operator under test), one at r + 1 (on it or not)."""
    return (
        lattice_vector(params, r) * params.zeta(1)
        + u_term(params, [1], r, Fraction(-2, 3))
        + u_term(params, [1, 1], partner) * params.two_to(Fraction(1, 2 * params.k))
        + u_term(params, [2], r + 1, 5)
    )


def _coset_u(params: RingParams, r: int) -> UVector:
    """Four terms in the coset r mod 2k, as the intertwiners require."""
    two_k = 2 * params.k
    return (
        lattice_vector(params, r) * params.zeta(1)
        + u_term(params, [1], r + two_k, Fraction(-2, 3))
        + u_term(params, [1, 1], r, params.two_to(Fraction(1, two_k)))
        + u_term(params, [2, 1], r, 5)
    )


def _untwisted_v(params: RingParams, s: int) -> UVector:
    """Three terms in the coset s mod 2k."""
    return (
        lattice_vector(params, s)
        + u_term(params, [2, 1], s, params.zeta(3))
        + u_term(params, [1], s - 2 * params.k, Fraction(1, 2))
    )


@pytest.mark.parametrize("k", (1, 2, 3))
def test_vertex_mode_matches_reference_on_multi_term_vectors(k):
    params = RingParams(k)
    nonzero = 0
    for r in (0, 1, k):
        u = _multi_u(params, r, r + 2 * k)
        for s in (1, -k):
            v = _untwisted_v(params, s)
            for m in _sweep(u, v, depth=2):
                got = untwisted.vertex_mode(u, m, v)
                assert got == vertex_mode(u, m, v), (r, s, m)
                nonzero += bool(got)
    assert nonzero > 0


@pytest.mark.parametrize("k", (1, 2, 3))
def test_vertex_mode_is_bilinear_in_the_terms(k):
    """The mode operators group the terms of u by lattice index and pass
    the rational coefficients of u and v to the kernel as integer weights;
    each image must be the sum over term pairs of the unit-coefficient
    images times both coefficients, for unit, rational and irrational
    coefficients at a shared and at a distinct lattice index: `vertex_mode`
    on untwisted v in two cosets, `tilde_mode` and `mtheta_mode` on a
    twisted v with terms in both sectors (swept one weight unit less deep,
    on their grid of half the step)."""
    params = RingParams(k)
    zeta, root2 = params.zeta(1), params.two_to(Fraction(1, 2 * params.k))
    twisted_v = (
        (((), 1), params.rational(1)),
        (((HALF,), 1), params.rational(Fraction(-3, 2))),
        (((Fraction(3, 2), HALF), 2), params.zeta(3)),
        (((), 2), params.rational(Fraction(1, 2))),
    )
    nonzero = {"vertex_mode": 0, "tilde_mode": 0, "mtheta_mode": 0}
    for r in (0, 1, k):
        u_terms = (
            (((), r), params.rational(1)),
            (((1,), r), params.rational(Fraction(-2, 3))),
            (((1, 1), r), zeta),
            (((2,), r), zeta),
            (((3,), r), zeta * root2),
            (((2, 1), r + 2 * k), root2),
            (((1,), r + 2 * k), params.rational(3)),
        )
        u = UVector(params, dict(u_terms))
        cases = [
            (
                untwisted.vertex_mode,
                UVector,
                (
                    (((), s), params.rational(1)),
                    (((1, 1), s), params.rational(Fraction(-3, 2))),
                    (((2, 1), s), params.zeta(3)),
                    (((1,), s - 2 * k), params.rational(Fraction(1, 2))),
                ),
            )
            for s in (1, -k)
        ]
        cases += [(twisted.tilde_mode, TVector, twisted_v), (twisted.mtheta_mode, TVector, twisted_v)]
        for op, vec, v_terms in cases:
            v = vec(params, dict(v_terms))
            for m in _sweep(u, v, depth=2 if vec is UVector else 1):
                got = op(u, m, v)
                want = vec(params, {})
                for key_u, cu in u_terms:
                    for key_v, cv in v_terms:
                        unit = op(UVector(params, {key_u: 1}), m, vec(params, {key_v: 1}))
                        want = want + unit * (cu * cv)
                assert got == want, (op.__name__, r, m)
                assert all(not c.is_zero() for c in got.terms.values()), (op.__name__, r, m)
                nonzero[op.__name__] += bool(got)
    assert all(nonzero.values()), nonzero


def test_mixed_rings_are_refused():
    """Every mode operator refuses u and v over different rings, before
    any kernel call."""
    u = lattice_vector(RingParams(1), 2)
    cases = (
        (untwisted.vertex_mode, lattice_vector(RingParams(2), 0)),
        (twisted.tilde_mode, tw_vacuum(RingParams(2), 1)),
        (twisted.mtheta_mode, tw_vacuum(RingParams(2), 2)),
        (twisted.twisted_mode, tw_vacuum(RingParams(2), 1)),
    )
    for op, v in cases:
        with pytest.raises(ValueError, match="mixed ring parameters"):
            op(u, 0, v)


@pytest.mark.parametrize(
    "op, r, wrong",
    (
        (untwisted.vertex_mode, 1, lambda params, s: tw_vacuum(params, 1 + s % 2)),
        (twisted.tilde_mode, 1, lattice_vector),
        (twisted.mtheta_mode, 1, lattice_vector),
        (twisted.twisted_mode, 4, lattice_vector),
    ),
    ids=("vertex_mode", "tilde_mode", "mtheta_mode", "twisted_mode"),
)
def test_mode_operators_refuse_a_vector_of_the_other_lattice(op, r, wrong):
    """The untwisted operator refuses a twisted v and the twisted ones an
    untwisted v, whose lattice index would otherwise be read as a sector,
    at every mode of the grid."""
    params = RingParams(2)
    u = lattice_vector(params, r)
    modes = 0
    for s in (-1, 0, 1, 3):
        v = wrong(params, s)
        for m in support_modes(u, v, 2):
            with pytest.raises(TypeError, match=f"not apply to {type(v).__name__}"):
                op(u, m, v)
            modes += 1
    assert modes > 0


@pytest.mark.parametrize("k", (1, 2, 3))
def test_twisted_operators_match_reference_on_multi_term_vectors(k):
    params = RingParams(k)
    v = (
        t_term(params, [HALF], 1)
        + tw_vacuum(params, 2, params.zeta(3))
        + t_term(params, [Fraction(3, 2), HALF], 2, Fraction(-1, 4))
    )
    nonzero = {"tilde": 0, "mtheta": 0}
    for r in sorted({1, k, 2 * k}):
        u = _multi_u(params, r, -r)
        for m in _sweep(u, v, depth=2):
            got = twisted.tilde_mode(u, m, v)
            assert got == tilde_mode(u, m, v), ("tilde", r, m)
            nonzero["tilde"] += bool(got)
            got = twisted.mtheta_mode(u, m, v)
            assert got == mtheta_mode(u, m, v), ("mtheta", r, m)
            nonzero["mtheta"] += bool(got)
    assert min(nonzero.values()) > 0


# -- the twisted placement: split prefactor, one placement per ring -----------------


@pytest.mark.parametrize("k", range(1, 25))
def test_prefactor_split(k):
    """2^(-r^2/2k) = 2^w t^b with 0 <= b < 2k: the rational part times the
    monomial is the prefactor, the monomial has integer coefficients, and
    it is one unit basis element exactly when k is odd or b < k.  Here its
    coefficients are +-1 even in the even-k sqrt(2) form, so `_lift` wraps
    every kernel coefficient of a rational term pair with no product."""
    params = RingParams(k)
    units = 0
    for r in range(-4 * k, 4 * k + 1):
        w, monomial = twisted._prefactor_split(params, r)
        b = (-r * r) % (2 * k)
        assert monomial * Fraction(2) ** w == params.two_to(Fraction(-r * r, 2 * k)), r
        assert all(c in (1, -1) for c in monomial.terms.values()), r
        unit = list(monomial.terms.values()) == [1]
        assert unit == (k % 2 == 1 or b < k), r
        units += unit
    # at even k both kinds occur (r = 1 gives b = 2k - 1 >= k)
    assert units == 8 * k + 1 if k % 2 else 0 < units < 8 * k + 1


def _placement_u(params: RingParams, r1: int, r2: int) -> UVector:
    """Unit, rational, zeta and t coefficients at two lattice indices."""
    zeta, t = params.zeta(1), params.two_to(Fraction(1, 2 * params.k))
    return UVector(
        params,
        {
            ((), r1): params.rational(1),
            ((1,), r1): params.rational(Fraction(-2, 3)),
            ((2,), r1): zeta,
            ((), r2): t,
            ((1, 1), r2): zeta * t,
            ((1,), r2): params.rational(5),
        },
    )


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_twisted_placement_matches_the_verbatim_engines(k):
    """`tilde_mode`, `mtheta_mode` and `twisted_mode` place each kernel
    coefficient once per ring (`_placement`, the rational part of the
    prefactor in the kernel rows); their images equal the verbatim
    `tilde_mode` and `mtheta_mode` on multi-term u and v over both sectors,
    swept on the support grid: unit, rational, zeta and t coefficients of u
    at two lattice indices, r = 1, k, k + 1 with partner r - 2k, and
    `twisted_mode` at the lattice indices (0, 2k) and (2k, -2k).  At k = 2
    and 4 the placement meets the even-k sqrt(2) form of the prefactor's
    monomial."""
    params = RingParams(k)
    two_k = 2 * k
    v = TVector(
        params,
        {
            ((), 1): params.rational(1),
            ((HALF,), 1): params.rational(Fraction(-3, 2)),
            ((Fraction(3, 2), HALF), 2): params.zeta(3),
            ((), 2): params.two_to(Fraction(1, 2 * params.k)),
        },
    )
    cases = []
    for r in sorted({1, k, k + 1}):
        u = _placement_u(params, r, r - two_k)
        cases.append((twisted.tilde_mode, u, tilde_mode))
        cases.append((twisted.mtheta_mode, u, mtheta_mode))
    for r1, r2 in ((0, two_k), (two_k, -two_k)):
        cases.append((twisted.twisted_mode, _placement_u(params, r1, r2), tilde_mode))
    nonzero = dict.fromkeys(("tilde_mode", "mtheta_mode", "twisted_mode"), 0)
    for op, u, engine in cases:
        for m in _sweep(u, v, depth=1):
            got = op(u, m, v)
            assert got == engine(u, m, v), (op.__name__, m)
            nonzero[op.__name__] += bool(got)
    assert min(nonzero.values()) > 0, nonzero


@pytest.mark.parametrize(
    "k, r", ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 3), (4, 1), (4, 2))
)
def test_placement_takes_no_product_per_key(k, r, monkeypatch):
    """With rational coefficients of u and v, a sweep of the twisted
    operators whose per-ring tables are built takes no Scalar product and
    no Fraction product, whether the monomial is a unit (odd k, or b < k)
    or the even-k sqrt(2) form (b >= k at k = 2, 4 and odd r): each kernel
    Fraction is only wrapped."""
    params = RingParams(k)
    u = UVector(params, {((1,), r): Fraction(-2, 3), ((), r): 1})
    v = TVector(params, {((HALF,), 1): Fraction(3, 2), ((), 2): 1})
    modes = _sweep(u, v, depth=2)
    ops = (twisted.tilde_mode, twisted.mtheta_mode)
    want = [op(u, m, v) for op in ops for m in modes]
    calls = []
    for cls in (Scalar, Fraction):
        for name in ("__mul__", "__rmul__"):
            def counted(*args, _orig=getattr(cls, name), _name=f"{cls.__name__}.{name}"):
                calls.append(_name)
                return _orig(*args)

            monkeypatch.setattr(cls, name, counted)
    got = [op(u, m, v) for op in ops for m in modes]
    monkeypatch.undo()
    assert calls == []
    assert got == want
    assert sum(len(image.terms) for image in got) > 0


@pytest.mark.parametrize("k", (2, 4))
def test_a_phase_of_u_factors_out_of_the_twisted_placement(k):
    """`tilde_mode` and `mtheta_mode` of zeta^a e[r] are zeta^a times the
    image of e[r]: the plan item's lift is the signed monomial times the
    phase, made when the plan is built.  At even k the monomial of r = 1
    is in the sqrt(2) form (b = 2k - 1 >= k), that of r = 2 at k = 4 too
    (b = k), and r = 2 at k = 2, r = 0 and r = 2k give a unit monomial."""
    params = RingParams(k)
    v = t_term(params, [HALF], 1) + t_term(params, [Fraction(3, 2), HALF], 2, Fraction(-2, 3))
    nonzero = 0
    for r in (1, 2, 0, 2 * k):
        e_r = lattice_vector(params, r)
        for op in (twisted.tilde_mode, twisted.mtheta_mode):
            modes = support_modes(e_r, v, 3)
            bare = [op(e_r, m, v) for m in modes]
            for a in (1, 3, 2 * k - 1):
                zeta = params.zeta(a)
                assert [op(e_r * zeta, m, v) for m in modes] == [image * zeta for image in bare], (
                    op.__name__,
                    r,
                    a,
                )
            nonzero += sum(map(bool, bare))
    assert nonzero > 0


def test_returned_vectors_do_not_alias_the_ring_memo():
    params = RingParams(2)
    cases = (
        (untwisted.vertex_mode, _multi_u(params, 1, 5), u_term(params, [2, 1], 1)),
        (twisted.tilde_mode, _multi_u(params, 1, -1), t_term(params, [HALF], 1)),
        (twisted.mtheta_mode, _multi_u(params, 1, -1), t_term(params, [HALF], 2)),
    )
    for op, u, v in cases:
        m = next(m for m in _sweep(u, v) if op(u, m, v))
        first = op(u, m, v)
        want = dict(first.terms)
        for key in first.terms:
            first.terms[key] = params.rational(7)
        first.terms[((9,), 0)] = params.rational(1)
        assert op(u, m, v).terms == want, op.__name__
    assert params.memo
    args = (params, 1, (2, 1), 1, Fraction(-5, 4), False, ((0, (1,), 1, 1),))
    image = mode_kernel_sum(*args)
    assert image
    want = dict(image)
    for key in image:
        image[key] += 1
    image[(18,)] = Fraction(1)
    assert mode_kernel_sum(*args) == want


@pytest.mark.parametrize("k", (1, 2, 3))
def test_images_hold_no_zero_scalar(k):
    """Every operator built on the kernel returns only nonzero coefficients
    over whole `support_modes` sweeps, although `_wrap` skips the zero
    filter; and the twisted sweeps do meet keys whose Delta terms cancel
    within one term pair, which the summed kernel must drop."""
    params = RingParams(k)
    two_k = 2 * k

    # light enough that the sweeps reach m = 0, where the Delta terms of
    # a(-1) e[2k] on the twisted vacuum cancel at every k
    t_v = (
        t_term(params, [HALF], 1)
        + tw_vacuum(params, 2, params.zeta(3))
        + t_term(params, [HALF], 2, Fraction(-1, 4))
    )
    # (operator, u, v, the vector whose grid the sweep reads)
    cases = [(twisted.twisted_mode, _coset_u(params, 0), t_v, t_v)]
    for r in sorted({1, k}):
        u = _coset_u(params, r)
        cases.append((twisted.tilde_mode, u, t_v, t_v))
        cases.append((twisted.mtheta_mode, u, t_v, t_v))
        spec = intertwine.IntertwinerSpec(intertwine.TILDE, r % two_k)
        cases.append((partial(intertwine.intertwiner_mode, spec), u, t_v, t_v))
        for s in (1, -k):
            v = _untwisted_v(params, s)
            cases.append((untwisted.vertex_mode, u, v, v))
            spec = intertwine.IntertwinerSpec(intertwine.Y_RS, r % two_k, s % two_k)
            cases.append((partial(intertwine.intertwiner_mode, spec), u, v, v))
            spec = intertwine.IntertwinerSpec(intertwine.Y_RS_THETA, r % two_k, s % two_k)
            cases.append((partial(intertwine.intertwiner_mode, spec), u, v, theta(v)))
    images = dropped = 0
    for op, u, v, grid in cases:
        for m in support_modes(u, grid, 4):
            image = op(u, m, v)
            assert all(not c.is_zero() for c in image.terms.values()), (op, m)
            images += bool(image)
            if not isinstance(v, TVector):
                continue
            for nu, r in u.terms:
                terms = twisted._delta_terms(params, nu, r)
                for mu, _sector in v.terms:
                    summed = mode_kernel_sum(params, r, mu, 0, m, True, terms)
                    seen = set()
                    for term in terms:
                        seen.update(mode_kernel_sum(params, r, mu, 0, m, True, (term,)))
                    assert set(summed) <= seen
                    dropped += len(seen - set(summed))
    assert images > 0
    assert dropped > 0


@lru_cache(maxsize=None)
def _per_part_creation_table(k: int, r: int, w: int, twisted: bool) -> tuple:
    """The creation table as the last version before the incremental walk
    built it (per distinct part, a Fraction power and a division); its
    body is copied verbatim."""
    if not r:
        table = (((), Fraction(1)),) if w == 0 else ()
    else:
        if twisted:
            partitions = odd_partitions_of(w)
        else:
            partitions = (tuple(2 * p for p in q) for q in partitions_of(w // 2))
        rows = []
        for parts in partitions:
            coeff = Fraction(1)
            for n in set(parts):
                i_n = parts.count(n)
                coeff *= Fraction(r, k * n) ** i_n / factorial(i_n)
            rows.append((parts, coeff))
        table = tuple(rows)
    return table


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_creation_table_matches_per_part_formula(k):
    params = RingParams(k)
    repeated = 0
    for r in [s * a for a in range(1, 2 * k + 1) for s in (1, -1)] + [0]:
        for w in range(0, 31):
            for twisted_ in (False, True):
                den, got = _creation_table(params, r, w, twisted_)
                if not twisted_ and w % 2:
                    assert got == (), (r, w)
                    continue
                want = tuple(
                    (_output_parts(parts, twisted_), e) for parts, e in _per_part_creation_table(k, r, w, twisted_)
                )
                # rows hold integer numerators over their least common denominator
                assert den > 0 and gcd(den, *[num for _parts, num, _code in got]) == 1
                assert tuple((parts, Fraction(num, den)) for parts, num, _code in got) == want, (
                    r, w, twisted_,
                )
                # and the multiplicity code of their parts
                assert all(code == _code(parts) for parts, _num, code in got), (r, w, twisted_)
                repeated += sum(len(set(parts)) < len(parts) for parts, _n, _code in got)
    assert repeated > 0


def _fresh_creation_stage(k: int, r: int, pending: tuple, w: int, twisted_: bool) -> tuple:
    """The creation stage walked afresh, with no memo, and the number of
    paths the walk took: each pending factor a(-n) takes a doubled part p
    with the reference `_dcoef` at mode -p/2, and the per-part creation
    table takes what is left of w; the keys are given in the units of the
    kernel's tables (`_output_parts`)."""
    lo = 1 if twisted_ else 2
    out: dict = {}
    paths = [0]

    def rec(i: int, left: int, c: Fraction, created: tuple) -> None:
        if i == len(pending):
            if twisted_ or left % 2 == 0:
                for parts, e in _per_part_creation_table(k, r, left, twisted_):
                    key = tuple(sorted(created + parts, reverse=True))
                    out[key] = out.get(key, 0) + c * e
                    paths[0] += 1
            return
        for p in range(lo, left + 1, 2):
            dc = _dcoef(pending[i], Fraction(-p, 2))
            if dc:
                rec(i + 1, left - p, c * dc, created + (p,))

    rec(0, w, Fraction(1), ())
    return {_output_parts(key, twisted_): c for key, c in out.items() if c}, paths[0]


@pytest.mark.parametrize("k", (1, 2, 3))
def test_memoized_creation_stage_matches_a_fresh_walk(k):
    params = RingParams(k)
    # descending, as a subsequence of a sorted nu
    pendings = [p for size in range(4) for p in combinations_with_replacement((3, 2, 1), size)]
    rows = merged = 0
    for pending in pendings:
        for r in (0, 1, -1, k, 2 * k + 1):
            for w in range(0, 15):
                for twisted_ in (False, True):
                    table = _creation_table(params, r, w, twisted_, pending)
                    den, got = table
                    keys = [parts for parts, _num, _code in got]
                    assert len(set(keys)) == len(keys)
                    assert all(parts == tuple(sorted(parts, reverse=True)) for parts in keys)
                    assert all(code == _code(parts) for parts, _num, code in got)
                    assert all(num for _p, num, _code in got)
                    assert den > 0 and gcd(den, *[num for _p, num, _code in got]) == 1
                    want, paths = _fresh_creation_stage(k, r, pending, w, twisted_)
                    assert {parts: Fraction(num, den) for parts, num, _code in got} == want, (
                        pending, r, w, twisted_,
                    )
                    # the same stage reached twice is the same memo row
                    assert _creation_table(params, r, w, twisted_, pending) is table
                    rows += len(got)
                    merged += paths > len(got)
    # rows of equal parts were merged, and cancelling ones dropped
    assert rows > 0 and merged > 0


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_the_table_at_minus_r_reads_the_table_at_r(k):
    """Building the no-pending table at -r stores the table at r in the
    ring memo and reads it there, its odd-length rows negated: each |r| is
    walked once.  A table planted under r shows that -r reads it."""
    params = RingParams(k)
    signed = lambda rows: tuple((parts, (-1) ** len(parts) * num, code) for parts, num, code in rows)
    flipped = 0
    for r in range(1, 2 * k + 2):
        for w in range(0, 13):
            for twisted_ in (False, True):
                params.memo.clear()
                minus = _creation_table(params, -r, w, twisted_)
                plus_key, minus_key = (("create", x, (), twisted_) for x in (r, -r))
                assert set(params.memo) == {plus_key, minus_key}
                assert list(params.memo[plus_key]) == list(params.memo[minus_key]) == [w]
                den, rows = plus = params.memo[plus_key][w]
                assert _creation_table(params, r, w, twisted_) is plus
                assert minus == (den, signed(rows)), (r, w, twisted_)
                assert all(code == _code(parts) for parts, _num, code in minus[1]), (r, w, twisted_)
                del params.memo[minus_key][w]
                planted = tuple((parts, 3 * num, code) for parts, num, code in rows)
                params.memo[plus_key][w] = (den, planted)
                assert _creation_table(params, -r, w, twisted_) == (den, signed(planted))
                flipped += any(len(parts) % 2 for parts, _num, _code in rows)
    assert flipped > 0


def test_identities_fail_on_an_unsigned_table_at_minus_r(monkeypatch, capsys):
    """`verify identities` has teeth on the table at -r: taken as the table
    at |r| unchanged, it fails the creation-series item, whose oracle reads
    no kernel table."""
    assert cli.main(["verify", "identities", "--k", "3"]) == 0
    capsys.readouterr()
    real = untwisted._creation_table

    def unsigned(params, r, w, twisted_, pending=()):
        return real(params, -r if r < 0 and not pending else r, w, twisted_, pending)

    monkeypatch.setattr(untwisted, "_creation_table", unsigned)
    assert cli.main(["verify", "identities", "--k", "3"]) == 1
    assert "FAIL  creation-series expansion of the zero mode" in capsys.readouterr().out


def _path_by_path_skeleton(params, r, mu, s, twisted, terms):
    """`untwisted._skeleton` as it was before stage 1 merged its paths after
    each factor: the `factors` recursion walks every contraction path of a
    term to a leaf and merges only there.  Its body is copied verbatim,
    with one count added: it returns (skeleton, merged), merged being the
    leaves of a term that reach a state another leaf of that term reached."""
    k = params.k
    counts0: dict[int, int] = {}
    for p in mu:
        p2 = 2 * p.numerator // p.denominator
        counts0[p2] = counts0.get(p2, 0) + 1
    scales = []
    for _d, nu, _num, den in terms:
        for n in nu:
            den *= untwisted._dden(n)
        scales.append(den)
    common = lcm(*scales)
    contracted: dict[tuple, int] = {}
    leaves: list = []

    def factors(nu: tuple, idx: int, counts: dict, off: int, c: int, pending: tuple) -> None:
        if idx == len(nu):
            state = (tuple(sorted((p, mult) for p, mult in counts.items() if mult)), pending, off)
            contracted[state] = contracted.get(state, 0) + c
            leaves.append(state)
            return
        n_i = nu[idx]
        factors(nu, idx + 1, counts, off, c * untwisted._dden(n_i), pending + (n_i,))
        if s:
            factors(nu, idx + 1, counts, off + 2 * n_i, c * untwisted._dcoef(n_i, 0) * s, pending)
        for j in sorted(counts):
            mult = counts[j]
            if not mult:
                continue
            dc = untwisted._dcoef(n_i, j)
            if dc:
                c2 = dict(counts)
                c2[j] = mult - 1
                factors(nu, idx + 1, c2, off + j + 2 * n_i, c * dc * mult * k * j, pending)

    merged = 0
    for (d, nu, num, _den), scale in zip(terms, scales):
        leaves.clear()
        factors(nu, 0, counts0, 2 * d, num * (common // scale), ())
        merged += len(leaves) - len(set(leaves))

    created: dict[tuple, int] = {}
    for (left, pending, off0), c0 in contracted.items():
        if not c0:
            continue
        paths = [((), off0 + 2 * sum(pending), c0)]
        for p, m_p in left:
            step = []
            for kept, off, c in paths:
                step.append((kept + (p,) * m_p, off, c))
                if r:
                    binom = 1
                    for j in range(1, m_p + 1):
                        binom = binom * (m_p - j + 1) // j
                        step.append((kept + (p,) * (m_p - j), off + p * j, c * (-r) ** j * binom))
            paths = step
        for kept, off, c in paths:
            state = (kept, pending, off)
            created[state] = created.get(state, 0) + c

    lo = 1 if twisted else 2
    groups: dict[tuple, list] = {}
    for (kept, pending, off), c in created.items():
        if c:
            groups.setdefault((pending, off), []).append((kept, c))
    skeleton = tuple(
        (pending, off, lo * len(pending) - off, common, tuple(rows))
        for (pending, off), rows in groups.items()
    )
    return skeleton, merged


def _flat_rows(params: RingParams, r: int, twisted: bool, skeleton: tuple) -> tuple:
    """A grouped skeleton of `_path_by_path_skeleton` as `_skeleton` hands
    it to stage 3: (den, rows), one row (need, off, num, code, tables,
    pending) per row of each group, in group order, code being the
    multiplicity code of the kept parts (`_code`), `tables` the ring's
    creation tables of (r, pending, twisted), and every group's den the
    one den."""
    dens = {den for _pending, _off, _need, den, _rows in skeleton}
    assert len(dens) <= 1, dens
    rows = tuple(
        (need, off, num, _code(kept), params.memo[("create", r, pending, twisted)], pending)
        for pending, off, need, _den, group in skeleton
        for kept, num in group
    )
    return (dens.pop() if dens else None), rows


def _stage_one_cases(params: RingParams) -> list:
    """(r, mu, s, twisted, terms) over r in {0, +-1, +-2k}: untwisted mu
    with repeated parts against s in {0, 1, -k} on the rows of one term
    (`_one_row`), and twisted half-odd mu on those rows and on the
    exp(Delta_z) rows (`twisted._delta_terms`)."""
    k = params.k
    nus = ((1, 1, 1, 1), (3, 1), (2, 2), (2, 1, 1), (1,))
    untwisted_mus = ((), (1, 1, 1), (2, 1, 1), (3, 3))
    twisted_mus = ((HALF,), (HALF, HALF, HALF), (Fraction(3, 2), HALF, HALF))
    cases = []
    for r in (0, 1, -1, 2 * k, -2 * k):
        for nu in nus:
            one = untwisted._one_row(params, nu, r)
            cases += [(r, mu, s, False, one) for mu in untwisted_mus for s in (0, 1, -k)]
            for terms in (one, twisted._delta_terms(params, nu, r)):
                cases += [(r, mu, 0, True, terms) for mu in twisted_mus]
    return cases


@pytest.mark.parametrize("k", (1, 2, 3))
def test_skeleton_matches_the_path_by_path_walk(k):
    """`_skeleton`, whose stage 1 merges equal states after each factor,
    equals the path-by-path walk with its groups flattened into rows, row
    by row in the same order, each row holding the very table dict of its
    pending factors; the grid has terms whose paths merge, so the merge is
    exercised."""
    params = RingParams(k)
    merged = rows = 0
    for r, mu, s, twisted_, terms in _stage_one_cases(params):
        want, merges = _path_by_path_skeleton(params, r, mu, s, twisted_, terms)
        want = tuple(
            (*head, tuple([(_output_parts(kept, twisted_), c) for kept, c in group])) for *head, group in want
        )
        got_den, got = untwisted._skeleton(params, r, mu, s, twisted_, terms)
        want_den, want = _flat_rows(params, r, twisted_, want)
        assert want_den is None or got_den == want_den, (r, mu, s, twisted_, terms)
        assert len(got) == len(want), (r, mu, s, twisted_, terms)
        for got_row, want_row in zip(got, want):
            assert got_row == want_row, (r, mu, s, twisted_, terms)
            assert got_row[4] is want_row[4], (r, mu, s, twisted_, terms)
        merged += merges
        rows += len(got)
    assert merged > 0 and rows > 0


def _sorted_tuple_create(params, r, t0, twisted_, den, rows) -> dict:
    """Stage 3 as `_create` made it before it merged multiplicity codes, on
    rows (need, off, num, kept, pending) whose kept parts are a tuple: the
    key of each contribution is the sorted tuple of its kept parts and its
    table row's parts, summed in a dict of tuples, first contribution
    first."""
    live, tden = [], 1
    for need, off, num, kept, pending in rows:
        if t0 < need:
            continue
        d, table = _creation_table(params, r, t0 + off, twisted_, pending)
        if table:
            tden = lcm(tden, d)
            live.append((num, kept, d, table))
    out: dict = {}
    for num, kept, d, table in live:
        for parts, e, _code in table:
            key = tuple(sorted(kept + parts, reverse=True))
            out[key] = out.get(key, 0) + num * (tden // d) * e
    return {key: Fraction(num, den * tden) for key, num in out.items() if num}


@pytest.mark.parametrize("k", (1, 2))
def test_create_matches_a_sorted_tuple_merge(k):
    """`_create`, which merges kept and table parts as multiplicity codes,
    returns the keys and Fractions of a sorted-tuple merge of the same live
    rows in the same order, the kept parts read from the path-by-path
    skeleton; the grid has budgets where several rows meet one key."""
    params = RingParams(k)
    met = images = 0
    for r, mu, s, twisted_, terms in _stage_one_cases(params):
        den, rows = skeleton = untwisted._skeleton(params, r, mu, s, twisted_, terms)
        grouped, _merges = _path_by_path_skeleton(params, r, mu, s, twisted_, terms)
        kept_rows = [
            (need, off, num, _output_parts(kept, twisted_), pending)
            for pending, off, need, _den, group in grouped
            for kept, num in group
        ]
        assert [_code(row[3]) for row in kept_rows] == [row[3] for row in rows]
        for t0 in range(-2, 14, 1 if twisted_ else 2):
            got = untwisted._create(params, r, t0, twisted_, skeleton, 0, untwisted._lift(None))
            want = _sorted_tuple_create(params, r, t0, twisted_, den, kept_rows)
            assert list(_kernel_fractions(got).items()) == list(want.items()), (r, mu, s, twisted_, terms, t0)
            images += bool(got)
            contributions = [
                tuple(sorted(kept + parts, reverse=True))
                for need, off, _num, kept, pending in kept_rows
                if t0 >= need
                for parts, _e, _code in _creation_table(params, r, t0 + off, twisted_, pending)[1]
            ]
            met += len(set(contributions)) < len(contributions)
    assert images > 0 and met > 0


def test_decode_inverts_the_multiplicity_code():
    """`_decode` gives back the descending parts of a code, for adjacent
    and distant part sizes and up to the largest multiplicity a kept part
    and a table part can merge to, 2 * `_MAX_COPIES`; a "decode" memo entry
    decodes each code once."""
    most = 2 * untwisted._MAX_COPIES
    assert most < 1 << 16
    cases = [(), (1,), (2, 1), (3, 3, 2, 1, 1), (40, 7, 7, 1), (5,) * most, (9,) * most + (8,) * 3 + (1,) * most]
    for parts in cases:
        assert untwisted._decode(_code(parts)) == parts
    keys = untwisted._Decoded()
    assert keys[_code((3, 1, 1))] == (3, 1, 1) and keys[0] == ()
    assert keys == {_code((3, 1, 1)): (3, 1, 1), 0: ()}


def test_a_multiplicity_past_its_field_raises_before_any_walk():
    """A creation table whose rows could hold more than `_MAX_COPIES` equal
    parts, and a skeleton of a term with more than `_MAX_COPIES` parts,
    raise OverflowError before they walk or merge anything: no table is
    stored.  The cases sit at r = 0, where the walks stay small even with
    no guard, so a missing guard fails here and does not hang."""
    params = RingParams(1)
    cap = untwisted._MAX_COPIES
    for twisted_, lo in ((False, 2), (True, 1)):
        for pending in ((), (1,)):
            with pytest.raises(OverflowError):
                _creation_table(params, 0, lo * (cap + 1), twisted_, pending)
            assert params.memo[("create", 0, pending, twisted_)] == {}
    with pytest.raises(OverflowError):
        untwisted._skeleton(params, 0, (1,) * (cap + 1), 0, False, ((0, (1,), 1, 1),))
    assert all(tables == {} for tables in params.memo.values())
    # at the cap itself nothing is refused
    assert untwisted._skeleton(params, 0, (1,) * cap, 0, False, ((0, (), 1, 1),))[1]


def test_dcoef_is_a_numerator_over_dden():
    """`untwisted._dcoef(n, jj)` over `untwisted._dden(n)` is the reference
    coefficient at the mode jj/2, for doubled modes of both parities, the
    zeros of the coefficient among them."""
    seen = {True: 0, False: 0}
    for n in range(1, 9):
        for jj in range(-2 * n - 3, 2 * n + 4):
            got = Fraction(untwisted._dcoef(n, jj), untwisted._dden(n))
            assert got == _dcoef(n, Fraction(jj, 2)), (n, jj)
            seen[bool(got)] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_no_fraction_is_made_before_stage_three(monkeypatch):
    """A cold creation table with pending factors and a skeleton on
    exp(Delta_z) rows over different denominators make no Fraction: every
    walk before stage 3 sums plain ints over one denominator."""
    params = RingParams(2)
    terms = twisted._delta_terms(params, (3, 1), 1)
    assert len({den for _d, _nu, _num, den in terms}) > 1
    made = []

    def counted(*args, _make=Fraction):
        made.append(args)
        return _make(*args)

    monkeypatch.setattr(untwisted, "Fraction", counted)
    cold = RingParams(2)
    tables = [
        _creation_table(cold, r, 12 + twisted_, twisted_, (3, 2, 1))
        for r in (1, -1, 3)
        for twisted_ in (False, True)
    ]
    skeleton = untwisted._skeleton(params, 1, (Fraction(3, 2), HALF), 0, True, terms)
    monkeypatch.undo()
    assert made == []
    assert all(rows for _den, rows in tables)
    assert any(pending for *_rest, pending in skeleton[1])


def _sector_sign(params: RingParams, r: int, target: int) -> int:
    """The sign with which `tilde_mode`'s sector map psi_map(r) reaches the
    sector `target`."""
    (sign,) = [x for x in psi_map(params, r).matrix[target - 1] if x]
    return sign


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_stage_three_makes_no_fraction(monkeypatch, k):
    """A warm sweep of `vertex_mode`, both untwisted intertwiners,
    `tilde_mode` and `mtheta_mode` makes no `Fraction` at all: stage 3
    writes each coefficient of its images from the integer sum with one
    gcd, and each sign of a lift, of a phase, of the sector map or of the
    even-k sqrt(2) form, stays in its numerator.  The tilde sweeps reach a
    -1 sector sign (r = 2k + 1 on sector 1 and r = 2k on sector 2) and, at
    even k, the sqrt(2) form (odd r, where b = 2k - 1 >= k)."""
    params = RingParams(k)
    two_k = 2 * k
    v = lattice_vector(params, 1) + u_term(params, [2, 1], 1, params.zeta(3)) + u_term(params, [1], 1 - two_k, -1)
    t_v = t_term(params, [HALF], 1) + t_term(params, [Fraction(3, 2), HALF], 2, Fraction(-2, 3))
    t_u = (
        lattice_vector(params, two_k + 1) * params.zeta(1)
        + u_term(params, [1], two_k, Fraction(-2, 3))
        + u_term(params, [1, 1], 1, 5)
    )
    y_rs = intertwine.IntertwinerSpec(intertwine.Y_RS, 1, 1)
    y_theta = intertwine.IntertwinerSpec(intertwine.Y_RS_THETA, 1, 1)
    # (name, operator, u, v, the vector whose grid the sweep reads)
    sweeps = [
        ("vertex", untwisted.vertex_mode, _multi_u(params, 1, 1 + two_k), v, v),
        ("Y_rs", partial(intertwine.intertwiner_mode, y_rs), _coset_u(params, 1), v, v),
        ("Y_rs_theta", partial(intertwine.intertwiner_mode, y_theta), _coset_u(params, 1), v, theta(v)),
        ("tilde", twisted.tilde_mode, t_u, t_v, t_v),
        ("mtheta", twisted.mtheta_mode, t_u, t_v, t_v),
    ]
    calls = []

    def recorded(params, r, t0, twisted_, skeleton, keys, lift, _create=untwisted._create):
        image = _create(params, r, t0, twisted_, skeleton, keys, lift)
        calls.append((r, keys, lift, image))
        return image

    made = []

    def counted_new(cls, *args, _new=Fraction.__new__, **kwargs):
        made.append(args)
        return _new(cls, *args, **kwargs)

    negative = 0
    for name, op, u, w, grid in sweeps:
        sweep = _sweep(u, grid, depth=3)
        first = [op(u, m, w) for m in sweep]
        calls.clear()
        monkeypatch.setattr(untwisted, "_create", recorded)
        monkeypatch.setattr(Fraction, "__new__", counted_new)
        again = [op(u, m, w) for m in sweep]
        monkeypatch.undo()
        assert made == [], name
        assert again == first, name
        assert any(image for *_rest, image in calls), name
        # a lift with a negative numerator wrote images
        negative += any(image and any(f < 0 for _basis, f in lift[0]) for _r, _keys, lift, image in calls)
        if name == "tilde":
            tilde = [(r, keys.sector) for r, keys, _lift, image in calls if image]
    assert negative
    assert any(_sector_sign(params, r, sector) == -1 for r, sector in tilde)
    if k % 2 == 0:
        assert any(len(twisted._prefactor_split(params, r)[1].nums) > 1 for r, _sector in tilde)


def test_a_large_k_zero_mode_decodes_no_code(monkeypatch):
    """`vertex_mode(E, 0, v0)`, the left side of `verify identities`, on a
    fresh ring at k = 12, 18 and 24: each term pair has one live row that
    keeps no parts, so its keys are the parts its table rows already hold,
    and no multiplicity code goes through `untwisted._decode`."""
    decoded = []

    def counted(code, _decode=untwisted._decode):
        decoded.append(code)
        return _decode(code)

    monkeypatch.setattr(untwisted, "_decode", counted)
    for k in (12, 18, 24):
        params = RingParams(k)
        v0 = lattice_vector(params, k) + lattice_vector(params, -k)
        image = untwisted.vertex_mode(untwisted.e_vec(params), 0, v0)
        # p(k - 1) keys at each of the indices k and -k
        assert len(image.terms) == 2 * len(list(partitions_of(k - 1))), k
    assert decoded == []


def _twisted_key_maps(params: RingParams) -> dict:
    """{target sector: the ring's twisted key map ("tkey", sector)}."""
    return {key[1]: keys for key, keys in params.memo.items() if isinstance(key, tuple) and key[0] == "tkey"}


def test_repeated_calls_add_no_memo_entry():
    """A repeated sweep of each operator adds no memo entry and makes no
    new twisted output key: every key map keeps its size."""
    params = RingParams(2)
    cases = (
        (untwisted.vertex_mode, _multi_u(params, 1, 5), u_term(params, [2, 1], 1)),
        (twisted.tilde_mode, _multi_u(params, 1, -1), t_term(params, [HALF, HALF], 1)),
        (twisted.mtheta_mode, _multi_u(params, 2, -2), t_term(params, [HALF], 2)),
    )
    images = 0
    for op, u, v in cases:
        sweep = _sweep(u, v)
        first = [op(u, m, v) for m in sweep]
        images += sum(map(bool, first))
        sizes = len(params.memo), {sector: len(keys) for sector, keys in _twisted_key_maps(params).items()}
        assert [op(u, m, v) for m in sweep] == first
        again = len(params.memo), {sector: len(keys) for sector, keys in _twisted_key_maps(params).items()}
        assert again == sizes, op.__name__
    assert images > 0
    assert _twisted_key_maps(params) and all(_twisted_key_maps(params).values())


_RING_TYPES = (RingParams, Scalar, UVector, TVector)


def _reaches_a_ring(value) -> bool:
    """Whether an object of `_RING_TYPES` is reachable from `value` through
    tuples, lists, sets, the keys and values of dicts, the closure cells of
    functions and the `__self__` of bound methods."""
    seen, stack = set(), [value]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, _RING_TYPES):
            return True
        if isinstance(x, (tuple, list, set, frozenset)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x)
            stack.extend(x.values())
        elif isinstance(x, FunctionType):
            stack.extend(cell.cell_contents for cell in x.__closure__ or ())
        elif isinstance(x, (MethodType, BuiltinMethodType)):
            stack.append(x.__self__)
    return False


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_no_memo_value_refers_back_to_its_ring(k):
    """After a sweep of each operator, no value of `RingParams.memo`
    reaches a RingParams, Scalar, UVector or TVector, so reference
    counting frees a ring and its tables together.  The coefficients
    reach every branch of `untwisted._lift`: one basis with coefficient 1,
    +-1 on several bases (a reduced phase, and at even k the twisted
    prefactor's sqrt(2) form) and any other factor (3 zeta).  The "pair"
    entry holds only the latest plan, so the memo is walked after each
    operator."""
    params = RingParams(k)
    two_k = 2 * k
    odd = params.zeta(1) * 3
    t_v = (
        t_term(params, [HALF], 1)
        + tw_vacuum(params, 2, params.zeta(3))
        + t_term(params, [Fraction(3, 2), HALF], 2, odd)
    )
    v = _untwisted_v(params, 1) + u_term(params, [1, 1], 1, odd)
    y_rs = intertwine.IntertwinerSpec(intertwine.Y_RS, 1, 1)
    y_theta = intertwine.IntertwinerSpec(intertwine.Y_RS_THETA, 1, 1)
    # (operator, u, v, the vector whose grid the sweep reads)
    sweeps = [
        (untwisted.vertex_mode, _multi_u(params, 1, 1 + two_k), v, v),
        (partial(intertwine.intertwiner_mode, y_rs), _coset_u(params, 1), v, v),
        (partial(intertwine.intertwiner_mode, y_theta), _coset_u(params, 1), v, theta(v)),
        (twisted.tilde_mode, _multi_u(params, 1, -1), t_v, t_v),
        (twisted.mtheta_mode, _multi_u(params, 1, -1), t_v, t_v),
        (twisted.twisted_mode, _coset_u(params, 0), t_v, t_v),
    ]
    leaks, images = {}, 0

    def walk(after: str) -> None:
        # each leaking memo key, with the operator first seen to leave it
        for key, value in params.memo.items():
            if _reaches_a_ring(value):
                leaks.setdefault(key, after)

    for op, u, w, grid in sweeps:
        for m in support_modes(u, grid, 2):
            images += bool(op(u, m, w))
        walk(getattr(op, "__name__", None) or op.args[0].name)
    for n in (1, 2, 3):
        for sign in (1, -1):
            images += bool(untwisted.p_coeff_apply(params, sign, n, v))
    images += bool(intertwine.phase_apply(1, v))
    walk("p_coeff_apply, phase_apply")
    assert images > 0
    assert {"pair", "decode", ("pcoeff", 3)} <= set(params.memo)
    assert params.memo["decode"]
    # the twisted key maps of both sectors, each a non-empty dict of codes
    assert set(_twisted_key_maps(params)) == {1, 2}
    assert all(keys for keys in _twisted_key_maps(params).values())
    assert any(key[0] == "place" for key in params.memo if isinstance(key, tuple))
    assert leaks == {}


def _twisted_cases(params: RingParams) -> list:
    """(op, u, v) for the two twisted operators on multi-term u and v whose
    images hold keys with parts in both sectors."""
    t_v = t_term(params, [HALF], 1) + t_term(params, [Fraction(3, 2), HALF], 2, params.zeta(1))
    return [
        (twisted.tilde_mode, _multi_u(params, 1, -1), t_v),
        (twisted.mtheta_mode, _multi_u(params, 2, -2), t_v),
    ]


@pytest.mark.parametrize("k", (1, 2))
def test_a_warm_twisted_sweep_hashes_no_fraction(monkeypatch, k):
    """A repeated `tilde_mode` or `mtheta_mode` sweep finds every output key
    in the ring's table, so it hashes no Fraction part: a key's hash is
    computed once per ring."""
    params = RingParams(k)
    for op, u, v in _twisted_cases(params):
        sweep = _sweep(u, v)
        first = [op(u, m, v) for m in sweep]
        hashed = []

        def counted(q, _hash=Fraction.__hash__):
            hashed.append(q)
            return _hash(q)

        monkeypatch.setattr(Fraction, "__hash__", counted)
        again = [op(u, m, v) for m in sweep]
        monkeypatch.undo()
        assert hashed == [], op.__name__
        assert again == first
        assert any(parts for image in first for parts, _sector in image.terms)


@pytest.mark.parametrize("k", (1, 2))
def test_twisted_output_keys_behave_as_plain_tuples(k):
    """The keys of a twisted image equal the plain (parts, sector) tuples,
    with the same hash: the image equals the vector built from plain keys,
    each plain key finds its coefficient, the two print and sort alike, and
    theta, heis_act, + and == give the same results on both."""
    params = RingParams(k)
    keys = 0
    for op, u, v in _twisted_cases(params):
        for m in _sweep(u, v):
            image = op(u, m, v)
            plain = TVector(params, {(parts, j): c for (parts, j), c in image.terms.items()})
            assert all(type(key) is tuple for key in plain.terms)
            for key, c in image.terms.items():
                plain_key = (key[0], key[1])
                assert key == plain_key and hash(key) == hash(plain_key)
                assert image.terms[plain_key] is c
            assert image == plain and plain == image
            assert (str(image), repr(image)) == (str(plain), repr(plain))
            assert image.sorted_keys() == plain.sorted_keys()
            assert theta(image) == theta(plain)
            for n in (HALF, -HALF, Fraction(3, 2)):
                assert heis_act(n, image) == heis_act(n, plain)
            assert image + plain == plain * 2 == plain + image
            assert image - plain == TVector(params)
            keys += len(image.terms)
    assert keys > 0


# -- the plan: the m-independent work of the driver, kept for the latest pair ----


def _alternating_cases(params: RingParams) -> dict:
    """Per operator, the (op, u, v) inputs a sweep alternates between, so
    that each call replaces the plan the call before it left: two on
    multi-term u and v, then single terms where each input differs from
    the one before it in one part of a skeleton's key (the terms of u,
    the parts of v, the index of v, the index of u) or, in "lattice", in
    the lattice alone."""
    k = params.k
    two_k = 2 * k
    zeta = params.zeta(3)
    t_v = (
        t_term(params, [HALF], 1)
        + tw_vacuum(params, 2, zeta)
        + t_term(params, [Fraction(3, 2), HALF], 2, Fraction(-1, 4))
    )
    t_w = t_term(params, [HALF, HALF], 2) + t_term(params, [Fraction(5, 2)], 1, 3)
    # one part of the key changes from each pair to the next
    single = [
        (lattice_vector(params, 1), u_term(params, [1], 1, zeta)),
        (u_term(params, [1], 1), u_term(params, [1], 1, zeta)),
        (u_term(params, [1], 1), u_term(params, [2], 1, zeta)),
        (u_term(params, [1], 1), u_term(params, [2], 1 - two_k, zeta)),
        (u_term(params, [1], 1 + two_k), u_term(params, [2], 1 - two_k, zeta)),
    ]
    single_t = [
        (u_term(params, [1], 1), t_term(params, [HALF], 1, zeta)),
        (lattice_vector(params, 1), t_term(params, [HALF], 1, zeta)),
        (lattice_vector(params, 1), t_term(params, [Fraction(3, 2)], 1, zeta)),
        (lattice_vector(params, 1 + two_k), t_term(params, [Fraction(3, 2)], 1, zeta)),
    ]
    vertex, tilde, mtheta = untwisted.vertex_mode, twisted.tilde_mode, twisted.mtheta_mode
    y_rs = partial(intertwine.intertwiner_mode, intertwine.IntertwinerSpec(intertwine.Y_RS, 1, 1))
    tilde_y = partial(
        intertwine.intertwiner_mode, intertwine.IntertwinerSpec(intertwine.TILDE, k % two_k)
    )
    a1 = u_term(params, [1], 0)
    return {
        "vertex": [
            (vertex, _multi_u(params, 1, 1 + two_k), _untwisted_v(params, 1)),
            (vertex, _multi_u(params, k, 3 * k), _untwisted_v(params, -k)),
        ]
        + [(vertex, u, v) for u, v in single],
        "tilde": [
            (tilde, _multi_u(params, 1, -1), t_v),
            (tilde, _multi_u(params, k, -k), t_w),
        ]
        + [(tilde, u, v) for u, v in single_t],
        "mtheta": [
            (mtheta, _multi_u(params, 1, -1), t_w),
            (mtheta, _multi_u(params, k, -k), t_v),
        ]
        + [(mtheta, u, v) for u, v in single_t],
        "intertwiner": [
            (y_rs, _coset_u(params, 1), _untwisted_v(params, 1)),
            (tilde_y, _coset_u(params, k), t_v),
        ]
        + [(y_rs, u, v) for u, v in single],
        # one kernel input on the two lattices: the untwisted call at an
        # integer mode leaves the plan that the twisted call half a unit
        # below meets, the untwisted one between them being off its grid
        "lattice": [(vertex, a1, lattice_vector(params, 0)), (mtheta, a1, tw_vacuum(params, 1))],
    }


def _alternating_sweep(params: RingParams, inputs: list, fresh: bool) -> list:
    """The images of every input at every mode of the union of their
    sweeps, the inputs alternated at each mode; with `fresh`, the memo is
    cleared before every call."""
    modes = set()
    for _op, u, v in inputs:
        modes.update(support_modes(u, v, 3))
    images = []
    for m in sorted(modes, reverse=True):
        for op, u, v in inputs:
            if fresh:
                params.memo.clear()
            images.append(op(u, m, v))
    return images


def _driver_keys(params: RingParams) -> list:
    """The memo keys the mode driver and kernel may leave: "pair", and
    "skeleton", which none may."""
    return [
        key
        for key in params.memo
        if (key[0] if isinstance(key, tuple) else key) in ("pair", "skeleton")
    ]


@pytest.mark.parametrize("k", (1, 2, 3))
def test_reused_skeleton_matches_a_fresh_walk(k):
    """A sweep that reuses the plan gives the images of the same sweep
    with the memo cleared before every call, and leaves exactly one plan
    entry behind."""
    params = RingParams(k)
    for name, inputs in _alternating_cases(params).items():
        params.memo.clear()
        reused = _alternating_sweep(params, inputs, fresh=False)
        assert _driver_keys(params) == ["pair"], name
        fresh = _alternating_sweep(params, inputs, fresh=True)
        assert reused == fresh, name
        assert sum(map(bool, reused)) > 0, name


@pytest.mark.parametrize("twisted_", (False, True))
def test_mutating_an_image_leaves_later_calls_unchanged(twisted_):
    """Images of a kernel sweep, each mutated after it is compared, equal
    the images of fresh walks, a repeated mode included; the kernel itself
    keeps no skeleton."""
    params = RingParams(2)
    if twisted_:
        r, mu, s, step = 1, (Fraction(3, 2), HALF, HALF), 0, HALF
        terms = twisted._delta_terms(params, (2, 1), r)
        top = 3 + sum(mu) - 1 + Fraction(r * r, 8)
    else:
        r, mu, s, step = 1, (2, 1, 1), 3, Fraction(1)
        terms = ((0, (2, 1), 1, 1), (1, (1,), -3, 2))
        top = 3 + sum(mu) - 1 - Fraction(r * s, 4)
    modes = [top - j * step for j in range(-2, 10)]
    want = []
    for m in modes:
        params.memo.clear()
        want.append(mode_kernel_sum(params, r, mu, s, m, twisted_, terms))
    for m, image in zip(modes, want):
        for _repeat in range(2):
            got = mode_kernel_sum(params, r, mu, s, m, twisted_, terms)
            assert got == image, m
            for key in got:
                got[key] += 1
            got[(99,)] = Fraction(1)
    assert _driver_keys(params) == []
    assert sum(map(bool, want)) > 0


def _counted_walks(monkeypatch) -> list:
    """The inputs (r, mu, s) of every `_skeleton` walk from here on."""
    walks = []

    def counted(params, *args, _walk=untwisted._skeleton):
        walks.append(args[:3])
        return _walk(params, *args)

    monkeypatch.setattr(untwisted, "_skeleton", counted)
    return walks


@pytest.mark.parametrize(
    "twisted_, op, reference",
    (
        pytest.param(False, untwisted.vertex_mode, vertex_mode, id="False"),
        pytest.param(True, twisted.mtheta_mode, mtheta_mode, id="True"),
        pytest.param(True, twisted.tilde_mode, tilde_mode, id="tilde_mode"),
    ),
)
def test_a_sweep_walks_each_skeleton_once(monkeypatch, twisted_, op, reference):
    """A sweep over multi-term u and v walks one skeleton per term pair
    (a group of u and a term of v), not one per term pair and mode; every
    mode of the sweep is on every pair's grid, and the images are those of
    the verbatim engine.  The twisted operators plan through their module's
    placement functions, so a placement made anew per call would walk
    every pair again at each mode."""
    params = RingParams(2)
    if twisted_:
        # one group of u (two terms at r = 1), two terms of v, six modes
        u = u_term(params, [1], 1) + u_term(params, [2], 1, Fraction(-2, 3))
        v = t_term(params, [HALF], 1) + t_term(params, [Fraction(3, 2), HALF], 2, 3)
        modes, pairs = 6, 2
    else:
        # two groups of u (r = 2 and r = -2), three terms of v, three modes
        u = (
            u_term(params, [1], 2)
            + u_term(params, [2], 2, Fraction(3, 2))
            + u_term(params, [1, 1], -2, -1)
        )
        v = (
            lattice_vector(params, 2)
            + u_term(params, [2, 1], 2, Fraction(1, 3))
            + u_term(params, [1], -2, 2)
        )
        modes, pairs = 3, 6
    sweep = support_modes(u, v, 6)[:modes]
    assert len(sweep) == modes
    walks = _counted_walks(monkeypatch)
    images = [op(u, m, v) for m in sweep]
    assert len(walks) == len(set(walks)) == pairs
    monkeypatch.undo()
    assert images == [reference(u, m, v) for m in sweep]
    assert all(images)


@pytest.mark.parametrize("twisted_", (False, True))
def test_a_changed_pair_is_planned_afresh(twisted_):
    """Between two calls at one m, the coefficients of v change (a new
    vector) or the terms of v or u are changed in place.  Each image equals
    the image of a call with the memo cleared, and differs from the image
    before the change, so a stale plan could not pass."""
    params = RingParams(2)
    if twisted_:
        op, u = twisted.tilde_mode, _multi_u(params, 1, -1)
        v = t_term(params, [HALF], 1) + t_term(params, [Fraction(3, 2), HALF], 2, 3)
        extra = ((Fraction(5, 2),), 1)
    else:
        op, u, v = untwisted.vertex_mode, _multi_u(params, 1, 5), _untwisted_v(params, 1)
        extra = ((3,), 1)
    m = min(m for m in _sweep(u, v) if op(u, m, v))
    key_v, key_u = next(iter(v.terms)), next(iter(u.terms))

    def set_v(w):
        w.terms[key_v] = params.rational(-5)

    def add_v(w):
        w.terms[extra] = params.zeta(2)

    def drop_v(w):
        del w.terms[key_v]

    def set_u(_w):
        u.terms[key_u] = params.rational(7)

    before = op(u, m, v)
    for change in (3, params.zeta(1), set_v, add_v, drop_v, set_u):
        if callable(change):
            change(v)
        else:
            v = v * change
        got = op(u, m, v)
        params.memo.clear()
        assert got == op(u, m, v), change
        assert got != before, change
        before = got
    assert _driver_keys(params) == ["pair"]


def test_a_plan_is_not_shared_between_the_lattices():
    """At k = 1 the untwisted e[2] and the twisted vacuum in sector 2 have
    the same key and coefficient, and an integer m is on both grids of
    u at index 2; driven with one row and one placement function, the two
    calls get the images of fresh calls, which differ."""
    params = RingParams(1)
    u = u_term(params, [1], 2)
    pairs = []
    for v in (lattice_vector(params, 2), tw_vacuum(params, 2)):
        for fresh in (False, True):
            if fresh:
                params.memo.clear()
            # the image {(parts, index): Scalar}; dict equality compares the
            # Scalars too, not the keys alone
            pairs.append(untwisted.term_pair_images(u, -2, v, untwisted._one_row, untwisted._place))
    assert pairs[0] == pairs[1] and pairs[2] == pairs[3]
    assert pairs[0] and pairs[2] and pairs[0] != pairs[2]


@pytest.mark.parametrize("k", (1, 2, 3))
def test_twisted_operators_vanish_off_their_grid(monkeypatch, k):
    """tilde_mode, mtheta_mode and twisted_mode give zero at a mode off
    r^2/4k + (1/2)Z: on a fresh pair, whose call still plans the pair and
    walks its skeletons before every item is skipped, and on a pair that a
    sweep has just planned, whose plan then serves the off-grid call."""
    params = RingParams(k)
    v = t_term(params, [HALF], 1) + t_term(params, [Fraction(3, 2), HALF], 2, 3)

    def u_at(r):
        # three terms at +-r, all on one twisted grid
        return (
            lattice_vector(params, r) * params.zeta(1)
            + u_term(params, [1], r, Fraction(-2, 3))
            + u_term(params, [1, 1], -r) * params.two_to(Fraction(1, 2 * k))
        )

    cases = {
        "tilde": (twisted.tilde_mode, u_at(1)),
        "mtheta": (twisted.mtheta_mode, u_at(2)),
        "twisted": (twisted.twisted_mode, u_at(2 * k)),
    }
    for name, (op, u) in cases.items():
        sweep = support_modes(u, v, 3)
        for m_off in (sweep[0] + Fraction(1, 4), sweep[-1] - Fraction(1, 3)):
            params.memo.clear()
            walks = _counted_walks(monkeypatch)
            assert not op(u, m_off, v), (name, m_off)
            monkeypatch.undo()
            assert walks, name
            params.memo.clear()
            assert any([op(u, m, v) for m in sweep]), name
            plan = params.memo["pair"]
            assert not op(u, m_off, v), (name, m_off)
            assert params.memo["pair"] is plan, name


@pytest.mark.parametrize("k", (1, 2, 3))
def test_untwisted_operators_vanish_off_their_grid(k):
    """vertex_mode, Y_rs and Y_rs∘theta give the zero vector at a mode off
    their grid -rs/2k + Z once a sweep has planned the pair: the plan
    serves the call, and its every item is skipped at the budget, which a
    half-unit shift makes odd and a third-unit shift leaves a remainder.
    (The twisted operators' case is the test above.)"""
    params = RingParams(k)
    # every term pair is on one grid
    u, v = _coset_u(params, 1), _untwisted_v(params, 1)
    cases = {
        "vertex": (untwisted.vertex_mode, v),
        "Y_rs": (partial(intertwine.intertwiner_mode, intertwine.IntertwinerSpec(intertwine.Y_RS, 1, 1)), v),
        "Y_rs_theta": (
            partial(intertwine.intertwiner_mode, intertwine.IntertwinerSpec(intertwine.Y_RS_THETA, 1, 1)),
            theta(v),
        ),
    }
    for name, (op, grid) in cases.items():
        sweep = support_modes(u, grid, 3)
        assert any([op(u, m, v) for m in sweep]), name
        plan = params.memo["pair"]
        for m_off in (sweep[0] + HALF, sweep[-1] - Fraction(1, 3)):
            image = op(u, m_off, v)
            assert not image and type(image) is UVector, (name, m_off)
            assert params.memo["pair"] is plan, (name, m_off)
