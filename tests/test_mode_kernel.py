"""The one mode kernel against the two engines it replaced.

`_term_mode` and `_wtheta_term_mode`, with their helpers and the
`vertex_mode`, `tilde_mode` and `mtheta_mode` built on them, are copied
verbatim from the last version of the package that had them; they are the
oracles here.  Every comparison is exact, and each test counts the
comparisons with a nonzero image so that it cannot pass on zeros alone.

The oracles are pure functions of k and their small arguments, so their
results are memoized for the test session (`_session_memo` and
`lru_cache` wrap the verbatim bodies): a term pair or creation table that
several cases reach is computed once, and every case is still compared.
"""

from fractions import Fraction
from functools import lru_cache, partial, wraps
from itertools import combinations_with_replacement
from math import factorial, gcd

import pytest

from orbifold_voa import intertwine, twisted, untwisted
from orbifold_voa.fock import (
    TOP_TW,
    TVector,
    UVector,
    half_odd_partitions_of,
    lattice_vector,
    odd_partitions_of,
    partitions_of,
    sort_parts,
    t_term,
    theta,
    tw_vacuum,
    u_term,
)
from orbifold_voa.ring import RingParams
from orbifold_voa.twisted import delta_apply, psi_map
from orbifold_voa.untwisted import _creation_table, halve, mode_kernel_sum, support_modes

HALF = Fraction(1, 2)


def mode_kernel(params, nu, r, mu, s, m, twisted):
    """Mode m of the one term a(-nu) e[r]: `mode_kernel_sum`, its doubled keys halved back."""
    image = mode_kernel_sum(params, r, mu, s, m, twisted, ((0, nu, 1, 1),))
    return {halve(key) if twisted else tuple(p // 2 for p in key): c for key, c in image.items()}


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
        corrected = delta_apply(piece)
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
        corrected = delta_apply(UVector(params, {(nu, r): cu}))
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
    """`vertex_mode` groups the terms of u by lattice index and passes the
    rational coefficients of u and v to the kernel as integer weights; its
    image must be the sum over term pairs of the unit-coefficient images
    times both coefficients, for unit, rational and irrational
    coefficients at a shared and at a distinct lattice index."""
    params = RingParams(k)
    zeta, root2 = params.zeta(1), params.t_power(1)
    nonzero = 0
    for r in (0, 1, k):
        u_terms = (
            (((), r), params.one()),
            (((1,), r), params.rational(Fraction(-2, 3))),
            (((1, 1), r), zeta),
            (((2,), r), zeta),
            (((3,), r), zeta * root2),
            (((2, 1), r + 2 * k), root2),
            (((1,), r + 2 * k), params.rational(3)),
        )
        u = UVector(params, dict(u_terms))
        for s in (1, -k):
            v_terms = (
                (((), s), params.one()),
                (((1, 1), s), params.rational(Fraction(-3, 2))),
                (((2, 1), s), params.zeta(3)),
                (((1,), s - 2 * k), params.rational(Fraction(1, 2))),
            )
            v = UVector(params, dict(v_terms))
            for m in _sweep(u, v, depth=2):
                got = untwisted.vertex_mode(u, m, v)
                want = UVector(params, {})
                for key_u, cu in u_terms:
                    for key_v, cv in v_terms:
                        unit = untwisted.vertex_mode(
                            UVector(params, {key_u: 1}), m, UVector(params, {key_v: 1})
                        )
                        want = want + unit * (cu * cv)
                assert got == want, (r, s, m)
                assert all(not c.is_zero() for c in got.terms.values()), (r, s, m)
                nonzero += bool(got)
    assert nonzero > 0


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
                got = _creation_table(params, r, w, twisted_)
                if not twisted_ and w % 2:
                    assert got == (), (r, w)
                    continue
                want = _per_part_creation_table(k, r, w, twisted_)
                # rows hold reduced integer pairs (num, den), den > 0
                assert all(den > 0 and gcd(num, den) == 1 for _parts, num, den in got)
                assert tuple((parts, Fraction(num, den)) for parts, num, den in got) == want, (
                    r, w, twisted_,
                )
                repeated += sum(len(set(parts)) < len(parts) for parts, _n, _d in got)
    assert repeated > 0


def _recursive_creation_rows(k: int, r: int, w: int, twisted: bool) -> tuple:
    """The creation rows of lambda_r as the recursive walk built them
    before the walk was made iterative; the walk is copied verbatim."""
    lo = 1 if twisted else 2
    rows = []

    def walk(left: int, top: int, parts: tuple, num: int, den: int, run: int) -> None:
        if not left:
            g = gcd(num, den)
            rows.append((parts, num // g, den // g))
            return
        hi = min(left, top)
        hi -= (hi - lo) % 2
        for n in range(hi, lo - 1, -2):
            i = run + 1 if n == top else 1
            walk(left - n, n, parts + (n,), num * r, den * k * n * i, i)

    walk(w, w, (), 1, 1, 0)
    return tuple(rows)


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_creation_walk_matches_the_recursive_walk(k):
    params = RingParams(k)
    rows = 0
    for r in [s * a for a in range(1, 2 * k + 1) for s in (1, -1)]:
        for w in range(0, 31):
            for twisted_ in (False, True):
                if not twisted_ and w % 2:
                    continue
                got = _creation_table(params, r, w, twisted_)
                # same rows in the same order
                assert got == _recursive_creation_rows(k, r, w, twisted_), (r, w, twisted_)
                rows += len(got)
    assert rows > 0


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
        spec = intertwine.IntertwinerSpec(intertwine.TILDE_THETA, r % two_k)
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


def _fresh_creation_stage(k: int, r: int, pending: tuple, w: int, twisted_: bool) -> tuple:
    """The creation stage walked afresh, with no memo, and the number of
    paths the walk took: each pending factor a(-n) takes a doubled part p
    with the reference `_dcoef` at mode -p/2, and the per-part creation
    table takes what is left of w."""
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
    return {key: c for key, c in out.items() if c}, paths[0]


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
                    got = _creation_table(params, r, w, twisted_, pending)
                    keys = [parts for parts, _num, _den in got]
                    assert len(set(keys)) == len(keys)
                    assert all(parts == tuple(sorted(parts, reverse=True)) for parts in keys)
                    assert all(num and den > 0 and gcd(num, den) == 1 for _p, num, den in got)
                    want, paths = _fresh_creation_stage(k, r, pending, w, twisted_)
                    assert {parts: Fraction(num, den) for parts, num, den in got} == want, (
                        pending, r, w, twisted_,
                    )
                    # the same stage reached twice is the same memo row
                    assert _creation_table(params, r, w, twisted_, pending) is got
                    rows += len(got)
                    merged += paths > len(got)
    # rows of equal parts were merged, and cancelling ones dropped
    assert rows > 0 and merged > 0


def test_repeated_calls_add_no_memo_entry():
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
        sizes = len(params.memo), len(params.memo.get("halved", ()))
        assert [op(u, m, v) for m in sweep] == first
        assert (len(params.memo), len(params.memo.get("halved", ()))) == sizes, op.__name__
    assert images > 0
    assert params.memo["halved"]


# -- the skeleton: stages 1 and 2 of the kernel, kept for the latest input --------


def _alternating_cases(params: RingParams) -> dict:
    """Per operator, the (op, u, v) inputs a sweep alternates between, so
    that each call replaces the skeleton the call before it left: two on
    multi-term u and v, then single terms where each input differs from
    the one before it in one part of the skeleton's key (the terms of u,
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
        # integer mode leaves the skeleton that the twisted call half a unit
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


def _skeleton_keys(params: RingParams) -> list:
    return [
        key
        for key in params.memo
        if key == "skeleton" or (isinstance(key, tuple) and key[0] == "skeleton")
    ]


@pytest.mark.parametrize("k", (1, 2, 3))
def test_reused_skeleton_matches_a_fresh_walk(k):
    """A sweep that reuses the skeleton gives the images of the same sweep
    with the memo cleared before every call, and leaves exactly one
    skeleton entry behind."""
    params = RingParams(k)
    for name, inputs in _alternating_cases(params).items():
        params.memo.clear()
        reused = _alternating_sweep(params, inputs, fresh=False)
        assert _skeleton_keys(params) == ["skeleton"], name
        fresh = _alternating_sweep(params, inputs, fresh=True)
        assert reused == fresh, name
        assert sum(map(bool, reused)) > 0, name


@pytest.mark.parametrize("twisted_", (False, True))
def test_mutating_an_image_leaves_later_calls_unchanged(twisted_):
    """Images of a sweep that keeps one skeleton, each mutated after it is
    compared, equal the images of fresh walks, a repeated mode included."""
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
    assert _skeleton_keys(params) == ["skeleton"]
    assert sum(map(bool, want)) > 0
