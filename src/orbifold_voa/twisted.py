"""Twisted vertex operators, the quadratic exponential correction, and the
sector endomorphisms used by the twisted intertwiners.

The operator attached to u at lattice index r acts on the twisted Fock
space through three layers:

1. exp(Delta_z) u, a finite z-polynomial correction whose coefficients
   c[m][n] come from the expansion of -log(((1+x)^(1/2)+(1+y)^(1/2))/2);
2. the normally ordered half-odd-mode expansion with scalar prefactor
   2^(-<lam,lam>) and exponent shift z^(-<lam,lam>/2);
3. a signed permutation of the two sector characters: e_{m*alpha} for
   lattice u, and the swap-based maps psi for general dual-lattice u.

Modes are indexed like the untwisted case (coefficient of z^(-m-1)); for
u at lattice index r the support grid is r^2/4k + (1/2)Z.

The three layers run on the shared term-pair driver of `untwisted`.  The
correction of layer 1 gives the kernel rows of each term of u.  The
prefactor of layer 2 is split as 2^(-r^2/2k) = 2^w t^b with 0 <= b < 2k:
the rational 2^w is folded into those rows, so the kernel's Fraction is
the final rational coefficient of each output key, and the monomial t^b
goes with the sign of layer 3 into one per-ring placement entry, which
each item of the driver's plan reads as it is built.  Where
the monomial has only +-1 coefficients (always for odd k, where it is one
basis element, and for even k at least up to k = 24, where it holds the
reduced sqrt(2)), a key of a rational term pair is only wrapped.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .fock import HALF_ONE, TVector, UVector, add_into, heis_act, theta
from .ring import RingParams, Scalar
from .untwisted import _lift, halve, support_modes, tally, term_pair_images

# -- expansion coefficients of the quadratic correction ---------------------------


def _series_mul(a: dict, b: dict, order: int) -> dict:
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), ca in a.items():
        for (p, q), cb in b.items():
            if i + j + p + q > order:
                continue
            key = (i + p, j + q)
            s = out.get(key, Fraction(0)) + ca * cb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


@lru_cache(maxsize=None)
def delta_table(order: int) -> dict[tuple[int, int], Fraction]:
    """All c[m][n] with m+n <= order, by exact series composition."""
    # (1+x)^(1/2) as a univariate series embedded in two variables
    half_binom = [Fraction(1)]
    for n in range(1, order + 1):
        half_binom.append(half_binom[-1] * (HALF_ONE - (n - 1)) / n)
    w: dict[tuple[int, int], Fraction] = {}
    for n in range(1, order + 1):
        c = half_binom[n] / 2
        w[(n, 0)] = c
        w[(0, n)] = c
    # -log(1 + w) = sum_{j>=1} (-1)^j w^j / j; w has no constant term
    acc: dict[tuple[int, int], Fraction] = {}
    wp = {(0, 0): Fraction(1)}
    for j in range(1, order + 1):
        wp = _series_mul(wp, w, order)
        sign = Fraction((-1) ** j, j)
        for key, c in wp.items():
            s = acc.get(key, Fraction(0)) + sign * c
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    full = {}
    for mm in range(order + 1):
        for nn in range(order + 1 - mm):
            full[(mm, nn)] = acc.get((mm, nn), Fraction(0))
    return full


def delta_coeff(m: int, n: int) -> Fraction:
    """The exact coefficient c[m][n] of the correction generating function."""
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    return delta_table(m + n)[(m, n)]


def delta_apply(u: UVector) -> dict[int, UVector]:
    """Finite expansion of exp(Delta_z) u as {d: coefficient of z^(-d)}.

    Delta_z is quadratic in oscillator modes with strictly weight-lowering
    terms, hence nilpotent on finite vectors; nothing is truncated.
    """
    params = u.params
    k = params.k
    if not u:
        return {}
    maxw = max((sum(parts) for (parts, _r) in u.terms), default=0)
    table = delta_table(int(maxw)) if maxw else {}
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
        cur = {d: v / j for d, v in nxt.items() if v}
        for d, v in cur.items():
            acc[d] = acc[d] + v if d in acc else v
        j += 1
    return {d: v for d, v in acc.items() if v}


# -- sector endomorphisms -----------------------------------------------------------

Matrix = tuple[tuple[int, int], tuple[int, int]]

SWAP: Matrix = ((0, 1), (1, 0))


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum(a[i][l] * b[l][j] for l in range(2)) for j in range(2))
        for i in range(2)
    )  # type: ignore[return-value]


class PsiMap(NamedTuple):
    """Signed permutation of the two sector characters."""

    matrix: Matrix

    def compose(self, other: "PsiMap") -> "PsiMap":
        return PsiMap(_matmul(self.matrix, other.matrix))

    def scale(self, sign: int) -> "PsiMap":
        return PsiMap(tuple(tuple(sign * x for x in row) for row in self.matrix))  # type: ignore[arg-type]

    def apply(self, v: TVector) -> TVector:
        mat = self.matrix

        def act(key, c):
            parts, sector = key
            for j in (1, 2):
                entry = mat[j - 1][sector - 1]
                if entry:
                    yield (parts, j), c * entry

        return v.map_terms(act)


def lattice_sector_map(b: int) -> PsiMap:
    """Action of e_{b*alpha} on the sector pair: the identity on the first
    character and (-1)^b on the second."""
    return PsiMap(((1, 0), (0, -1 if b % 2 else 1)))


def psi_map(params: RingParams, r: int) -> PsiMap:
    """The endomorphism attached to lambda_r, via the decomposition
    r = r0 + 2k*m with -k+1 <= r0 <= k."""
    k = params.k
    r0 = ((r + k - 1) % (2 * k)) - (k - 1)
    mshift = (r - r0) // (2 * k)
    out = lattice_sector_map(mshift)
    if r0 % 2:
        out = out.compose(PsiMap(SWAP))
    return out


# -- the corrected twisted operators --------------------------------------------------


def _prefactor_split(params: RingParams, r: int) -> tuple[int, Scalar]:
    """(w, t^b) with 2^(-r^2/2k) = 2^w t^b and 0 <= b < 2k: the prefactor
    of the half-odd expansion at lattice index r, split into its rational
    part, which joins the kernel rows (`_delta_terms`), and a monomial with
    integer coefficients.  The monomial is the one basis element t^b for
    odd k or b < k; for even k and b >= k it is t^(b-k) times the reduced
    sqrt(2)."""
    w, b = divmod(-r * r, 2 * params.k)
    return w, params.two_to(Fraction(b, 2 * params.k))


def _delta_terms(params: RingParams, nu: tuple[int, ...], r: int) -> tuple:
    """2^w exp(Delta_z) a(-nu) e[r], with 2^w the rational part of the
    prefactor at r (`_prefactor_split`), as ((d, nu2, num, den), ...), the
    term (num/den) a(-nu2) e[r] z^(-d) as the mode kernel's rows;
    memoized on `params` for the life of the ring."""
    key = ("delta", nu, r)
    terms = params.memo.get(key)
    if terms is None:
        scale = Fraction(2) ** _prefactor_split(params, r)[0]
        rows = []
        for d, vec in delta_apply(UVector(params, {(nu, r): 1})).items():
            for (nu2, _r), c in vec.terms.items():
                c = c.as_rational() * scale
                rows.append((d, nu2, c.numerator, c.denominator))
        terms = params.memo[key] = tuple(rows)
    return terms


def _placement(
    params: RingParams, tilde: bool, r: int, sector: int, factor: Scalar | None
) -> tuple:
    """(target, lift) for a plan item at lattice index r on a term of v in
    `sector` whose factor is `factor` (see `untwisted.term_pair_images`):
    the sector map, psi_map(r) with `tilde` and the identity without, sends
    the sector to `target` with a sign, and `lift` is `untwisted._lift` of
    that sign times the irrational part t^b of the prefactor
    (`_prefactor_split`), times the factor.  The target and the signed
    monomial are memoized on `params` for the life of the ring."""
    key = ("place", tilde, r, sector)
    entry = params.memo.get(key)
    if entry is None:
        target, sign = sector, 1
        if tilde:
            column = [row[sector - 1] for row in psi_map(params, r).matrix]
            target = 1 if column[0] else 2
            sign = column[target - 1]
        entry = params.memo[key] = (target, _prefactor_split(params, r)[1] * sign)
    target, monomial = entry
    return target, _lift(params, monomial if factor is None else monomial * factor)


def _tilde_place(params: RingParams, r: int, sector: int, factor: Scalar | None) -> tuple:
    """The placement of `tilde_mode`'s plan items: `_placement` through the
    sector map psi_map(r)."""
    return _placement(params, True, r, sector, factor)


def _bare_place(params: RingParams, r: int, sector: int, factor: Scalar | None) -> tuple:
    """The placement of `mtheta_mode`'s plan items: `_placement` with the
    sector left as it is."""
    return _placement(params, False, r, sector, factor)


class _HashedKey(tuple):
    """An output key (parts, sector) of the twisted operators that stores
    its hash, as `functools._HashedSeq` does for lists: it equals the plain
    tuple and has the same hash, but the hash of its Fraction parts is
    computed once, when the key is made."""

    def __new__(cls, key: tuple):
        self = tuple.__new__(cls, key)
        self.hashvalue = hash(key)
        return self

    def __hash__(self):
        return self.hashvalue


def _corrected_mode(u: UVector, m, v: TVector, place) -> TVector:
    """Mode m of the Delta-corrected half-odd expansion of u on v, each
    lattice component at index r followed by the sector map that `place`
    (`_tilde_place` or `_bare_place`) attaches.

    Delta is linear, so the kernel rows of each term of u are its
    exp(Delta_z) expansion times the rational part 2^w of the prefactor
    2^(-r^2/2k) = 2^w t^b, from the per-ring table `_delta_terms`, and
    `term_pair_images` pairs the groups of u with the terms of v.  The
    kernel's Fraction is then the final rational coefficient of a key:
    each item of the driver's plan holds its target sector and its lift,
    the signed monomial t^b times the factor of the item (`_placement`), a
    bare wrap when every coefficient of that product is +-1.  The lifted
    coefficient is added straight into the result under its output key,
    which the "tkey" table of `RingParams.memo` holds once per ring for
    each doubled key and target sector: the halved parts and the sector as
    a `_HashedKey`, so a sweep hashes each key's Fraction parts once per
    ring, not once per call."""
    if not isinstance(v, TVector):
        raise TypeError(f"twisted mode operators do not apply to {type(v).__name__}")
    params = u.params
    keys = params.memo.setdefault("tkey", {})
    acc: dict = {}
    for (target, lift), image in term_pair_images(u, m, v, _delta_terms, place):
        for key, q in image.items():
            out = keys.get((key, target))
            if out is None:
                out = keys[key, target] = _HashedKey((halve(key), target))
            add_into(acc, out, lift(q))
    return TVector._wrap(params, acc)


def tilde_mode(u: UVector, m, v: TVector) -> TVector:
    """Mode of the twisted intertwiner: the corrected half-odd expansion of
    u tensored with the sector map of each lattice component of u."""
    return _corrected_mode(u, m, v, _tilde_place)


def twisted_mode(u: UVector, m, v: TVector) -> TVector:
    """Twisted module action: defined for u supported on the lattice proper
    (index divisible by 2k); general dual-lattice vectors must go through
    tilde_mode, which attaches the sector maps."""
    k = u.params.k
    for (_nu, r) in u.terms:
        if r % (2 * k) != 0:
            raise ValueError(
                f"twisted_mode needs lattice support; index {r} is not a "
                f"multiple of {2 * k} (use tilde_mode)"
            )
    return tilde_mode(u, m, v)


def mtheta_mode(u: UVector, m, v: TVector) -> TVector:
    """The bare corrected twisted operator with no sector action: the
    intertwiner for the oscillator subalgebra alone.  Sector labels of v
    pass through untouched."""
    return _corrected_mode(u, m, v, _bare_place)


def conjugation_check(mode, u: UVector, vectors, depth, dress: PsiMap | None = None) -> tuple[bool, int]:
    """Check theta Y(u, q) theta = Y(theta u, q), the right side followed by
    the sector map `dress` when one is given, for the twisted operator
    `mode` (mtheta_mode or tilde_mode) on each w of `vectors`, at every q
    of `support_modes(u, w, depth)`.  Returns `tally`'s (ok, nontrivial)."""
    tu = theta(u)

    def comparisons():
        for w in vectors:
            tw = theta(w)
            for q in support_modes(u, w, depth):
                rhs = mode(tu, q, w)
                yield theta(mode(u, q, tw)), rhs if dress is None else dress.apply(rhs)

    return tally(comparisons())
