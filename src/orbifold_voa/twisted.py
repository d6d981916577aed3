"""Twisted vertex operators, the quadratic exponential correction, and the
sector endomorphisms used by the twisted intertwiners.

The operator attached to u at lattice index r acts on the twisted Fock
space through three layers:

1. exp(Delta_z) u, a finite z-polynomial correction whose coefficients
   c[m][n] = C(-1/2, m) C(-1/2, n) / 2(m+n), c[0][0] = 0, are those of
   -log(((1+x)^(1/2)+(1+y)^(1/2))/2) (`delta_coeff`); this closed form,
   with C(-1/2, j) = (-1)^j C(2j, j) / 4^j, is their only source, and no
   table of them is kept;
2. the normally ordered half-odd-mode expansion with scalar prefactor
   2^(-<lam,lam>) and exponent shift z^(-<lam,lam>/2);
3. a signed permutation of the two sector characters: e_{m*alpha} for
   lattice u, and the swap-based maps psi for general dual-lattice u.

Modes are indexed like the untwisted case (coefficient of z^(-m-1)); for
u at lattice index r the support grid is r^2/4k + (1/2)Z.

The three layers run on the shared term-pair driver of `untwisted`.  The
correction of layer 1 gives the kernel rows of each term of u, so the
kernel's integer sum over its denominator is the rational coefficient of
each output key before the prefactor.  The prefactor 2^(-r^2/2k) of layer
2 times the sign of layer 3, in integer form, and the per-ring key map of
the target sector are one per-ring placement entry, which each item of
the driver's plan reads as it is built.  Where the prefactor is
one basis element (always for odd k, and for even k when -r^2 mod 2k < k)
a key of a rational term pair takes one numerator, the sum times the
signed power of 2, and one gcd.  The driver's image sums the items'
images, key by key where an earlier item wrote the same target sector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb
from typing import NamedTuple

from .fock import TVector, UVector, add_into, contract, theta
from .ring import RingParams, Scalar
from .untwisted import _decode, _lift, halve, support_modes, tally, term_pair_images

# -- expansion coefficients of the quadratic correction ---------------------------


def _binom_half(j: int) -> Fraction:
    """C(-1/2, j) = (-1)^j C(2j, j) / 4^j."""
    return Fraction((-1) ** j * comb(2 * j, j), 4**j)


def delta_rows(order: int):
    """Yield (m, n, c[m][n]) for every m+n <= order, m first, then n, each
    ascending: the closed form of `delta_coeff`, with each C(-1/2, j)
    computed once.

    The list of C(-1/2, j) grows as the m = 0 pass reaches each j, so the
    first rows come at once at any order: C(-1/2, j) has a numerator and
    a denominator of about 2j bits each, so the whole list at a large
    order would not fit in memory before the first row."""
    binom = []
    for m in range(order + 1):
        for n in range(order + 1 - m):
            if n == len(binom):
                binom.append(_binom_half(n))
            yield m, n, binom[m] * binom[n] / (2 * (m + n)) if m + n else Fraction(0)


def delta_coeff(m: int, n: int) -> Fraction:
    """The exact coefficient c[m][n] = C(-1/2, m) C(-1/2, n) / 2(m+n),
    c[0][0] = 0, of the correction generating function: the Euler operator
    x d/dx + y d/dy multiplies x^m y^n by m+n and sends
    -log(((1+x)^(1/2)+(1+y)^(1/2))/2) to ((1+x)^(-1/2) (1+y)^(-1/2) - 1)/2,
    and both vanish at 0.  Nothing is cached."""
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    return _binom_half(m) * _binom_half(n) / (2 * (m + n)) if m + n else Fraction(0)


def delta_apply(u: UVector) -> dict[int, UVector]:
    """Finite expansion of exp(Delta_z) u as {d: coefficient of z^(-d)}.

    Delta_z is quadratic in oscillator modes with strictly weight-lowering
    terms, hence nilpotent on finite vectors; nothing is truncated.  Each
    term a(-nu) e[r] of u is expanded on a plain dict {(d, parts):
    Fraction}, parts in the integer units of a UVector key, and each
    output UVector is built once, the rows scaled by their term's
    coefficient.  A term contracts only modes among 0 and the distinct
    parts of nu (`fock.contract` refuses the zero mode at r = 0), so only
    their c[m][n] are computed, in the order of `delta_rows`."""
    k = u.params.k
    out: dict[int, dict] = {}
    for (nu, r), c in u.terms.items():
        modes = sorted({0, *nu})
        pairs = [(mm, nn, delta_coeff(mm, nn)) for mm in modes for nn in modes if mm or nn]
        cur = {(0, nu): Fraction(1)}
        acc = dict(cur)
        j = 1
        while cur:
            nxt: dict[tuple, Fraction] = {}
            for (d, parts), x in cur.items():
                for mm, nn, q in pairs:
                    first = contract(nn, parts, r, k)
                    second = first and contract(mm, first[0], r, k)
                    if second:
                        key = (d + mm + nn, second[0])
                        # at least one mode is positive, so 2k divides the weight
                        nxt[key] = nxt.get(key, 0) + x * q * (first[1] * second[1] // (2 * k))
            cur = {key: x / j for key, x in nxt.items() if x}
            for key, x in cur.items():
                acc[key] = acc.get(key, 0) + x
            j += 1
        for (d, parts), x in acc.items():
            if x:
                add_into(out.setdefault(d, {}), (parts, r), c * x)
    return {d: UVector._wrap(u.params, terms) for d, terms in out.items() if terms}


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


def _delta_terms(params: RingParams, nu: tuple[int, ...], r: int) -> tuple:
    """exp(Delta_z) a(-nu) e[r] as ((d, nu2, num, den), ...), the term
    (num/den) a(-nu2) e[r] z^(-d) as the mode kernel's rows; memoized on
    `params` for the life of the ring."""
    key = ("delta", nu, r)
    terms = params.memo.get(key)
    if terms is None:
        terms = params.memo[key] = tuple(
            (d, nu2, *c.as_rational().as_integer_ratio())
            for d, vec in delta_apply(UVector(params, {(nu, r): 1})).items()
            for (nu2, _r), c in vec.terms.items()
        )
    return terms


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


class _SectorKeys(dict):
    """{multiplicity code: output key} for one target sector, filled on
    first lookup: the doubled parts of the code (`untwisted._decode`)
    halved, and the sector, as a `_HashedKey`.  The ("tkey", sector) entry
    of `RingParams.memo`, so each output key is made and hashed once per
    ring; its `sector` is the slot of the plan items that hold it."""

    __slots__ = ("sector",)

    def __init__(self, sector: int):
        self.sector = sector

    def __missing__(self, code: int) -> _HashedKey:
        key = self[code] = _HashedKey((halve(_decode(code)), self.sector))
        return key


def _placement(
    tilde: bool, params: RingParams, r: int, sector: int, factor: Scalar | None
) -> tuple:
    """(keys, lift) for a plan item at lattice index r on a term of v in
    `sector` whose factor is `factor` (see `untwisted.term_pair_images`):
    the sector map, psi_map(r) with `tilde` and the identity without, sends
    the sector to a target with a sign; `keys` is the ring's key map of
    that target (`_SectorKeys`), and `lift` is `untwisted._lift` of that
    sign times the prefactor 2^(-r^2/2k), times the factor.  The pair with
    no factor is memoized on `params` for the life of the ring, and a
    factor is multiplied into a Scalar made from its lift, so the memo
    holds nothing that refers back to the ring."""
    key = ("place", tilde, r, sector)
    entry = params.memo.get(key)
    if entry is None:
        target, sign = sector, 1
        if tilde:
            column = [row[sector - 1] for row in psi_map(params, r).matrix]
            target = 1 if column[0] else 2
            sign = column[target - 1]
        keys = params.memo.get(("tkey", target))
        if keys is None:
            keys = params.memo["tkey", target] = _SectorKeys(target)
        entry = params.memo[key] = (keys, _lift(params.two_to(Fraction(-r * r, 2 * params.k)) * sign))
    if factor is None:
        return entry
    keys, (nums, den) = entry
    return keys, _lift(Scalar(params, dict(nums), den) * factor)


# the placements of `tilde_mode`'s plan items, through the sector map
# psi_map(r), and of `mtheta_mode`'s, the sector left as it is; made once
# here, since the mode plan compares `place` by identity
_tilde_place = partial(_placement, True)
_bare_place = partial(_placement, False)


def _corrected_mode(u: UVector, m, v: TVector, place) -> TVector:
    """Mode m of the Delta-corrected half-odd expansion of u on v, each
    lattice component at index r followed by the sector map that `place`
    (`_tilde_place` or `_bare_place`) attaches.

    Delta is linear, so the kernel rows of each term of u are its
    exp(Delta_z) expansion, from the per-ring table `_delta_terms`, and
    `term_pair_images` pairs the groups of u with the terms of v.  Each
    item of the driver's plan holds the key map of its target sector and
    its lift, the integer form of the signed prefactor 2^(-r^2/2k) times
    the factor of the item (`_placement`), and stage 3 writes the image in
    those terms (`untwisted._create`).  The driver sums the images (an item
    first at its target sector goes in whole) into the result."""
    if not isinstance(v, TVector):
        raise TypeError(f"twisted mode operators do not apply to {type(v).__name__}")
    return TVector._wrap(u.params, term_pair_images(u, m, v, _delta_terms, place))


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
