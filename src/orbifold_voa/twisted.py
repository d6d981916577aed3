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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .fock import TVector, UVector, add_into, heis_act, theta
from .ring import RingParams
from .untwisted import halve, mode_kernel_sum, support_modes, tally

HALF = Fraction(1, 2)


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
        half_binom.append(half_binom[-1] * (HALF - (n - 1)) / n)
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

IDENTITY: Matrix = ((1, 0), (0, 1))
SWAP: Matrix = ((0, 1), (1, 0))


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum(a[i][l] * b[l][j] for l in range(2)) for j in range(2))
        for i in range(2)
    )  # type: ignore[return-value]


@dataclass(frozen=True)
class PsiMap:
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
    (num/den) a(-nu2) e[r] z^(-d) in `mode_kernel_sum`'s form; memoized on
    `params` for the life of the ring."""
    key = ("delta", nu, r)
    terms = params.memo.get(key)
    if terms is None:
        rows = []
        for d, vec in delta_apply(UVector(params, {(nu, r): 1})).items():
            for (nu2, _r), c in vec.terms.items():
                c = c.as_rational()
                rows.append((d, nu2, c.numerator, c.denominator))
        terms = params.memo[key] = tuple(rows)
    return terms


def _prefactor(params: RingParams, r: int):
    """The scalar prefactor 2^(-r^2/2k) of the half-odd expansion at lattice
    index r, memoized on `params` for the life of the ring."""
    key = ("prefactor", r)
    c = params.memo.get(key)
    if c is None:
        c = params.memo[key] = params.two_to(Fraction(-r * r, 2 * params.k))
    return c


def _corrected_mode(u: UVector, m, v: TVector, sector_map, cutoff) -> TVector:
    """Mode m of the Delta-corrected half-odd expansion of u on v, each
    lattice component at index r followed by the sector map sector_map(r).
    `cutoff`, when given, must dominate the weight of v (guard against
    accidentally feeding unbounded sweeps).

    Delta is linear, so each term of u is corrected on its own, from the
    per-ring table of single-term expansions; every Delta term of one term
    of u meets one term of v in a single `mode_kernel_sum`, so each output
    key costs one Fraction and one Scalar product per term pair.  Keys stay
    doubled integers until the result is wrapped, where each is halved
    once per ring (the "halved" table of `RingParams.memo`)."""
    params = u.params
    if params != v.params:
        raise ValueError("twisted operator: mixed ring parameters")
    if cutoff is not None and v and v.max_weight() > Fraction(cutoff):
        raise ValueError(
            f"cutoff {cutoff} is below the weight {v.max_weight()} of the target"
        )
    m = Fraction(m)
    a, b = m.numerator, m.denominator
    k = params.k
    acc: dict = {}
    for (nu, r), cu in u.terms.items():
        if (4 * k * a - r * r * b) % (2 * k * b):
            continue  # 2m - r^2/2k is not an integer: outside the support grid
        mat = sector_map(r).matrix
        images = {
            sector: [(j, mat[j - 1][sector - 1]) for j in (1, 2) if mat[j - 1][sector - 1]]
            for sector in (1, 2)
        }
        cu = cu * _prefactor(params, r)
        terms = _delta_terms(params, nu, r)
        for (mu, sector), cv in v.terms.items():
            image = mode_kernel_sum(params, r, mu, 0, m, True, terms)
            if not image:
                continue
            cc = cu * cv
            for key, q in image.items():
                for target, sign in images[sector]:
                    add_into(acc, (key, target), cc * (q * sign))
    halved = params.memo.setdefault("halved", {})
    out = {}
    for (key, j), c in acc.items():
        parts = halved.get(key)
        if parts is None:
            parts = halved[key] = halve(key)
        out[(parts, j)] = c
    return TVector._wrap(params, out)


def tilde_mode(u: UVector, m, v: TVector, cutoff=None) -> TVector:
    """Mode of the twisted intertwiner: the corrected half-odd expansion of
    u tensored with the sector map of each lattice component of u."""
    return _corrected_mode(u, m, v, lambda r: psi_map(u.params, r), cutoff)


def twisted_mode(u: UVector, m, v: TVector, cutoff=None) -> TVector:
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
    return tilde_mode(u, m, v, cutoff)


def mtheta_mode(u: UVector, m, v: TVector, cutoff=None) -> TVector:
    """The bare corrected twisted operator with no sector action: the
    intertwiner for the oscillator subalgebra alone.  Sector labels of v
    pass through untouched."""
    return _corrected_mode(u, m, v, lambda r: PsiMap(IDENTITY), cutoff)


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
