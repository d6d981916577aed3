"""Exact arithmetic over Q(zeta)[t] with zeta = e^(i*pi/2k) and t = 2^(1/2k).

Every scalar produced by the rank-one lattice constructions lives in this
ring: root-of-unity phases zeta^a and radical powers of two 2^q with
denominator of q dividing 2k.  Elements are kept in canonical form on the
Q-basis zeta^a * t^b with 0 <= a < phi(4k) and 0 <= b < t_degree, where

* zeta is reduced modulo the 4k-th cyclotomic polynomial, and
* t satisfies t^(2k) = 2 for odd k, while for even k the smaller relation
  t^k = sqrt(2) is used, sqrt(2) being the exact cyclotomic element
  zeta^(k/2) + zeta^(-k/2).

Canonical form makes equality of representations equality of the complex
numbers represented, so the zero test is exact and needs no tolerance.
All coefficients are `fractions.Fraction`; no floating point enters the
ring.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class RingMismatchError(ValueError):
    """Scalars over different ring parameters were combined."""


class RingPrecisionError(ValueError):
    """A power of two outside the ring was requested (denominator of the
    exponent does not divide 2k)."""


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # long division of integer polynomials, divisor monic, zero remainder
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, d in enumerate(den):
                num[i - dd + j] -= c * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients, low to high, of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


class RingParams:
    """Arithmetic data for the coefficient ring at a fixed k.

    Holds the reduction table for powers of zeta (order 4k) and the top
    relation for t.  Construction asserts the internal relations are
    exactly consistent; in particular for even k the designated sqrt(2)
    element is checked to square to 2 in the cyclotomic quotient.

    `memo` holds the tables the mode layers derive from the ring and a few
    small integers, each built on first use:

    * ("create", r, pending, w, twisted): the creation stage of the mode
      kernel as (den, rows), integer numerators over one least common
      denominator, `untwisted._creation_table` (the table at -r with no
      pending factors is read from the one at r);
    * ("delta", nu, r): exp(Delta_z) of one term times 2^w, the rational
      part of the twisted prefactor 2^(-r^2/2k) = 2^w t^b,
      `twisted._delta_terms`;
    * ("place", tilde, r, sector): where the twisted operators put an
      image at lattice index r on a term of v in `sector`: the target
      sector, the sign of the sector map times t^b (the prefactor's
      monomial, with integer coefficients) and the map that wraps a
      kernel coefficient with it, `twisted._placement`;
    * "tkey": a dict from each (doubled key, target sector) the twisted
      operators have returned to its output key, the halved Fraction parts
      and the sector as a tuple that stores its hash
      (`twisted._HashedKey`), shared by every result;
    * "pair": (input, plan), the m-independent work of the mode driver
      for the latest (u, v) pair, `untwisted.term_pair_images`: the input
      is the kernel-row function, the lattice and u and v as lists of
      (key, coefficient terms), and the plan holds the skeleton
      (`untwisted._skeleton`) of each term pair, walked as it is built.
      It is one entry, replaced when the input changes, so a sweep over m
      plans once and the memo does not grow with the inputs;
    * ("pcoeff", n): the rows (parts, length parity, denominator) of the
      degree-n coefficient of the creation exponential, read by both
      signs of `untwisted.p_coeff_apply`;
    * "zeta": a dict from each exponent a mod 4k that `zeta` was asked
      for to its Scalar, at most 4k entries.

    Every table lives exactly as long as its ring.  The CLI builds at most
    one ring per command, so a command's tables go with it.
    """

    __slots__ = ("k", "n_roots", "degree", "t_degree", "_zeta_rows", "_t_top", "memo")

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be a positive integer, got {k}")
        self.k = k
        self.memo: dict = {}  # see the class docstring
        self.n_roots = 4 * k
        cyclo = cyclotomic_poly(self.n_roots)
        deg = len(cyclo) - 1
        self.degree = deg
        # reduction table: coordinates of zeta^j on 1, zeta, ..., zeta^(deg-1)
        rows: list[tuple[int, ...]] = []
        for j in range(self.n_roots):
            if j < deg:
                rows.append(tuple(1 if i == j else 0 for i in range(deg)))
            else:
                prev = rows[j - 1]
                new = [0] * deg
                for i in range(deg - 1):
                    new[i + 1] += prev[i]
                top = prev[deg - 1]
                if top:
                    for i in range(deg):
                        new[i] -= top * cyclo[i]
                rows.append(tuple(new))
        self._zeta_rows = tuple(rows)

        if k % 2 == 1:
            self.t_degree = 2 * k
            self._t_top = {0: 2}  # t^(2k) = 2
        else:
            self.t_degree = k
            # sqrt(2) = zeta^(k/2) + zeta^(-k/2), both exponents reduced
            half = k // 2
            top: dict[int, int] = {}
            for e in (half, self.n_roots - half):
                for i, c in enumerate(self._zeta_rows[e % self.n_roots]):
                    if c:
                        top[i] = top.get(i, 0) + c
            self._t_top = {i: c for i, c in top.items() if c}
            sq = self._mul_zeta_vecs(self._t_top, self._t_top)
            if sq != {0: 2}:
                raise AssertionError(
                    f"k={k}: designated sqrt(2) element does not square to 2"
                )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RingParams) and other.k == self.k

    def __hash__(self) -> int:
        return hash(("RingParams", self.k))

    def __repr__(self) -> str:
        return f"RingParams(k={self.k})"

    # -- basis-level products -------------------------------------------------

    def _mul_zeta_vecs(self, u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for a, ca in u.items():
            for b, cb in v.items():
                for i, c in enumerate(self._zeta_rows[(a + b) % self.n_roots]):
                    if c:
                        out[i] = out.get(i, 0) + ca * cb * c
        return {i: c for i, c in out.items() if c}

    def _mul_basis(self, a1: int, b1: int, a2: int, b2: int):
        """Product of basis monomials as a list of (a, b, integer coeff)."""
        b = b1 + b2
        zrow = self._zeta_rows[(a1 + a2) % self.n_roots]
        if b < self.t_degree:
            return [(i, b, c) for i, c in enumerate(zrow) if c]
        b -= self.t_degree
        zvec = {i: c for i, c in enumerate(zrow) if c}
        prod = self._mul_zeta_vecs(zvec, self._t_top)
        return [(i, b, c) for i, c in prod.items()]

    # -- constructors ----------------------------------------------------------

    def scalar(self, terms: dict[tuple[int, int], Fraction]) -> "Scalar":
        return Scalar(self, {key: c for key, c in terms.items() if c})

    def zero(self) -> "Scalar":
        return Scalar(self, {})

    def rational(self, c) -> "Scalar":
        c = Fraction(c)
        return Scalar(self, {(0, 0): c} if c else {})

    def zeta(self, a: int) -> "Scalar":
        """Canonical scalar for zeta^a, one Scalar per a mod 4k (memoized
        under "zeta")."""
        a %= self.n_roots
        cache = self.memo.setdefault("zeta", {})
        z = cache.get(a)
        if z is None:
            row = self._zeta_rows[a]
            z = cache[a] = Scalar(self, {(i, 0): Fraction(c) for i, c in enumerate(row) if c})
        return z

    def two_to(self, q) -> "Scalar":
        """Canonical scalar for 2^q; q must have denominator dividing 2k."""
        q = Fraction(q)
        steps = q * 2 * self.k
        if steps.denominator != 1:
            raise RingPrecisionError(
                f"2^({q}) is not in the ring for k={self.k}: "
                f"denominator of the exponent must divide {2 * self.k}"
            )
        e = int(steps)
        b = e % (2 * self.k)
        whole = (e - b) // (2 * self.k)
        base = Fraction(2) ** whole
        if b < self.t_degree:
            return Scalar(self, {(0, b): base})
        # only for even k: t^b = t^(b-k) * sqrt2
        return Scalar(
            self,
            {(i, b - self.t_degree): base * c for i, c in self._t_top.items()},
        )


def _is_rational(terms: dict) -> bool:
    """Whether canonical terms are those of a rational number (0 included)."""
    return not terms or (len(terms) == 1 and (0, 0) in terms)


class Scalar:
    """Canonical ring element: finite Q-linear combination of zeta^a * t^b.

    Immutable value object.  Structural equality of canonical forms is
    equality of the represented complex numbers.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params: RingParams, terms: dict[tuple[int, int], Fraction]):
        self.params = params
        self.terms = terms

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return _is_rational(self.terms)

    def as_rational(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not rational")
        return self.terms[(0, 0)]

    def _check(self, other: "Scalar") -> None:
        if self.params != other.params:
            raise RingMismatchError(
                f"mixed ring parameters k={self.params.k} and k={other.params.k}"
            )

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return Scalar(self.params, out)

    def __neg__(self) -> "Scalar":
        return Scalar(self.params, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        # a rational side only scales the other side's terms
        if _is_rational(other.terms):
            return self._scaled(other.terms.get((0, 0), 0))
        if _is_rational(self.terms):
            return other._scaled(self.terms.get((0, 0), 0))
        out: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                c12 = c1 * c2
                for a, b, c in self.params._mul_basis(a1, b1, a2, b2):
                    key = (a, b)
                    s = out.get(key, 0) + c12 * c
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        return Scalar(self.params, out)

    def _scaled(self, c) -> "Scalar":
        """self times the rational c: each term scaled, no basis product."""
        if not c:
            return self.params.zero()
        if c == 1:
            return Scalar(self.params, dict(self.terms))
        return Scalar(self.params, {key: c * v for key, v in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other: object) -> bool:
        if type(other) is Scalar and other.params is self.params:
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            other = self.params.rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.params.k, frozenset(self.terms.items())))

    # -- output ----------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[int, int, Fraction]]:
        return [(a, b, self.terms[(a, b)]) for a, b in sorted(self.terms)]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({c})*zeta^{a}*t^{b}" for a, b, c in self.sorted_terms()
        )

    def __repr__(self) -> str:
        return f"Scalar(k={self.params.k}, {self})"
