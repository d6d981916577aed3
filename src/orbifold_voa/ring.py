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
Each element holds one integer numerator per basis element over one
shared positive denominator, with no factor common to all of them
(`Scalar`), so its arithmetic is on ints; a `fractions.Fraction` is made
only where a coefficient is read out (`Scalar.terms`,
`Scalar.as_rational`).  No floating point enters the ring.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


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
    small integers, each built on first use.  No value refers back to the
    ring: none is or holds a Scalar, a vector or a function that closes
    over the ring, since one that did would make the ring part of a
    reference cycle, and a dead ring, all its tables with it, would wait
    as garbage for a full pass of the cyclic collector.  The entries:

    * ("create", r, pending, twisted): the creation stage of the mode
      kernel as a dict {w: (den, rows)} over the doubled weights w, each
      row (parts, num, code), an integer numerator over one least common
      denominator per table and the multiplicity code of the parts,
      `untwisted._creation_table` (the table at -r with no pending factors
      is read from the one at r); a row holds an untwisted part p as p,
      the unit of the output key, and a twisted one as 2p.  Each row of a
      kernel skeleton (`untwisted._skeleton`) holds the dict of its
      pending factors, so stage 3 reads a table with one lookup;
    * "decode": a dict from each multiplicity code that stage 3 of the
      mode kernel has made an untwisted-shaped key (parts, index) of to its
      parts as a tuple of ints (`untwisted._Decoded`), so a code is decoded
      once per ring.  It serves the keys that are not the parts of one
      table row, those of a row with kept parts and of merged rows; a
      single live row that keeps no parts takes its table's parts;
    * ("delta", nu, r): exp(Delta_z) of one term times 2^w, the rational
      part of the twisted prefactor 2^(-r^2/2k) = 2^w t^b,
      `twisted._delta_terms`;
    * ("place", tilde, r, sector): where the twisted operators put an
      image at lattice index r on a term of v in `sector`: the target
      sector and the integer form (nums, den) of the sign of the sector
      map times t^b (the prefactor's monomial, with integer
      coefficients), which `twisted._placement` makes a Scalar again as
      each plan item of the mode driver is built;
    * ("tkey", sector): the twisted operators' key map of one target
      sector, a dict from the multiplicity code of each doubled key that
      stage 3 has placed there to its output key, the halved Fraction
      parts and the sector as a tuple that stores its hash
      (`twisted._SectorKeys` of `twisted._HashedKey`), shared by every
      result and held by each plan item that places into the sector;
    * "pair": (input, plan), the m-independent work of the mode driver
      for the latest (u, v) pair, `untwisted.term_pair_images`: the input
      is the kernel-row and placement functions, the target (None, or a
      function and the intertwiner spec it reads), the lattice and u and v
      as lists of (key, coefficient numerators, coefficient denominator),
      and the plan holds the placement as data (an output lattice index or
      the key map of a target sector, and the `untwisted._lift` of the
      factor, its (basis, numerator) pairs and denominator), whether it
      is first at its output index or target sector, and the skeleton
      (`untwisted._skeleton`) of each term pair of u and the target of v,
      made as it is built, each item (r, s, keys, lift, first, skeleton).
      It is one entry, replaced when the input changes, so a sweep over m
      plans once and the memo does not grow with the inputs;
    * ("pcoeff", n): the rows (parts, den, sign) of the degree-n
      coefficient of the creation exponential, each coefficient 1/den for
      +alpha and sign/den for -alpha with sign = (-1)^len(parts) and den an
      int, read by both signs of `untwisted.p_coeff_apply`.

    Every table lives exactly as long as its ring, and reference counting
    frees both once the last outside reference goes.  The CLI builds at
    most one ring per command, so a command's tables go with it when it
    returns.
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
        """The Scalar with these rational coefficients, zeros dropped."""
        terms = {key: Fraction(c) for key, c in terms.items() if c}
        den = lcm(*[c.denominator for c in terms.values()])
        return Scalar._reduced(self, {key: c.numerator * (den // c.denominator) for key, c in terms.items()}, den)

    def zero(self) -> "Scalar":
        return Scalar(self, {}, 1)

    def rational(self, c) -> "Scalar":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return Scalar(self, {(0, 0): c.numerator} if c else {}, c.denominator)

    def zeta(self, a: int) -> "Scalar":
        """Canonical scalar for zeta^a."""
        row = self._zeta_rows[a % self.n_roots]
        return Scalar(self, {(i, 0): c for i, c in enumerate(row) if c}, 1)

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
        num, den = (2**whole, 1) if whole >= 0 else (1, 2**-whole)
        if b < self.t_degree:
            return Scalar(self, {(0, b): num}, den)
        # only for even k: t^b = t^(b-k) * sqrt2
        return Scalar._reduced(
            self, {(i, b - self.t_degree): num * c for i, c in self._t_top.items()}, den
        )


def _is_rational(nums: dict) -> bool:
    """Whether canonical numerators are those of a rational number (0 included)."""
    return not nums or (len(nums) == 1 and (0, 0) in nums)


class Scalar:
    """Canonical ring element: finite Q-linear combination of zeta^a * t^b.

    Held in integer form: `nums` maps each basis element (a, b) to a
    nonzero int numerator over the one denominator `den` > 0, with
    gcd(den, *nums) == 1, so each element has exactly one form.  Immutable
    value object.  Structural equality of canonical forms is equality of
    the represented complex numbers.

    `Scalar(params, nums, den)` takes a form that is already canonical,
    as it is; `Scalar._reduced` divides out the common factor first.  The
    `RingParams` constructors make Scalars from rationals, and `terms` is
    the {basis: Fraction} view of the form, built on each read.
    """

    __slots__ = ("params", "nums", "den")

    def __init__(self, params: RingParams, nums: dict[tuple[int, int], int], den: int):
        self.params = params
        self.nums = nums
        self.den = den

    @staticmethod
    def _reduced(params: RingParams, nums: dict[tuple[int, int], int], den: int) -> "Scalar":
        """The Scalar nums/den, nonzero numerators over den > 0, with
        gcd(den, *nums) divided out."""
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {key: n // g for key, n in nums.items()}
            den //= g
        return Scalar(params, nums, den)

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """{basis: Fraction coefficient}, a fresh dict on each read."""
        return {key: Fraction(n, self.den) for key, n in self.nums.items()}

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_rational(self) -> bool:
        return _is_rational(self.nums)

    def as_rational(self) -> Fraction:
        if not self.nums:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not rational")
        return Fraction(self.nums[(0, 0)], self.den)

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
        # both sides over the least common denominator
        g = gcd(self.den, other.den)
        a, b = other.den // g, self.den // g
        out = {key: n * a for key, n in self.nums.items()}
        for key, n in other.nums.items():
            s = out.get(key, 0) + n * b
            if s:
                out[key] = s
            else:
                del out[key]
        return Scalar._reduced(self.params, out, self.den * a)

    def __neg__(self) -> "Scalar":
        return Scalar(self.params, {key: -n for key, n in self.nums.items()}, self.den)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        # a rational side only scales the other side's numerators
        if _is_rational(other.nums):
            return self._scaled(other.nums.get((0, 0), 0), other.den)
        if _is_rational(self.nums):
            return other._scaled(self.nums.get((0, 0), 0), self.den)
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self.nums.items():
            for (a2, b2), c2 in other.nums.items():
                c12 = c1 * c2
                for a, b, c in self.params._mul_basis(a1, b1, a2, b2):
                    key = (a, b)
                    s = out.get(key, 0) + c12 * c
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        return Scalar._reduced(self.params, out, self.den * other.den)

    def _scaled(self, num: int, den: int) -> "Scalar":
        """self times the rational num/den, den > 0: each numerator scaled,
        no basis product."""
        if not num:
            return self.params.zero()
        return Scalar._reduced(self.params, {key: n * num for key, n in self.nums.items()}, self.den * den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other: object) -> bool:
        if type(other) is Scalar and other.params is self.params:
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            other = self.params.rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.params == other.params and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.params.k, self.den, frozenset(self.nums.items())))

    # -- output ----------------------------------------------------------------

    def __str__(self) -> str:
        """The terms in basis order, each coefficient printed as `Fraction`
        prints it: n/d in lowest terms, or n when d is 1."""
        if not self.nums:
            return "0"
        out = []
        for a, b in sorted(self.nums):
            n = self.nums[(a, b)]
            g = gcd(n, self.den)
            c = f"{n // g}" if g == self.den else f"{n // g}/{self.den // g}"
            out.append(f"({c})*zeta^{a}*t^{b}")
        return " + ".join(out)

    def __repr__(self) -> str:
        return f"Scalar(k={self.params.k}, {self})"
