"""Basis-indexed graded vectors for the untwisted and twisted Fock spaces.

Untwisted basis terms are pairs (partition, r): the partition collects the
negative oscillator degrees a(-n1)...a(-nl) and r is the lattice index of
e[r] = e_{r*alpha/2k}.  Twisted terms are (half-odd partition, sector)
with sector picking one of the two irreducible lattice characters.

Conventions fixed here and used everywhere else:

* the Heisenberg generator is alpha itself, <alpha, alpha> = 2k, so all
  module structure constants are rational;
* term weight is sum(parts) + r^2/4k untwisted, sum(parts) + 1/16 twisted;
* the involution theta sends a term of oscillator length l to (-1)^l times
  the term with r negated (untwisted) or the same sector (twisted).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .labels import HALF, LAM, M_LAM, M_VAC, TW, VAC, M1Label, ModuleLabel, lattice_coset, validate_label
from .ring import RingParams, Scalar

Parts = tuple  # tuple[int, ...] untwisted, tuple[Fraction, ...] twisted
UKey = tuple  # (Parts, int)
TKey = tuple  # (Parts, int)

HALF_ONE = Fraction(1, 2)
TOP_TW = Fraction(1, 16)


def sort_parts(parts: Iterable) -> Parts:
    return tuple(sorted(parts, reverse=True))


def add_into(acc: dict, key, c: Scalar) -> None:
    """acc[key] += c on a dict of Scalars, dropping the key at zero."""
    prev = acc.get(key)
    total = c if prev is None else prev + c
    if total.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = total


class _SparseVector:
    """Finite linear combination of basis keys with Scalar coefficients."""

    __slots__ = ("params", "terms")

    def __init__(self, params: RingParams, terms=None):
        self.params = params
        clean = {}
        if terms:
            for key, c in terms.items():
                if not isinstance(c, Scalar):
                    c = params.rational(c)
                if not c.is_zero():
                    clean[key] = c
        self.terms = clean

    @classmethod
    def _wrap(cls, params: RingParams, terms: dict) -> "_SparseVector":
        """A vector owning `terms`, a fresh dict whose values are all nonzero
        Scalars, taken as it is: no coercion and no zero filter."""
        vec = cls.__new__(cls)
        vec.params = params
        vec.terms = terms
        return vec

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _like(self, terms) -> "_SparseVector":
        return type(self)(self.params, terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_into(out, key, c)
        return self._wrap(self.params, out)

    def __neg__(self):
        return self._wrap(self.params, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __mul__(self, c):
        """Every term times the number or `Scalar` c.  A zero c gives the
        empty vector; otherwise the products are taken as they are, with
        no zero filter: the ring embeds in C and its canonical form makes
        equality exact, so a product of two nonzero scalars is never zero.
        A rational c stays a number, which `Scalar` multiplies by scaling
        its terms."""
        if not isinstance(c, (int, Fraction, Scalar)):
            return NotImplemented
        if c.is_zero() if isinstance(c, Scalar) else not c:
            return self._wrap(self.params, {})
        return self._wrap(self.params, {k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, c):
        if isinstance(c, (int, Fraction)):
            return self * (Fraction(1) / Fraction(c))
        return NotImplemented

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("graded vectors are not hashable")

    def map_terms(self, fn: Callable) -> "_SparseVector":
        """fn(key, coeff) -> iterable of (key, Scalar) contributions."""
        out: dict = {}
        for key, c in self.terms.items():
            for nk, nc in fn(key, c):
                add_into(out, nk, nc)
        return self._wrap(self.params, out)

    def weights(self) -> set:
        return {self.key_weight(key) for key in self.terms}

    def max_weight(self) -> Fraction:
        return max(self.weights(), default=Fraction(0))

    def component(self, weight: Fraction):
        return self._like(
            {k: c for k, c in self.terms.items() if self.key_weight(k) == weight}
        )

    def sorted_keys(self) -> list:
        return sorted(self.terms, key=lambda key: (self.key_weight(key), key))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key in self.sorted_keys():
            bits.append(f"[{self.key_str(key)}]*({self.terms[key]})")
        return " + ".join(bits)

    __repr__ = __str__


class UVector(_SparseVector):
    """Vector in the untwisted space, keys (partition of ints, lattice r)."""

    def key_weight(self, key: UKey) -> Fraction:
        parts, r = key
        return sum(parts, Fraction(0)) + Fraction(r * r, 4 * self.params.k)

    @staticmethod
    def key_str(key: UKey) -> str:
        parts, r = key
        osc = "".join(f"a(-{n})" for n in parts)
        return f"{osc}e[{r}]"


class TVector(_SparseVector):
    """Vector in the twisted space, keys (half-odd partition, sector 1|2)."""

    def key_weight(self, key: TKey) -> Fraction:
        parts, _ = key
        return sum(parts, Fraction(0)) + TOP_TW

    @staticmethod
    def key_str(key: TKey) -> str:
        parts, sector = key
        osc = "".join(f"a(-{n})" for n in parts)
        return f"{osc}1tw[{sector}]"


# -- constructors ---------------------------------------------------------------


def lattice_vector(params: RingParams, r: int) -> UVector:
    return UVector(params, {((), r): 1})


def vacuum(params: RingParams) -> UVector:
    return lattice_vector(params, 0)


def u_term(params: RingParams, parts: Iterable[int], r: int, coeff=1) -> UVector:
    parts = sort_parts(parts)
    if any(not isinstance(p, int) or p < 1 for p in parts):
        raise ValueError(f"untwisted parts must be positive integers, got {parts}")
    return UVector(params, {(parts, r): coeff})


def tw_vacuum(params: RingParams, sector: int = 1, coeff=1) -> TVector:
    return t_term(params, (), sector, coeff)


def t_term(params: RingParams, parts: Iterable[Fraction], sector: int, coeff=1) -> TVector:
    parts = sort_parts(Fraction(p) for p in parts)
    if sector not in (1, 2):
        raise ValueError(f"the twisted sector is 1 or 2, got {sector}")
    if any(p.denominator != 2 or p <= 0 for p in parts):
        raise ValueError(f"twisted parts must be positive half-odd numbers, got {parts}")
    return TVector(params, {(parts, sector): coeff})


# -- oscillator action, involution, projections ---------------------------------


def _remove_one(parts: Parts, n) -> Parts:
    out = list(parts)
    out.remove(n)
    return tuple(out)


def _insert(parts: Parts, n) -> Parts:
    return sort_parts(list(parts) + [n])


def heis_act(n, vec):
    """Action of the oscillator mode alpha(n).

    n < 0 creates a part, n > 0 contracts against matching parts with
    [alpha(n), alpha(-n)] = 2kn, and n = 0 (untwisted only) multiplies by
    the lattice pairing <alpha, lambda_r> = r.  A mode off the lattice's
    grid (integers untwisted, half-odd integers twisted) is a ValueError.
    """
    if isinstance(vec, UVector):
        if n != int(n):
            raise ValueError(f"untwisted modes must be integers, got {n}")
        n = int(n)
    elif isinstance(vec, TVector):
        n = Fraction(n)
        if n == 0:
            raise ValueError("the twisted oscillator algebra has no zero mode")
        if n.denominator != 2:
            raise ValueError(f"twisted modes must be half-odd integers, got {n}")
    else:
        raise TypeError(f"heis_act does not apply to {type(vec).__name__}")
    k = vec.params.k

    def act(key, c):
        # the second entry of a key is r untwisted and the sector twisted
        parts, index = key
        if n == 0:
            if index:
                yield key, c * index
        elif n < 0:
            yield (_insert(parts, -n), index), c
        else:
            mult = parts.count(n)
            if mult:
                yield (_remove_one(parts, n), index), c * (2 * k * n * mult)

    return vec.map_terms(act)


def theta(vec):
    """The order-two involution: sign (-1)^length, lattice index negated."""
    if isinstance(vec, UVector):
        return vec.map_terms(
            lambda key, c: [(((key[0]), -key[1]), c if len(key[0]) % 2 == 0 else -c)]
        )
    if isinstance(vec, TVector):
        return vec.map_terms(
            lambda key, c: [(key, c if len(key[0]) % 2 == 0 else -c)]
        )
    raise TypeError(f"theta does not apply to {type(vec).__name__}")


def project_eigen(vec, sign: int):
    """Projection onto the (+1 or -1)-eigenspace of theta."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if sign > 0:
        return (vec + theta(vec)) * HALF_ONE
    return (vec - theta(vec)) * HALF_ONE


# -- partition machinery ----------------------------------------------------------


def partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """All integer partitions of n, parts descending, in reverse
    lexicographic order.

    Iterative: each partition after the first comes from the one before by
    lowering its last part p > 1 to p - 1 and refilling p plus the trailing
    ones greedily with parts of at most p - 1."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    parts: list[int] = []
    p, left = n + 1, n
    while True:
        q, rest = divmod(left, p - 1)
        parts += [p - 1] * q
        if rest:
            parts.append(rest)
        yield tuple(parts)
        left = 0
        while parts and parts[-1] == 1:
            parts.pop()
            left += 1
        if not parts:
            return
        p = parts.pop()
        left += p


def odd_partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into odd parts (used doubled for half-odd modes), in
    the reverse lexicographic order of `partitions_of`."""
    return (p for p in partitions_of(n) if all(part % 2 for part in p))


def half_odd_partitions_of(total: Fraction) -> Iterator[tuple[Fraction, ...]]:
    total = Fraction(total)
    if total < 0:
        return
    if (2 * total).denominator != 1:
        return
    for doubled in odd_partitions_of(int(2 * total)):
        yield tuple(Fraction(p, 2) for p in doubled)


def _length_parity_counts(n: int, step: int) -> tuple[int, int]:
    """(even-length, odd-length) counts of the partitions of n into parts
    1, 1 + step, 1 + 2 step, ...: a DP over part sizes in which adding a
    part swaps the two parities."""
    if n < 0:
        return 0, 0
    even, odd = [1] + [0] * n, [0] * (n + 1)
    for part in range(1, n + 1, step):
        for j in range(part, n + 1):
            even[j] += odd[j - part]
            odd[j] += even[j - part]
    return even[n], odd[n]


@lru_cache(maxsize=None)
def partition_count_parity(n: int) -> tuple[int, int]:
    """(even-length, odd-length) partition counts of n."""
    return _length_parity_counts(n, 1)


def partition_count(n: int) -> int:
    """p(n), the sum of the even- and odd-length counts."""
    return sum(partition_count_parity(n))


@lru_cache(maxsize=None)
def odd_partition_count_parity(n: int) -> tuple[int, int]:
    """(even-length, odd-length) counts of the partitions of n into odd parts."""
    return _length_parity_counts(n, 2)


# -- graded dimensions -------------------------------------------------------------


def _level(num: int, den: int) -> int | None:
    """num/den (den > 0) as a nonnegative integer, or None if it is negative
    or not an integer."""
    q, rem = divmod(num, den)
    return q if q >= 0 and not rem else None


def _vac_count(sign: int, a: int, b: int) -> int:
    """M+ (sign +1: even-length partitions) or M- (odd-length) at weight a/b."""
    n = _level(a, b)
    return 0 if n is None else partition_count_parity(n)[0 if sign > 0 else 1]


def _lam_count(k: int, c: int, a: int, b: int) -> int:
    """M(c) at weight a/b: the partitions of a/b - c^2/4k."""
    n = _level(4 * k * a - c * c * b, 4 * k * b)
    return 0 if n is None else partition_count(n)


def _tw_count(sign: int, a: int, b: int) -> int:
    """Mt+ or Mt- at weight a/b: the oscillator weight a/b - 1/16 is
    half-integral, and its half-odd partitions are the odd partitions of
    its double, split by length parity as for M+-."""
    n2 = _level(16 * a - b, 8 * b)
    return 0 if n2 is None else odd_partition_count_parity(n2)[0 if sign > 0 else 1]


def graded_dim(params: RingParams, label: ModuleLabel, weight: Fraction) -> int:
    """Dimension of the weight-graded component: the summed dimensions of
    the constituents, which it finds by weight (not through `decompose`),
    each lattice shift c^2/4k compared with the weight a/b in integers."""
    validate_label(label, params.k)
    k = params.k
    a, b = weight.numerator, weight.denominator
    if label.kind == TW:
        return _tw_count(label.sign, a, b)
    if label.kind == LAM:
        cosets = _coset_indices(label.r, k, weight)
    else:
        # theta pairs c with -c, leaving one vector per eigensign for each
        # c > 0: c = 2km, m >= 1 (V+-) or c = k + 2km, m >= 0 (Va+-)
        cosets = _shifts(lattice_coset(label, k) or 2 * k, 2 * k, k, weight)
    total = 0
    for c in cosets:
        total += _lam_count(k, c, a, b)
    if label.kind == VAC:
        total += _vac_count(label.sign, a, b)
    return total


def _shifts(c: int, step: int, k: int, weight: Fraction) -> Iterator[int]:
    """c, c + step, c + 2 step, ... while c^2/4k <= weight, that is
    c^2 b <= 4k a for weight a/b."""
    a4k, b = 4 * k * weight.numerator, weight.denominator
    while c * c * b <= a4k:
        yield c
        c += step


def _coset_indices(r: int, k: int, weight: Fraction) -> Iterator[int]:
    """Indices c = r + 2km with c^2/4k <= weight: m = 0, 1, ... and then
    m = -1, -2, ..."""
    yield from _shifts(r, 2 * k, k, weight)
    yield from _shifts(r - 2 * k, -2 * k, k, weight)


def m1_graded_dim(params: RingParams, m1: M1Label, weight: Fraction) -> int:
    """Graded dimension of a Heisenberg-orbifold constituent, by the closed
    partition-counting formulas that `graded_dim` also sums.  The two differ
    in how they find the constituents: `graded_dim` walks a module's own
    constituents by weight, and a caller of this one takes them from
    `decompose`."""
    a, b = weight.numerator, weight.denominator
    if m1.kind == M_VAC:
        return _vac_count(m1.sign, a, b)
    if m1.kind == M_LAM:
        return _lam_count(params.k, m1.index, a, b)
    return _tw_count(m1.sign, a, b)


# -- basis enumeration and top levels ----------------------------------------------


def coset_basis(params: RingParams, r0: int, max_weight: Fraction) -> list[UKey]:
    """Basis keys of the full untwisted coset lambda_r0 + L, weight <= max."""
    k = params.k
    keys: list[UKey] = []
    for c in _coset_indices(r0 % (2 * k), k, Fraction(max_weight)):
        budget = Fraction(max_weight) - Fraction(c * c, 4 * k)
        n = 0
        while n <= budget:
            for p in partitions_of(n):
                keys.append((p, c))
            n += 1
    return keys


def twisted_basis(params: RingParams, sector: int, max_weight: Fraction) -> list[TKey]:
    keys: list[TKey] = []
    budget = Fraction(max_weight) - TOP_TW
    total = Fraction(0)
    while total <= budget:
        for p in half_odd_partitions_of(total):
            keys.append((p, sector))
        total += HALF_ONE
    return keys


def label_basis(params: RingParams, label: ModuleLabel, max_weight: Fraction) -> list:
    """Vectors spanning the labelled module up to the given weight."""
    validate_label(label, params.k)
    out = []
    if label.kind in (VAC, HALF):
        for key in coset_basis(params, lattice_coset(label, params.k), max_weight):
            if key[1] < 0:
                continue  # its theta-partner at +c came first
            v = project_eigen(UVector(params, {key: 1}), label.sign)
            if v:
                out.append(v)
    elif label.kind == LAM:
        for key in coset_basis(params, label.r, max_weight):
            out.append(UVector(params, {key: 1}))
    else:
        for key in twisted_basis(params, label.sector, max_weight):
            v = project_eigen(TVector(params, {key: 1}), label.sign)
            if v:
                out.append(v)
    return out


def top_vector(params: RingParams, label: ModuleLabel):
    """The generating top-level vector (undefined for V- at k=1, which has a
    two-dimensional top level)."""
    validate_label(label, params.k)
    k = params.k
    if label.kind == VAC:
        if label.sign > 0:
            return vacuum(params)
        if k == 1:
            raise ValueError("V- at k=1 has a two-dimensional top level")
        return u_term(params, [1], 0)
    if label.kind == LAM:
        return lattice_vector(params, label.r)
    if label.kind == HALF:
        return lattice_vector(params, k) + lattice_vector(params, -k) * label.sign
    if label.sign > 0:
        return tw_vacuum(params, label.sector)
    return t_term(params, [HALF_ONE], label.sector)
