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
  the term with r negated (untwisted) or the same sector (twisted);
* graded dimensions are counted in integers, in units 1/16k: every weight
  the modules carry is a whole number of them (a shift c^2/4k is 4c^2
  units, the twisted top 1/16 is k, a step of 1/2 is 8k).  `graded_dim`
  finds a module's constituents by weight and `m1_graded_dim` counts one
  constituent that its caller takes from `decompose`, so the two sides of
  `verify decomp` stay independent.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import floor
from typing import Callable, Iterable, Iterator

from .labels import (
    HALF, LAM, M_LAM, M_TW, M_VAC, TW, VAC, M1Label, ModuleLabel, has_top_vector, lattice_coset, validate_label,
)
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


def add_block(acc: dict, block: dict, fresh: bool) -> None:
    """`add_into` for each key and Scalar of `block`; a `fresh` block, none
    of whose keys is in acc, goes in whole."""
    if fresh:
        acc.update(block)
    else:
        for key, c in block.items():
            add_into(acc, key, c)


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

    def __bool__(self) -> bool:
        return bool(self.terms)

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


def contract(n, parts: Parts, index, k: int) -> tuple | None:
    """alpha(n), n >= 0, on (parts, index) as (parts left, weight) or None:
    n > 0 removes one part n with weight 2kn times its multiplicity, and
    alpha(0) multiplies by the lattice index."""
    if not n:
        return (parts, index) if index else None
    mult = parts.count(n)
    if not mult:
        return None
    i = parts.index(n)
    return parts[:i] + parts[i + 1 :], 2 * k * n * mult


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
        if n < 0:
            yield (sort_parts(parts + (-n,)), index), c
        else:
            hit = contract(n, parts, index, k)
            if hit:
                yield (hit[0], index), c * hit[1]

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


def _grid_units(k: int, weight) -> int | None:
    """The weight (an int or a Fraction) in units 1/16k, or None off that
    grid."""
    units, rem = divmod(16 * k * weight.numerator, weight.denominator)
    return None if rem else units


def _add_levels(dims: list, k: int, start: int, offset: int, step: int, count_at) -> None:
    """dims[j] += count_at(n) for every entry j whose weight start + 8kj
    (units 1/16k) is offset + 8k step n with n >= 0: one divmod finds the
    first such j, and then every step-th entry is one more level n."""
    q, rem = divmod(start - offset, 8 * k)
    if rem:
        return
    j = -q if q < 0 else q % step
    n = (q + j) // step
    for j in range(j, len(dims), step):
        dims[j] += count_at(n)
        n += 1


def _add_constituent(dims: list, k: int, start: int, m1: M1Label) -> None:
    """A constituent's graded dimensions, added into the series from start:
    M(c) counts the partitions of its weight less c^2/4k, M+- the even- or
    odd-length partitions of its integer weight, and Mt+- splits the odd
    partitions of twice its weight less 1/16 (its half-odd oscillator
    partitions, doubled) by length parity as for M+-."""
    if m1.kind == M_LAM:
        _add_levels(dims, k, start, 4 * m1.index * m1.index, 2, partition_count)
        return
    parity = 0 if m1.sign > 0 else 1
    if m1.kind == M_VAC:
        _add_levels(dims, k, start, 0, 2, lambda n: partition_count_parity(n)[parity])
    else:
        _add_levels(dims, k, start, k, 1, lambda n: odd_partition_count_parity(n)[parity])


def graded_dim(k: int, label: ModuleLabel, weight: Fraction, count: int) -> list[int]:
    """Dimensions of the weight-graded components at weight, weight + 1/2,
    ..., `count` of them: the summed dimensions of the constituents, which
    it finds by weight (not through `decompose`), every coset c with c^2/4k
    at most the last weight.  A start off the 1/16k grid gives all zeros,
    and so does every negative weight."""
    validate_label(label, k)
    dims = [0] * count
    start = _grid_units(k, weight)
    if start is None:
        return dims
    if label.kind == TW:
        _add_constituent(dims, k, start, M1Label(M_TW, label.sign))
        return dims
    last = start + 8 * k * (count - 1)
    if label.kind == LAM:
        cosets = _coset_indices(label.r, k, last)
    else:
        # theta pairs c with -c, leaving one vector per eigensign for each
        # c > 0: c = 2km, m >= 1 (V+-) or c = k + 2km, m >= 0 (Va+-)
        cosets = _shifts(lattice_coset(label, k) or 2 * k, 2 * k, last)
    for c in cosets:
        _add_constituent(dims, k, start, M1Label(M_LAM, 0, abs(c)))
    if label.kind == VAC:
        _add_constituent(dims, k, start, M1Label(M_VAC, label.sign))
    return dims


def _shifts(c: int, step: int, units: int) -> Iterator[int]:
    """c, c + step, c + 2 step, ... while c^2/4k, 4c^2 units 1/16k, is at
    most `units`."""
    while 4 * c * c <= units:
        yield c
        c += step


def _coset_indices(r: int, k: int, units: int) -> Iterator[int]:
    """Indices c = r + 2km with c^2/4k at most `units` 1/16k: m = 0, 1, ...
    and then m = -1, -2, ..."""
    yield from _shifts(r, 2 * k, units)
    yield from _shifts(r - 2 * k, -2 * k, units)


def m1_graded_dim(k: int, m1: M1Label, weight: Fraction, count: int) -> list[int]:
    """Graded dimensions of a Heisenberg-orbifold constituent at weight,
    weight + 1/2, ..., `count` of them, by the closed partition-counting
    formulas that `graded_dim` also sums.  The two differ in how they find
    the constituents: `graded_dim` walks a module's own constituents by
    weight, and a caller of this one takes them from `decompose`."""
    dims = [0] * count
    start = _grid_units(k, weight)
    if start is not None:
        _add_constituent(dims, k, start, m1)
    return dims


# -- basis enumeration and top levels ----------------------------------------------


def coset_basis(params: RingParams, r0: int, max_weight: Fraction) -> list[UKey]:
    """Basis keys of the full untwisted coset lambda_r0 + L, weight <= max."""
    k = params.k
    keys: list[UKey] = []
    for c in _coset_indices(r0 % (2 * k), k, floor(16 * k * Fraction(max_weight))):
        budget = Fraction(max_weight) - Fraction(c * c, 4 * k)
        n = 0
        while n <= budget:
            for p in partitions_of(n):
                keys.append((p, c))
            n += 1
    return keys


def twisted_basis(params: RingParams, sector: int, max_weight: Fraction) -> list[TKey]:
    """Basis keys of one twisted sector, weight <= max: the half-odd
    partitions of oscillator weight n/2 are those of n into odd parts, halved."""
    return [
        (tuple(Fraction(p, 2) for p in doubled), sector)
        for n in range(floor(2 * (Fraction(max_weight) - TOP_TW)) + 1)
        for doubled in odd_partitions_of(n)
    ]


def top_vector(params: RingParams, label: ModuleLabel):
    """The generating top-level vector; refused for a label without one
    (`has_top_vector`)."""
    validate_label(label, params.k)
    k = params.k
    if not has_top_vector(label, k):
        raise ValueError(f"{label.code} at k={k} has a two-dimensional top level")
    if label.kind == VAC:
        if label.sign > 0:
            return vacuum(params)
        return u_term(params, [1], 0)
    if label.kind == LAM:
        return lattice_vector(params, label.r)
    if label.kind == HALF:
        return lattice_vector(params, k) + lattice_vector(params, -k) * label.sign
    if label.sign > 0:
        return tw_vacuum(params, label.sector)
    return t_term(params, [HALF_ONE], label.sector)
