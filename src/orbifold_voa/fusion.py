"""The fusion-rule decision procedure.

Two generating tables (one for triples of untwisted labels, one for
twisted first label) are transcribed as data, closed under the two fusion
symmetries

    N(W1, W2, W3) = N(W2, W1, W3) = N(W1, W3', W2')

and the closure is required to coincide exactly with a transcription of
the full published table; any divergence is a build failure carrying the
offending triples.  All three run on label indices, a label's index being
its position in `all_labels(k)`, so the build hashes only integer triples.
It still makes O(k^2) triples, once per k and process (`get_engine`); a
query then maps its three labels to indices and tests set membership.

The independent upper bound comes from restricting to constituents of the
Heisenberg-orbifold decomposition: the bound of a triple is the minimum
over constituent pairs of the summed constituent fusion numbers in the
target.  The constituent rules send M(c) x M(d) only to M(c+d), M(|c-d|)
and, when c = d, to M+ and M-, and the lattice constituents of every
untwisted label fill one residue class mod 2k up to sign.  So the summed
count of a source pair depends only on the kinds and signs of its
constituents and on the classes of c and d up to sign, and every lattice
constituent of a source label counts alike (`upper_bound` gives the
argument, V+- and Va+- included).  The minimum is taken over one
representative per class, and a bound costs the same at every k.

The constituent rules are stated once, as products on integer codes
(`m1_code`: M(c) is c >= 1, M+- and Mt+- are 0 down to -3):
`m1_products(m, n)` lists the constituents l with N(m, n; l) = 1 and
says whether every M(c) is one as well (only for Mt x Mt); `m1_fusion`
reads it through `m1_code`.  `upper_bound` counts each source pair's
products in the target: it reads each label's window-1 constituent
codes, and the target's code set and count of M(c), from one table per
label and k (`_bound_table`), built from `decompose` alone: O(k) entries
per k, none of them through the engine.

The bound is sound but not sharp: 24k + 100 zeros of the full table have
bound >= 1 (counted at k = 1..6).  Six are the position rotations of the
matched-sign half-shift triples against the odd lattice piece, listed by
`bound_blind_zeros`.  Six more are untwisted, such as (V+, Va+, Va-):
Va+ and Va- have the same Heisenberg-orbifold constituents.  The other
24k + 88 have two twisted labels, whose twisted sector the restriction to
constituents forgets.

`direct_witness` names the intertwiner (`IntertwinerSpec`) that covers a
triple from its labels alone; `intertwine` evaluates it.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from typing import NamedTuple

from . import labels as lb
from .labels import (
    M1Label,
    ModuleLabel,
    all_labels,
    contragredient,
    half,
    m_lam,
    m_tw,
    m_vac,
    normalize_lam_index,
    quasi_admissible,
    u_minus,
)


class EngineInconsistencyError(RuntimeError):
    """The symmetry closure of the generating tables and the transcribed
    full table disagree; carries the offending triples."""

    def __init__(self, missing, extra):
        self.missing = sorted(missing)
        self.extra = sorted(extra)
        msg = []
        if missing:
            msg.append(f"{len(missing)} closure triples missing from the table")
        if extra:
            msg.append(f"{len(extra)} table triples not generated by closure")
        sample = (self.missing + self.extra)[:5]
        detail = "; ".join(t1.code + "," + t2.code + "," + t3.code for t1, t2, t3 in sample)
        super().__init__("; ".join(msg) + f" (e.g. {detail})")


# Literal-source divergences resolved during transcription; parsed by the
# CLI report, asserted stable by the tests.
TRANSCRIPTION_NOTES = (
    "generating table, lattice-coset case: the printed first pair family "
    "reads (V+-,V+-); symmetry closure forces (V+-,Vl<r>) and that "
    "correction is transcribed",
    "full table, lattice-coset case: the printed pair family (V+-,Vl<r>) "
    "appears twice; transcribed once",
    "pair families with target index r+s = 0 mod 2k expand to both V+ and "
    "V-, and with target index k mod 2k to both Va+ and Va-, matching the "
    "eigenspace split of the reducible coset",
)

Triple = tuple[ModuleLabel, ModuleLabel, ModuleLabel]
IndexTriple = tuple[int, int, int]


class _Alphabet(NamedTuple):
    """The labels of one k as their positions in `all_labels(k)`, with
    index-valued constructors under the label constructors' names."""

    k: int
    index: dict[ModuleLabel, int]
    duals: list[int]  # contragredient, position to position
    vp: int
    vm: int
    lam: Callable[[int], int]
    half: Callable[[int], int]
    tw: Callable[[int, int], int]
    dual: Callable[[int], int]


def _alphabet(k: int) -> _Alphabet:
    """Positions in `all_labels(k)`: V+ and V- at 0 and 1, Vl<r> at r + 1,
    Va+ and Va- at k + 1 and k + 2, and VT1+, VT1-, VT2+, VT2- from k + 3."""
    labels = all_labels(k)
    index = {label: i for i, label in enumerate(labels)}
    duals = [index[contragredient(label, k)] for label in labels]
    return _Alphabet(
        k=k,
        index=index,
        duals=duals,
        vp=0,
        vm=1,
        lam=lambda r: r + 1,
        half=lambda e: k + 1 if e > 0 else k + 2,
        tw=lambda i, e: k + 1 + 2 * i + (0 if e > 0 else 1),
        dual=duals.__getitem__,
    )


def _lam_targets(t: int, a: _Alphabet) -> list[int]:
    """Labels carrying the coset of lambda_t: one middle label, or both
    eigenspace labels at the reducible boundary cosets."""
    t0 = t % (2 * a.k)
    if t0 == 0:
        return [a.vp, a.vm]
    if t0 == a.k:
        return [a.half(+1), a.half(-1)]
    return [a.lam(normalize_lam_index(t0, a.k))]


def _untwisted_base(a: _Alphabet) -> set[IndexTriple]:
    """Generating table for triples of untwisted labels."""
    k, vp, vm, lam, half, dual = a.k, a.vp, a.vm, a.lam, a.half, a.dual
    out: set[IndexTriple] = set()
    untw = [vp, vm] + [lam(r) for r in range(1, k)] + [half(+1), half(-1)]
    for w in untw:
        out.add((vp, w, w))
    # first label the odd lattice piece
    out |= {(vm, vp, vm), (vm, vm, vp), (vm, half(+1), half(-1)), (vm, half(-1), half(+1))}
    for r in range(1, k):
        out.add((vm, lam(r), lam(r)))
    # first label a half-shift eigenspace
    for e in (+1, -1):
        va = half(e)
        out |= {(va, vp, half(e)), (va, vm, half(-e))}
        for s in (+1, -1):
            out.add((va, dual(half(s)), vp if e * s > 0 else vm))
        for r in range(1, k):
            out.add((va, lam(r), lam(k - r)))
    # first label a middle coset
    for r in range(1, k):
        w1 = lam(r)
        out |= {(w1, vp, lam(r)), (w1, vm, lam(r))}
        for e in (+1, -1):
            out.add((w1, half(e), lam(k - r)))
            out.add((w1, lam(k - r), half(e)))
        for s in range(1, k):
            for t in (r + s, r - s):
                for target in _lam_targets(t, a):
                    out.add((w1, lam(s), target))
    return out


def _twisted_base(a: _Alphabet) -> set[IndexTriple]:
    """Generating table for twisted first label; the four cases are indexed
    by the contragredients of the twisted labels."""
    k, vp, vm, lam, half, tw, dual = a.k, a.vp, a.vm, a.lam, a.half, a.tw, a.dual
    out: set[IndexTriple] = set()
    for i in (1, 2):
        for e in (+1, -1):
            w1 = dual(tw(i, e))
            # lattice-eigenspace pairs
            out.add((w1, vp, dual(tw(i, e))))
            out.add((w1, vm, dual(tw(i, -e))))
            out.add((w1, tw(i, e), vp))
            out.add((w1, tw(i, -e), vm))
            # half-shift pairs; sector 2 flips the matching sign
            matched = e if i == 1 else -e
            out.add((w1, half(+1), tw(i, matched)))
            out.add((w1, half(-1), tw(i, -matched)))
            out.add((w1, dual(tw(i, matched)), dual(half(+1))))
            out.add((w1, dual(tw(i, -matched)), dual(half(-1))))
            # middle cosets, gated by index parity
            for r in range(1, k):
                j = next(j for j in (1, 2) if quasi_admissible(r, i, j))
                for e2 in (+1, -1):
                    out.add((w1, lam(r), dual(tw(j, e2))))
                    out.add((w1, tw(j, e2), lam(r)))
    return out


def _transcribed_full(a: _Alphabet) -> set[IndexTriple]:
    """The published full table, primes resolved for this k."""
    k, vp, vm, lam, half, tw, dual = a.k, a.vp, a.vm, a.lam, a.half, a.tw, a.dual
    out: set[IndexTriple] = set()
    # identity row, all labels
    for w in a.index.values():
        out.add((vp, w, w))
    # odd lattice piece
    out |= {(vm, vp, vm), (vm, vm, vp), (vm, half(+1), half(-1)), (vm, half(-1), half(+1))}
    for r in range(1, k):
        out.add((vm, lam(r), lam(r)))
    for i in (1, 2):
        for e in (+1, -1):
            out.add((vm, tw(i, e), tw(i, -e)))
    # half-shift eigenspaces
    for e in (+1, -1):
        va = half(e)
        out |= {(va, vp, half(e)), (va, vm, half(-e))}
        for s in (+1, -1):
            out.add((va, dual(half(s)), vp if e * s > 0 else vm))
        for r in range(1, k):
            out.add((va, lam(r), lam(k - r)))
        for e2 in (+1, -1):
            out.add((va, dual(tw(1, e2)), tw(1, e2 * e)))
            out.add((va, dual(tw(2, e2)), tw(2, -e2 * e)))
    # middle cosets
    for r in range(1, k):
        w1 = lam(r)
        out |= {(w1, vp, lam(r)), (w1, vm, lam(r))}
        for e in (+1, -1):
            out.add((w1, half(e), lam(k - r)))
            out.add((w1, lam(k - r), half(e)))
        for s in range(1, k):
            for t in (r + s, r - s):
                for target in _lam_targets(t, a):
                    out.add((w1, lam(s), target))
        for i in (1, 2):
            j = next(j for j in (1, 2) if quasi_admissible(r, i, j))
            for e in (+1, -1):
                for e2 in (+1, -1):
                    out.add((w1, tw(i, e), tw(j, e2)))
    # twisted first label: same shape as the generating table
    out |= _twisted_base(a)
    return out


def _closure(base: set[IndexTriple], dual: list[int]) -> frozenset[IndexTriple]:
    table = set(base)
    frontier = set(base)
    while frontier:
        new: set[IndexTriple] = set()
        for (w1, w2, w3) in frontier:
            for img in ((w2, w1, w3), (w1, dual[w3], dual[w2])):
                if img not in table:
                    new.add(img)
        table |= new
        frontier = new
    return frozenset(table)


class FusionEngine:
    """Queryable fusion table for a fixed k, built by symmetry closure of
    the generating tables and cross-checked against the full transcription
    at construction time.  The table holds label positions in `labels`,
    and `duals` maps each position to its contragredient's."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be a positive integer")
        self.k = k
        a = _alphabet(k)
        self._index, self.duals = a.index, a.duals
        self.labels = list(a.index)
        base = _untwisted_base(a) | _twisted_base(a)
        self.table = _closure(base, a.duals)
        transcribed = _transcribed_full(a)
        self.notes = TRANSCRIPTION_NOTES
        if self.table != transcribed:
            labels = self.labels

            def named(triples):
                return {(labels[i], labels[j], labels[l]) for i, j, l in triples}

            raise EngineInconsistencyError(
                named(self.table - transcribed), named(transcribed - self.table)
            )

    def _position(self, label: ModuleLabel) -> int:
        """Position in `labels` of the label.  A label that is not one of
        them as given is looked up again with its Vl<r> index normalized,
        as `parse_label` does, so the labels that `parse_label` makes are
        found at once."""
        position = self._index.get(label)
        if position is None:
            if label.kind == lb.LAM:
                label = lb.lam(normalize_lam_index(label.r, self.k))
            position = self._index[label]
        return position

    def fusion(self, w1: ModuleLabel, w2: ModuleLabel, w3: ModuleLabel) -> int:
        triple = (self._position(w1), self._position(w2), self._position(w3))
        return 1 if triple in self.table else 0

    def all_triples(self):
        for w1 in self.labels:
            for w2 in self.labels:
                for w3 in self.labels:
                    yield (w1, w2, w3)


@lru_cache(maxsize=None)
def get_engine(k: int) -> FusionEngine:
    return FusionEngine(k)


def fusion(k: int, w1: ModuleLabel, w2: ModuleLabel, w3: ModuleLabel) -> int:
    return get_engine(k).fusion(w1, w2, w3)


# -- decompositions and the restriction bound ------------------------------------


def decompose(label: ModuleLabel, k: int, window: int) -> list[tuple[M1Label, int | None]]:
    """Constituents of the label as (constituent, lattice index) pairs;
    infinite families are listed for |shift| <= window.  Each constituent
    occurs with multiplicity one.

    The constituent M(c) starts at weight c^2/4k, so the window only
    decides how far up the weights the list reaches: window
    isqrt(floor(W/k)) + 1 lists every constituent of weight <= W
    (`verify.decomp_window`), and window 1 holds a representative of every
    residue class mod 2k the label's constituents fill (`upper_bound`)."""
    lb.validate_label(label, k)
    if label.kind == lb.VAC:
        out: list[tuple[M1Label, int | None]] = [(m_vac(label.sign), 0)]
        out += [(m_lam(2 * k * m), 2 * k * m) for m in range(1, window + 1)]
        return out
    if label.kind == lb.LAM:
        return [
            (m_lam(label.r + 2 * k * m), label.r + 2 * k * m)
            for m in range(-window, window + 1)
        ]
    if label.kind == lb.HALF:
        return [(m_lam(k + 2 * k * m), k + 2 * k * m) for m in range(0, window + 1)]
    return [(m_tw(label.sign), None)]


def m1_code(m: M1Label) -> int:
    """The constituent as one int, the form `m1_products` reads: M(c) as
    c >= 1, M+ as 0, M- as -1, Mt+ as -2 and Mt- as -3.  So a code is a
    lattice constituent exactly when it is positive, and the sign of M+-
    and Mt+- is its low bit (code & 1 is 1 for the minus sign)."""
    if m.kind == lb.M_LAM:
        return m.index
    code = 0 if m.kind == lb.M_VAC else -2
    return code if m.sign > 0 else code - 1


_TWISTED = (-2, -3)  # Mt+ and Mt-


def m1_products(m: int, n: int) -> tuple[tuple[int, ...], bool]:
    """The constituent fusion rules as products, on `m1_code` codes: the
    constituents l with N(m, n; l) = 1, as (a finite tuple of their codes
    with no repeat, whether every M(c) is one too).  Every M(c) is a
    product only of Mt x Mt; every other product is finite, and every
    fusion number is 0 or 1.

    M(c) x M(d) gives M(c+d) and M(|c-d|), where M(0), for c = d, is M+
    and M-; M(c) x M+- gives M(c) and M(c) x Mt+- both Mt+ and Mt-.  On
    the other pairs the signs multiply: M+ and Mt+ keep the sign of the
    other side and M- and Mt- flip it, so the product's sign bit is
    (m ^ n) & 1.  M+- keeps the kind of the other side, Mt+- x M+- is
    twisted and Mt+- x Mt+- is M+- (with every M(c))."""
    if m > 0:
        if n > 0:
            if m == n:
                return (2 * m, 0, -1), False
            return (m + n, abs(m - n)), False
        return ((m,) if n >= -1 else _TWISTED), False
    if n > 0:
        return ((n,) if m >= -1 else _TWISTED), False
    sign = (m ^ n) & 1
    if (m >= -1) == (n >= -1):
        return (-sign,), m < -1
    return (-2 - sign,), False


def m1_fusion(m: M1Label, n: M1Label, l: M1Label) -> int:
    """Fusion numbers of the Heisenberg-orbifold constituents, read from
    `m1_products` on their codes (`m1_code`)."""
    finite, every_lattice = m1_products(m1_code(m), m1_code(n))
    code = m1_code(l)
    return 1 if code in finite or (every_lattice and code > 0) else 0


@lru_cache(maxsize=None)
def _bound_table(label: ModuleLabel, k: int) -> tuple[tuple[int, ...], frozenset[int], int]:
    """The label's constituents as `upper_bound` reads them, as `m1_code`
    codes: its window-1 constituents as a source; as a target, its
    window-3 constituents and how many of them are M(c)."""
    target = frozenset(m1_code(l) for l, _ in decompose(label, k, window=3))
    sources = tuple(m1_code(m) for m, _ in decompose(label, k, window=1))
    return sources, target, sum(c > 0 for c in target)


def upper_bound(w1: ModuleLabel, w2: ModuleLabel, w3: ModuleLabel, k: int) -> int:
    """Injectivity bound: minimum over constituent pairs of the summed
    constituent fusion numbers into the target's constituents.

    A pair's sum is the number of its products (`m1_products`) among the
    target's constituents: its finite products found in the target's
    constituent set, plus the target's count of M(c) constituents when
    every M(c) is a product.  The counting runs on every call, on the
    constituents' `m1_code` ints: the sources' code tuples and the
    target's code set and count are read from one table per label and k
    (`_bound_table`), built from `decompose` alone, so a call makes no
    `M1Label`.

    One representative of each residue class is enough.  The lattice
    constituents M(c) of an untwisted label (M(c) = M(-c)) have c in one
    class mod 2k up to sign: +-r for Vl<r>, 0 for V+ and V-, k for Va+
    and Va-.  The target holds every lattice constituent of its class.  A
    pair M(c) x M(d) counts M(c+d) and M(|c-d|), each when its index lies
    in the target's class, except that for c = d, where M(0) is no
    constituent of anything, it counts M+ or M- instead.  Now c = d puts
    c - d in class 0, and the targets of class 0 are exactly V+ and V-,
    which hold M+ and M- respectively; so the c = d count equals the
    count of any c' != d' in the same classes.  The count of a pair with
    M+, M- or a twisted constituent on one side reads at most the class
    of the other side.  Flipping the sign of c or d only swaps c + d and
    c - d up to sign, so every count depends on the classes of c and d up
    to sign alone, and each source label has one such class.  The sources
    are therefore listed with window 1, which gives every label at least
    one lattice representative: M(2k) besides M+- for V+ and V-, M(k)
    and M(3k) for Va+ and Va-, M(r), M(2k-r) and M(2k+r) for Vl<r>.  The
    minimum over them equals the minimum over the whole decomposition, and
    the work is the same at every k.

    The target is listed with window 3.  The listed sources have
    |index| <= 3k, so every index sum c + d is at most 6k, and window 3
    lists every target constituent up to 6k: +-r + 2km for |m| <= 3 for
    Vl<r>, 2km up to 6k for V+ and V-, k + 2km up to 7k for Va+ and Va-.
    So the count of a pair with an untwisted constituent is complete.
    Twisted-by-twisted pairs reach every lattice constituent of the
    target; their bounds (3 or 4 into V+ and V-, 4 into Va+ and Va-, 7
    into Vl<r>) count the target's constituents in window 3.
    """
    sources1 = _bound_table(w1, k)[0]
    sources2 = _bound_table(w2, k)[0]
    _sources, target, lattice_count = _bound_table(w3, k)
    best: int | None = None
    for m in sources1:
        for n in sources2:
            finite, every_lattice = m1_products(m, n)
            total = lattice_count if every_lattice else 0
            for l in finite:
                if l in target:
                    total += 1
            if best is None or total < best:
                best = total
            if best == 0:
                return 0
    return best


def bound_blind_zeros(k: int) -> list[Triple]:
    """The position rotations of the matched-sign half-shift triples against
    the odd lattice piece: fusion zero, restriction bound >= 1."""
    vm = u_minus()
    out: list[Triple] = []
    for e in (+1, -1):
        va = half(e)
        out.append((vm, va, va))
        out.append((va, vm, va))
        out.append((va, contragredient(va, k), vm))
    return out


# -- naming the explicit constructions ---------------------------------------------

# intertwiner kinds
Y_RS = "Y_rs"                  # vertex operator with phase twist
Y_RS_THETA = "Y_rs_theta"      # same, precomposed with theta on the target
TILDE = "tilde_Y"              # twisted, sector maps attached

KINDS = (Y_RS, Y_RS_THETA, TILDE)


class _SpecFields(NamedTuple):
    kind: str
    r: int = 0
    s: int = 0


class IntertwinerSpec(_SpecFields):
    """A named explicit intertwiner: kind plus the lattice coset data.

    r is the coset index of the first module; s of the second (unused by
    the twisted kinds, which read sector data off the vectors).  The
    operator itself is `intertwine.intertwiner_mode`.
    """

    __slots__ = ()

    def __new__(cls, kind: str, r: int = 0, s: int = 0) -> IntertwinerSpec:
        if kind not in KINDS:
            raise ValueError(f"unknown intertwiner kind {kind!r}")
        return super().__new__(cls, kind, r, s)

    @property
    def name(self) -> str:
        if self.kind == Y_RS:
            return f"Y[{self.r},{self.s}]"
        if self.kind == Y_RS_THETA:
            return f"Y[{self.r},{-self.s}]∘theta"
        return f"Ytilde[{self.r}]"


def direct_witness(k: int, triple) -> tuple[IntertwinerSpec, int] | None:
    """The explicit construction covering a triple, if one applies directly,
    chosen from the labels alone: their kinds, the number of twisted labels
    and the lattice cosets of the untwisted ones.

    Returns (spec, target_sign) with target_sign 0 when the target is a
    full lattice coset rather than an eigenspace.  Triples whose first
    label is twisted (reachable only through the fusion symmetries) get
    None, and so do twisted pairs in sectors Ytilde[r1] does not connect.
    `intertwine.witness_vectors` builds the inputs to evaluate the spec on.
    """
    w1, w2, w3 = triple
    if w1.is_twisted:
        return None
    n_twisted = sum(1 for w in triple if w.is_twisted)
    if n_twisted in (1, 3):
        return None  # these fusion rules all vanish; nothing to witness
    r1 = lb.lattice_coset(w1, k)
    if n_twisted == 2:
        if not quasi_admissible(r1, w2.sector, w3.sector):
            return None
        return IntertwinerSpec(TILDE, r1), w3.sign
    r2 = lb.lattice_coset(w2, k)
    r3 = lb.lattice_coset(w3, k)
    sign = w3.sign if w3.kind in (lb.VAC, lb.HALF) else 0
    if (r1 + r2 - r3) % (2 * k) == 0:
        return IntertwinerSpec(Y_RS, r1, r2), sign
    if (r1 - r2 - r3) % (2 * k) == 0:
        return IntertwinerSpec(Y_RS_THETA, r1, r2), sign
    return None
