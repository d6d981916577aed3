"""Labels for the irreducible modules of the orbifold algebra and of its
charge-zero Heisenberg subalgebra.

For a fixed k there are k+7 orbifold labels: the two eigenspace pieces of
the lattice algebra itself (V+ / V-), the k-1 middle lattice cosets
Vl<r> for 1 <= r <= k-1, the two half-shift eigenspaces Va+/Va-, and the
four twisted pieces VT1+/VT1-/VT2+/VT2-.  CLI spelling matches the label
codes exactly.

Two rules that the fusion table reads are label data too: the
contragredient pairing (`contragredient`) and the sector-parity rule of
the twisted intertwiners (`quasi_admissible`).  This module imports no
other module of the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

# label kinds
VAC = "vac"      # V+ / V-
LAM = "lam"      # Vl<r>
HALF = "half"    # Va+ / Va-
TW = "tw"        # VT<sector><sign>

# (kind, sign, sector) of the nine label forms; Vl<r> is one form for every r
_FORMS = frozenset(
    [(VAC, +1, 0), (VAC, -1, 0), (LAM, 0, 0), (HALF, +1, 0), (HALF, -1, 0)]
    + [(TW, e, i) for i in (1, 2) for e in (+1, -1)]
)


class _LabelFields(NamedTuple):
    kind: str
    sign: int = 0     # +1 / -1 for vac, half, tw; 0 for lam
    r: int = 0        # 1 <= r <= k-1 for lam
    sector: int = 0   # 1 or 2 for tw


class ModuleLabel(_LabelFields):
    """A label as a named tuple of its fields, so that hashing, equality and
    ordering are those of the field tuple and run in C."""

    __slots__ = ()

    def __new__(cls, kind: str, sign: int = 0, r: int = 0, sector: int = 0) -> ModuleLabel:
        # refuse all but the nine forms; `validate_label` checks r against k
        self = super().__new__(cls, kind, sign, r, sector)
        if (kind, sign, sector) not in _FORMS or (kind == LAM) != (r != 0):
            raise ValueError(f"{self!r} is none of the label forms")
        return self

    @classmethod
    def _make(cls, iterable) -> ModuleLabel:
        # the named tuple's own `_make`, which `_replace` calls, skips `__new__`
        return cls(*iterable)

    @property
    def is_twisted(self) -> bool:
        return self.kind == TW

    @property
    def code(self) -> str:
        s = "+" if self.sign > 0 else "-"
        if self.kind == VAC:
            return f"V{s}"
        if self.kind == LAM:
            return f"Vl{self.r}"
        if self.kind == HALF:
            return f"Va{s}"
        return f"VT{self.sector}{s}"

    def __str__(self) -> str:
        return self.code


def u_plus() -> ModuleLabel:
    return ModuleLabel(VAC, +1)


def u_minus() -> ModuleLabel:
    return ModuleLabel(VAC, -1)


def lam(r: int) -> ModuleLabel:
    return ModuleLabel(LAM, 0, r)


def half(sign: int) -> ModuleLabel:
    return ModuleLabel(HALF, sign)


def tw(sector: int, sign: int) -> ModuleLabel:
    return ModuleLabel(TW, sign, 0, sector)


def all_labels(k: int) -> list[ModuleLabel]:
    """The k+7 irreducible labels, in deterministic order."""
    out = [u_plus(), u_minus()]
    out += [lam(r) for r in range(1, k)]
    out += [half(+1), half(-1)]
    out += [tw(1, +1), tw(1, -1), tw(2, +1), tw(2, -1)]
    return out


@lru_cache(maxsize=None)
def _by_code(k: int) -> dict[str, ModuleLabel]:
    """The k+7 labels by their canonical codes."""
    return {w.code: w for w in all_labels(k)}


def validate_label(label: ModuleLabel, k: int) -> None:
    """Refuse a Vl<r> whose index is outside 1..k-1, which makes it none of
    the k+7 labels; every other malformed label fails when it is made."""
    if label.kind == LAM and not 0 < label.r < k:
        raise ValueError(f"{label!r} is none of the {k + 7} labels for k={k}")


def has_top_vector(label: ModuleLabel, k: int) -> bool:
    """Whether one vector generates the labelled module's top level: every
    label but V- at k=1, whose top level is two-dimensional."""
    return not (k == 1 and label == u_minus())


def normalize_lam_index(r: int, k: int) -> int:
    """Reduce a raw lattice-coset index into [1, k-1] via the lattice shift
    and the reflection identifying opposite cosets; the two reducible
    boundary cosets are rejected with a redirect to their eigenspace
    labels."""
    r0 = r % (2 * k)
    if r0 > k:
        r0 = 2 * k - r0
    if r0 == 0:
        raise ValueError(
            f"index {r} lands on the lattice itself; choose the eigenspace "
            "label V+ or V- explicitly"
        )
    if r0 == k:
        raise ValueError(
            f"index {r} lands on the half-shift coset; choose Va+ or Va- "
            "explicitly"
        )
    return r0


def parse_label(text: str, k: int) -> ModuleLabel:
    """Parse the CLI spelling V+ V- Vl<r> Va+ Va- VT1+ VT1- VT2+ VT2-.
    Out-of-range coset indices are normalized; boundary cosets rejected."""
    text = text.strip()
    label = _by_code(k).get(text)
    if label is not None:
        return label
    if text.startswith("Vl"):
        try:
            r = int(text[2:])
        except ValueError:
            raise ValueError(f"bad lattice-coset label {text!r}") from None
        return lam(normalize_lam_index(r, k))
    raise ValueError(f"unknown module label {text!r}")


def lattice_coset(label: ModuleLabel, k: int) -> int:
    """Lattice index coset (mod 2k) of an untwisted label's support."""
    if label.kind == VAC:
        return 0
    if label.kind == LAM:
        return label.r
    if label.kind == HALF:
        return k
    raise ValueError(f"{label.code} is twisted and has no lattice coset")


def top_weight(label: ModuleLabel, k: int) -> Fraction:
    """Lowest conformal weight of the labelled module."""
    validate_label(label, k)
    if label.kind == VAC:
        return Fraction(0) if label.sign > 0 else Fraction(1)
    if label.kind == LAM:
        return Fraction(label.r * label.r, 4 * k)
    if label.kind == HALF:
        return Fraction(k, 4)
    return Fraction(1, 16) if label.sign > 0 else Fraction(9, 16)


def contragredient(label: ModuleLabel, k: int) -> ModuleLabel:
    """Dual-module correspondence: the identity for even k; for odd k the
    half-shift signs flip and the two twisted sectors swap."""
    validate_label(label, k)
    if k % 2 == 0:
        return label
    if label.kind == HALF:
        return half(-label.sign)
    if label.kind == TW:
        return tw(3 - label.sector, label.sign)
    return label


def quasi_admissible(r: int, i: int, j: int) -> bool:
    """Parity gate for the twisted intertwiners: the sign (-1)^(r+d_ij+1)
    must be +1: Ytilde[r] keeps the sector for even r and swaps it for odd r
    (`twisted.psi_map`).  The tables and `direct_witness` read it here."""
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError("sectors must be 1 or 2")
    return (r + (1 if i == j else 0) + 1) % 2 == 0


# -- labels for the Heisenberg-orbifold constituents ---------------------------

M_VAC = "m_vac"   # M+ / M-
M_LAM = "m_lam"   # M(lambda), classed by |lattice index| > 0
M_TW = "m_tw"     # Mt+ / Mt-


class M1Label(NamedTuple):
    kind: str
    sign: int = 0     # +1 / -1 for m_vac, m_tw
    index: int = 0    # c > 0 for m_lam, meaning the class of lambda_c

    @property
    def code(self) -> str:
        s = "+" if self.sign > 0 else "-"
        if self.kind == M_VAC:
            return f"M{s}"
        if self.kind == M_LAM:
            return f"M({self.index})"
        return f"Mt{s}"

    def norm(self, k: int) -> Fraction:
        """Squared length of the indexing lattice vector (0 for vac/tw)."""
        if self.kind == M_LAM:
            return Fraction(self.index * self.index, 2 * k)
        return Fraction(0)

    def __str__(self) -> str:
        return self.code


def m_vac(sign: int) -> M1Label:
    return M1Label(M_VAC, sign)


def m_lam(index: int) -> M1Label:
    index = abs(index)
    if index == 0:
        raise ValueError("M(lambda) requires a nonzero lattice index")
    return M1Label(M_LAM, 0, index)


def m_tw(sign: int) -> M1Label:
    return M1Label(M_TW, sign)
