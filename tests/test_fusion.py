"""The fusion engine: generating-table examples, closure consistency,
decompositions, admissibility, and the restriction bound."""

import hashlib
import importlib
from fractions import Fraction
from functools import partial

import pytest

from orbifold_voa import labels as lb
from orbifold_voa.fusion import (
    EngineInconsistencyError,
    FusionEngine,
    _alphabet,
    _closure,
    _transcribed_full,
    _twisted_base,
    _untwisted_base,
    bound_blind_zeros,
    decompose,
    get_engine,
    m1_fusion,
    m1_products,
    normalize_lam_index,
    upper_bound,
)
from orbifold_voa.fock import graded_dim
from orbifold_voa.labels import contragredient, m_lam, m_tw, m_vac, quasi_admissible, top_weight
from orbifold_voa.ring import RingParams
from orbifold_voa.twisted import psi_map

# the package exports the function `fusion` under the module's name
fusion_module = importlib.import_module("orbifold_voa.fusion")


def _brute_bound(w1, w2, w3, k, window=None):
    """The restriction bound by brute force over source windows of `window`
    (default 2k+2): the oracle for `upper_bound`.  Window 2, which lists two
    representatives of every residue class, is a second oracle that stays
    cheap at larger k."""
    if window is None:
        window = 2 * k + 2
    dec1 = decompose(w1, k, window=window)
    dec2 = decompose(w2, k, window=window)
    max_idx = max(
        (abs(c) for _, c in dec1 + dec2 if c is not None), default=0
    )
    win3 = max_idx // k + 3
    dec3 = decompose(w3, k, window=win3)
    best = None
    for m, _ in dec1:
        for n, _ in dec2:
            total = sum(m1_fusion(m, n, l) for l, _ in dec3)
            if best is None or total < best:
                best = total
            if best == 0:
                return 0
    return best if best is not None else 0


@pytest.mark.parametrize("k", range(1, 7))
def test_engine_builds_consistently(k):
    a = _alphabet(k)
    eng = FusionEngine(k)
    assert eng.table == _closure(_untwisted_base(a) | _twisted_base(a), a.duals)
    assert eng.table == _transcribed_full(a)
    assert len(eng.labels) == k + 7


def test_inconsistency_is_loud():
    a = _alphabet(2)
    # the identity triple is a symmetry-orbit singleton, so dropping it from
    # the generating set cannot be healed by closure
    base = _untwisted_base(a) | _twisted_base(a)
    victim = (a.index[lb.u_plus()],) * 3
    assert victim in base
    base.discard(victim)
    closed = _closure(base, a.duals)
    transcribed = _transcribed_full(a)
    assert closed != transcribed
    labels = lb.all_labels(2)
    missing = {tuple(labels[i] for i in t) for t in transcribed - closed}
    with pytest.raises(EngineInconsistencyError):
        raise EngineInconsistencyError(missing, set())


def test_engine_refuses_a_generating_table_that_drops_a_triple(monkeypatch):
    def dropping(a):
        base = _untwisted_base(a)
        base.discard((a.vp, a.vp, a.vp))
        return base

    monkeypatch.setattr(fusion_module, "_untwisted_base", dropping)
    with pytest.raises(EngineInconsistencyError) as info:
        FusionEngine(2)
    assert "V+,V+,V+" in str(info.value)
    assert info.value.missing == []
    assert info.value.extra == [(lb.u_plus(), lb.u_plus(), lb.u_plus())]


@pytest.mark.parametrize("k", range(1, 13))
def test_alphabet_agrees_with_the_labels(k):
    a = _alphabet(k)
    labels = lb.all_labels(k)
    assert a.k == k
    assert a.index == {w: i for i, w in enumerate(labels)}
    assert labels[a.vp] == lb.u_plus()
    assert labels[a.vm] == lb.u_minus()
    assert [labels[a.lam(r)] for r in range(1, k)] == [lb.lam(r) for r in range(1, k)]
    for e in (+1, -1):
        assert labels[a.half(e)] == lb.half(e)
        for i in (1, 2):
            assert labels[a.tw(i, e)] == lb.tw(i, e)
    assert len(a.duals) == k + 7
    for i, w in enumerate(labels):
        assert labels[a.duals[i]] == contragredient(w, k)
        assert a.dual(i) == a.duals[i]
    assert get_engine(k).labels == labels


# sha256 of the sorted "w1,w2,w3" codes of the nonzero triples, one per line,
# and their count; computed from the label-level build this engine replaced
TABLE_DIGESTS = {
    1: (64, "f8371492a2ff4c315e14bd08f1599227f2060f12c421ab1cd9a64449b881a1ec"),
    2: (100, "523a403590f6c3eb4eedf50251c009434b81c171b0815d4096d935de993102d0"),
    3: (140, "af846a1239a9a1d050e8c9672d3803dcdbdfa0aaf61c9048563f96cb5b8acf1d"),
    4: (184, "6b35ab81b509d97a93950bcb3a9fcd99959c3f00e2c4100ed6b319200c0810e2"),
    5: (232, "124dffbe075c023760d2a72b1791ea65652ccf12d79a3e34c50c3f44e67ffb95"),
    6: (284, "cb6e250d1472ea2eb3868b69234323c9e7cc65554384a3a84b1b6583f1b29bf3"),
    7: (340, "11369572fc30de51adb01d5192a82ed5bb4ba1b391a8bd48e002ecc367a1f4c9"),
    8: (400, "0b7382dfc825c7fce11a31a7ebe66bf312394985522cd9435f3916f67d05baca"),
    9: (464, "39ebb5b9cb06e6ebc8701021b9302ba6cdac5f78770e3092593e006467c20438"),
    10: (532, "5e1e58cae717b038b58810f841fd86b189d9450794b992dff4ac5e9a5945119a"),
    11: (604, "4a856df5ed96472bfd9d619d177bb700a6b433367e97dac18d1551c03c1397c6"),
    12: (680, "040e5178275ca0b989c987e2ed5fd66dc6c0966d4d5232a41309f04380e26760"),
    50: (6532, "e542d9e99880b75be761158732c01c143870c6abb9859a7eee6442893865567d"),
}


@pytest.mark.parametrize("k", sorted(TABLE_DIGESTS))
def test_table_matches_its_pinned_digest(k):
    eng = get_engine(k)
    codes = sorted(
        f"{w1.code},{w2.code},{w3.code}"
        for (w1, w2, w3) in eng.all_triples()
        if eng.fusion(w1, w2, w3)
    )
    digest = hashlib.sha256("\n".join(codes).encode()).hexdigest()
    assert (len(codes), digest) == TABLE_DIGESTS[k]


def test_m1_fusion_examples():
    mp, mm = m_vac(+1), m_vac(-1)
    tp, tm = m_tw(+1), m_tw(-1)
    # identity-like row
    for n in (mp, mm, m_lam(3), tp, tm):
        for l in (mp, mm, m_lam(3), tp, tm):
            assert m1_fusion(mp, n, l) == (1 if n == l else 0)
    # twisted pair against a coset constituent
    assert m1_fusion(m_lam(1), tp, tm) == 1
    assert m1_fusion(m_lam(1), tp, tp) == 1
    # sign-flip rule of the odd piece on twisted constituents
    assert m1_fusion(mm, tp, tp) == 0
    assert m1_fusion(mm, tp, tm) == 1
    # index arithmetic of coset triples
    assert m1_fusion(m_lam(2), m_lam(3), m_lam(5)) == 1
    assert m1_fusion(m_lam(2), m_lam(3), m_lam(1)) == 1
    assert m1_fusion(m_lam(2), m_lam(3), m_lam(4)) == 0
    assert m1_fusion(m_lam(2), m_lam(2), m_lam(4)) == 1
    assert m1_fusion(m_lam(2), m_lam(2), m_lam(1)) == 0


def _m1_fusion_oracle(m, n, l):
    """The constituent fusion rules as a predicate, written out case by case
    as they stood before `m1_products`: the oracle for the product form."""
    if m.kind == lb.M_VAC:
        if m.sign > 0:
            return 1 if n == l else 0
        if n.kind == lb.M_VAC and l.kind == lb.M_VAC:
            return 1 if n.sign != l.sign else 0
        if n.kind == lb.M_TW and l.kind == lb.M_TW:
            return 1 if n.sign != l.sign else 0
        if n.kind == lb.M_LAM and l.kind == lb.M_LAM:
            return 1 if n.index == l.index else 0
        return 0
    if m.kind == lb.M_LAM:
        c = m.index
        if n.kind == lb.M_VAC and l.kind == lb.M_LAM:
            return 1 if l.index == c else 0
        if n.kind == lb.M_LAM and l.kind == lb.M_VAC:
            return 1 if n.index == c else 0
        if n.kind == lb.M_LAM and l.kind == lb.M_LAM:
            return 1 if l.index in (c + n.index, abs(c - n.index)) else 0
        if n.kind == lb.M_TW and l.kind == lb.M_TW:
            return 1
        return 0
    # twisted first constituent
    if n.kind == lb.M_VAC and l.kind == lb.M_TW:
        return 1 if (n.sign == l.sign) == (m.sign > 0) else 0
    if n.kind == lb.M_TW and l.kind == lb.M_VAC:
        return 1 if (n.sign == l.sign) == (m.sign > 0) else 0
    if n.kind == lb.M_LAM and l.kind == lb.M_TW:
        return 1
    if n.kind == lb.M_TW and l.kind == lb.M_LAM:
        return 1
    return 0


# M+-, Mt+- and M(c) for c <= 40
CONSTITUENTS = [m_vac(+1), m_vac(-1), m_tw(+1), m_tw(-1)] + [m_lam(c) for c in range(1, 41)]


def test_m1_fusion_matches_the_predicate_oracle():
    for m in CONSTITUENTS:
        for n in CONSTITUENTS:
            for l in CONSTITUENTS:
                assert m1_fusion(m, n, l) == _m1_fusion_oracle(m, n, l), (m, n, l)


def test_no_product_list_repeats_a_constituent():
    for m in CONSTITUENTS:
        for n in CONSTITUENTS:
            finite, every_lattice = m1_products(m, n)
            assert len(set(finite)) == len(finite), (m, n)
            # every M(c) is a product of the twisted pairs alone
            assert every_lattice == (m.kind == n.kind == lb.M_TW)


def test_decompose_examples():
    # single twisted constituent
    assert decompose(lb.tw(1, -1), 2, window=2) == [(m_tw(-1), None)]
    # vacuum-type: eigenpiece plus the lattice family
    got = decompose(lb.u_plus(), 2, window=2)
    assert got == [(m_vac(+1), 0), (m_lam(4), 4), (m_lam(8), 8)]
    # middle coset at k=2: indices 1-4m, classes |...|
    got = decompose(lb.lam(1), 2, window=1)
    assert got == [(m_lam(3), -3), (m_lam(1), 1), (m_lam(5), 5)]
    # half-shift at k=2, window 2: indices 2, 6, 10
    got = decompose(lb.half(+1), 2, window=2)
    assert got == [(m_lam(2), 2), (m_lam(6), 6), (m_lam(10), 10)]


def test_quasi_admissible():
    assert not quasi_admissible(0, 1, 2)
    assert quasi_admissible(0, 1, 1)
    assert quasi_admissible(1, 1, 2)
    assert not quasi_admissible(1, 1, 1)
    assert quasi_admissible(2, 2, 2)


@pytest.mark.parametrize("k", range(1, 7))
def test_quasi_admissible_matches_the_sector_map(k):
    """The one sector rule agrees with the operator: Ytilde[r] maps sector
    i into sector j exactly when entry (j, i) of `psi_map` is nonzero."""
    params = RingParams(k)
    for r in range(-4 * k, 4 * k + 1):
        matrix = psi_map(params, r).matrix
        for i in (1, 2):
            for j in (1, 2):
                assert quasi_admissible(r, i, j) == (matrix[j - 1][i - 1] != 0), (r, i, j)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_fusion_symmetries(k):
    eng = get_engine(k)
    for (w1, w2, w3) in eng.all_triples():
        f = eng.fusion(w1, w2, w3)
        assert f == eng.fusion(w2, w1, w3)
        assert f == eng.fusion(w1, contragredient(w3, k), contragredient(w2, k))


@pytest.mark.parametrize("k", (1, 2, 3))
def test_identity_row_and_twisted_parity(k):
    eng = get_engine(k)
    for (w1, w2, w3) in eng.all_triples():
        f = eng.fusion(w1, w2, w3)
        if w1 == lb.u_plus():
            assert f == (1 if w2 == w3 else 0)
        n_tw = sum(1 for w in (w1, w2, w3) if w.is_twisted)
        if n_tw in (1, 3):
            assert f == 0


@pytest.mark.parametrize("k", (2, 3))
def test_admissibility_gates_nonzero_twisted_rules(k):
    eng = get_engine(k)
    for r in range(1, k):
        for i in (1, 2):
            for j in (1, 2):
                for e1 in (1, -1):
                    for e2 in (1, -1):
                        f = eng.fusion(lb.lam(r), lb.tw(i, e1), lb.tw(j, e2))
                        if f:
                            assert quasi_admissible(r, i, j)


def test_fusion_contract_examples():
    eng2 = get_engine(2)
    for w in eng2.labels:
        assert eng2.fusion(lb.u_plus(), w, w) == 1
    assert eng2.fusion(lb.u_minus(), lb.half(+1), lb.half(+1)) == 0
    # middle coset against like twisted sectors wants even index
    assert eng2.fusion(lb.lam(1), lb.tw(1, +1), lb.tw(1, +1)) == 0
    eng3 = get_engine(3)
    assert eng3.fusion(lb.lam(2), lb.tw(1, +1), lb.tw(1, +1)) == 1
    assert eng3.fusion(lb.lam(1), lb.tw(1, +1), lb.tw(2, +1)) == 1


def test_lambda_normalization():
    eng = get_engine(2)
    # 2k-periodicity and reflection
    assert eng.fusion(lb.lam(5), lb.u_plus(), lb.lam(1)) == 1  # 5 = 1 + 2k
    assert eng.fusion(lb.lam(3), lb.u_plus(), lb.lam(1)) == 1  # 3 -> 2k-3 = 1
    with pytest.raises(ValueError):
        eng.fusion(lb.lam(4), lb.u_plus(), lb.u_plus())  # lands on the lattice
    with pytest.raises(ValueError):
        eng.fusion(lb.lam(2), lb.u_plus(), lb.u_plus())  # half-shift coset
    with pytest.raises(ValueError):
        normalize_lam_index(0, 2)
    # out-of-range indices anywhere in the triple, as parse_label reads them
    assert fusion_module.fusion(3, lb.lam(5), lb.lam(4), lb.lam(1)) == 1


# the fields of labels that are none of the k+7, and what each gets wrong;
# field tuples rather than labels, since no such label can be made
MALFORMED = {
    "sector 3 (prints VT3+)": (lb.TW, +1, 0, 3),
    "twisted sign 0": (lb.TW, 0, 0, 1),
    "half-shift sign 0 (prints Va-)": (lb.HALF, 0, 0, 0),
    "vacuum sign 2": (lb.VAC, 2, 0, 0),
    "index on V+": (lb.VAC, +1, 2, 0),
    "sector on Va-": (lb.HALF, -1, 0, 1),
    "sign on Vl1": (lb.LAM, +1, 1, 0),
    "sector on Vl1": (lb.LAM, 0, 1, 2),
    "no index on Vl": (lb.LAM, 0, 0, 0),
    "unknown kind": ("cusp", +1, 0, 0),
}


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("fields", MALFORMED.values(), ids=MALFORMED.keys())
def test_a_malformed_label_is_refused_everywhere(k, fields):
    """A label that is none of the k+7 cannot be made, so no entry point
    can print, count or fuse it as some other label."""
    assert fields not in {(w.kind, w.sign, w.r, w.sector) for w in lb.all_labels(k)}
    with pytest.raises(ValueError):
        lb.ModuleLabel(*fields)


@pytest.mark.parametrize(
    "make",
    (
        lambda: lb.ModuleLabel(lb.TW, +1, 0, 3),
        lambda: lb.tw(1, +1)._replace(sector=3),
        lambda: lb.ModuleLabel._make((lb.TW, +1, 0, 3)),
    ),
    ids=("call", "_replace", "_make"),
)
def test_every_way_to_make_a_label_checks_it(make):
    """A named tuple's own `_make` and `_replace` skip `__new__`; the
    label's check runs on all three."""
    with pytest.raises(ValueError, match="none of the label forms"):
        make()


def test_label_reprs_are_pinned():
    assert repr(lb.tw(1, +1)) == "ModuleLabel(kind='tw', sign=1, r=0, sector=1)"
    assert repr(lb.lam(3)) == "ModuleLabel(kind='lam', sign=0, r=3, sector=0)"
    assert repr(lb.u_minus()) == "ModuleLabel(kind='vac', sign=-1, r=0, sector=0)"
    assert repr(m_lam(4)) == "M1Label(kind='m_lam', sign=0, index=4)"
    assert repr(m_tw(-1)) == "M1Label(kind='m_tw', sign=-1, index=0)"


# sorted(all_labels(k)) as codes: labels order as their field tuples
SORTED_CODES = {
    1: "Va- Va+ VT1- VT2- VT1+ VT2+ V- V+",
    2: "Va- Va+ Vl1 VT1- VT2- VT1+ VT2+ V- V+",
    3: "Va- Va+ Vl1 Vl2 VT1- VT2- VT1+ VT2+ V- V+",
    4: "Va- Va+ Vl1 Vl2 Vl3 VT1- VT2- VT1+ VT2+ V- V+",
    5: "Va- Va+ Vl1 Vl2 Vl3 Vl4 VT1- VT2- VT1+ VT2+ V- V+",
    6: "Va- Va+ Vl1 Vl2 Vl3 Vl4 Vl5 VT1- VT2- VT1+ VT2+ V- V+",
}


@pytest.mark.parametrize("k", sorted(SORTED_CODES))
def test_labels_order_and_hash_as_their_field_tuples(k):
    labels = lb.all_labels(k)
    assert " ".join(w.code for w in sorted(labels)) == SORTED_CODES[k]
    for w in labels:
        assert hash(w) == hash(tuple(w))
        for m, _ in decompose(w, k, window=1):
            assert hash(m) == hash(tuple(m))


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("m", (1, 2, -1), ids=("k", "2k", "-k"))
def test_a_boundary_coset_index_is_refused_everywhere(k, m):
    """Vl<k>, Vl<2k> and Vl<-k> can be made but are none of the k+7 labels:
    every entry point that reads a label refuses them, in any position of
    a triple, rather than fusing or counting them as a middle coset."""
    bad = lb.lam(m * k)
    good = lb.u_plus()
    triples = ((bad, good, good), (good, bad, good), (good, good, bad))
    calls = [partial(fusion_module.fusion, k, *t) for t in triples]
    calls += [partial(upper_bound, *t, k) for t in triples]
    calls += [
        partial(graded_dim, k, bad, Fraction(1, 16), 1),
        partial(graded_dim, k, bad, Fraction(k, 4), 1),
        partial(decompose, bad, k, 1),
        partial(contragredient, bad, k),
        partial(top_weight, bad, k),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("k", range(1, 7))
def test_every_code_parses_to_its_label(k):
    for w in lb.all_labels(k):
        assert lb.parse_label(w.code, k) == w


@pytest.mark.parametrize("k", range(1, 11))
def test_bound_soundness(k):
    eng = get_engine(k)
    for (w1, w2, w3) in eng.all_triples():
        assert eng.fusion(w1, w2, w3) <= upper_bound(w1, w2, w3, k)


@pytest.mark.parametrize("k", range(1, 7))
def test_bound_blind_zeros(k):
    eng = get_engine(k)
    zeros = bound_blind_zeros(k)
    assert len(zeros) == 6  # three rotations for each matched sign
    for t in zeros:
        assert eng.fusion(*t) == 0
        assert upper_bound(*t, k) >= 1
    # every zero the bound cannot see, split as the fusion.py docstring states
    unseen = [
        t for t in eng.all_triples() if eng.fusion(*t) == 0 and upper_bound(*t, k) >= 1
    ]
    assert len(unseen) == 24 * k + 100
    assert set(zeros) <= set(unseen)
    twisted = [t for t in unseen if sum(w.is_twisted for w in t) == 2]
    assert len(twisted) == 24 * k + 88
    assert len(unseen) - len(twisted) - len(zeros) == 6


def test_bound_examples():
    k = 2
    assert upper_bound(lb.tw(1, +1), lb.tw(1, +1), lb.tw(1, +1), k) == 0
    for w in get_engine(k).labels:
        assert upper_bound(lb.u_plus(), w, w, k) >= 1
    assert upper_bound(lb.u_minus(), lb.half(+1), lb.half(+1), k) == 1


@pytest.mark.parametrize("k", range(1, 7))
def test_bound_matches_brute_force(k):
    for (w1, w2, w3) in get_engine(k).all_triples():
        assert upper_bound(w1, w2, w3, k) == _brute_bound(w1, w2, w3, k)


@pytest.mark.parametrize("k", (*range(7, 13), 20))  # 20: the bench query's largest k
def test_bound_matches_two_representatives_per_class(k):
    for (w1, w2, w3) in get_engine(k).all_triples():
        assert upper_bound(w1, w2, w3, k) == _brute_bound(w1, w2, w3, k, window=2)


def test_bound_work_is_constant_in_k(monkeypatch):
    calls = []

    def counting(m, n):
        calls.append(None)
        return m1_products(m, n)

    monkeypatch.setattr(fusion_module, "m1_products", counting)

    def count(triple, k):
        calls.clear()
        upper_bound(*triple, k)
        return len(calls)

    # nonzero bounds, so no early exit; the first is the costliest kind
    triples = [
        (lb.lam(1), lb.lam(2), lb.lam(3)),
        (lb.half(+1), lb.half(+1), lb.u_plus()),
        (lb.u_minus(), lb.half(+1), lb.half(+1)),
        (lb.tw(1, +1), lb.tw(2, -1), lb.lam(1)),
    ]
    for triple in triples:
        n20 = count(triple, 20)
        assert 0 < n20 <= 9  # 3 x 3 source pairs
        assert count(triple, 200) == n20


def test_bound_table_is_built_once_per_label_and_builds_no_engine(monkeypatch):
    """The one constituent table of `upper_bound` comes from `decompose`
    alone, once per (label, k): a triple seen before makes no `decompose`
    list, and no call builds the fusion engine."""
    made = []

    def counting(label, k, window):
        made.append(label)
        return decompose(label, k, window)

    def no_engine(k):
        raise AssertionError("upper_bound built the fusion engine")

    monkeypatch.setattr(fusion_module, "decompose", counting)
    monkeypatch.setattr(fusion_module, "FusionEngine", no_engine)
    fusion_module._bound_table.cache_clear()
    k = 20
    labels = lb.all_labels(k)
    first = [upper_bound(w1, w2, w3, k) for w1 in labels for w2 in labels for w3 in labels]
    assert made
    made.clear()
    again = [upper_bound(w1, w2, w3, k) for w1 in labels for w2 in labels for w3 in labels]
    assert again == first
    assert made == []


@pytest.mark.parametrize("k", (1, 2, 8, 50))
def test_twisted_pair_bounds_count_the_fixed_window(k):
    twisted = [lb.tw(i, e) for i in (1, 2) for e in (+1, -1)]
    for t1 in twisted:
        for t2 in twisted:
            for s in (+1, -1):
                vac = lb.u_plus() if s > 0 else lb.u_minus()
                matched = (t2.sign == s) == (t1.sign > 0)
                assert upper_bound(t1, t2, vac, k) == (4 if matched else 3)
                assert upper_bound(t1, t2, lb.half(s), k) == 4
            for r in range(1, min(k, 4)):
                assert upper_bound(t1, t2, lb.lam(r), k) == 7
            for t3 in twisted:
                assert upper_bound(t1, t2, t3, k) == 0
