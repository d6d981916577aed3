"""The fusion engine: generating-table examples, closure consistency,
decompositions, admissibility, and the restriction bound."""

import hashlib
import importlib

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
    normalize_lam_index,
    quasi_admissible,
    upper_bound,
)
from orbifold_voa.labels import m_lam, m_tw, m_vac
from orbifold_voa.ring import RingParams
from orbifold_voa.twisted import psi_map
from orbifold_voa.zhu import contragredient

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


@pytest.mark.parametrize("k", range(7, 13))
def test_bound_matches_two_representatives_per_class(k):
    for (w1, w2, w3) in get_engine(k).all_triples():
        assert upper_bound(w1, w2, w3, k) == _brute_bound(w1, w2, w3, k, window=2)


def test_bound_work_is_constant_in_k(monkeypatch):
    calls = []

    def counting(m, n, l):
        calls.append(None)
        return m1_fusion(m, n, l)

    monkeypatch.setattr(fusion_module, "m1_fusion", counting)

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
        assert 0 < n20 <= 99  # 3 x 3 source pairs against 11 target constituents
        assert count(triple, 200) == n20


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
