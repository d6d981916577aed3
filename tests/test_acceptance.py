"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is exact equality; no numeric slack appears anywhere.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import time
from fractions import Fraction

import pytest

from orbifold_voa import labels as lb
from orbifold_voa.fock import (
    TVector,
    UVector,
    coset_basis,
    graded_dim,
    heis_act,
    lattice_vector,
    m1_graded_dim,
    twisted_basis,
)
from orbifold_voa.fusion import (
    bound_blind_zeros,
    decompose,
    get_engine,
    upper_bound,
)
from orbifold_voa.intertwine import (
    direct_witness,
    first_nonzero_mode,
    forced_zero_coupling,
    witness_vectors,
)
from orbifold_voa.labels import contragredient
from orbifold_voa.ring import RingParams
from orbifold_voa.twisted import (
    conjugation_check,
    delta_coeff,
    lattice_sector_map,
    mtheta_mode,
    psi_map,
)
from orbifold_voa.untwisted import (
    commutator_formula_check,
    e_vec,
    p_coeff_apply,
    vertex_mode,
)
from orbifold_voa.zhu import GENERATORS, expected_top_actions, top_action

HALF = Fraction(1, 2)


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_top_action_table():
    t0 = time.time()
    checked = 0
    for k in (2, 3, 4):
        params = RingParams(k)
        for label in lb.all_labels(k):
            want = expected_top_actions(params, label)
            for gen in GENERATORS:
                got = top_action(params, gen, label)
                if got != want[gen]:
                    report(
                        1,
                        "generator actions on every top level",
                        False,
                        f"k={k} {label.code} o({gen}) = {got}, expected {want[gen]}",
                    )
                checked += 1
    elapsed = time.time() - t0
    report(
        1,
        "generator actions on every top level equal the published table "
        "(with the half-shift quartic entry corrected) for k=2,3,4",
        elapsed < 120,
        f"{checked} exact entries in {elapsed:.1f}s",
    )


def test_criterion_2_mode_identities():
    for k in (1, 2, 3, 4):
        params = RingParams(k)
        E = e_vec(params)
        v0 = lattice_vector(params, k) + lattice_vector(params, -k)
        ok1 = vertex_mode(E, k - 1, v0) == v0
        w = heis_act(-1, lattice_vector(params, k)) - heis_act(-1, lattice_vector(params, -k))
        ok2 = vertex_mode(E, k, w) == v0 * (2 * k)
        lhs = vertex_mode(E, 0, v0)
        rhs = p_coeff_apply(params, +1, k - 1, lattice_vector(params, k)) + p_coeff_apply(
            params, -1, k - 1, lattice_vector(params, -k)
        )
        ok3 = lhs == rhs
        if not (ok1 and ok2 and ok3):
            report(2, "mode identities on the half-shift top", False, f"k={k}")
    report(
        2,
        "half-shift fixed-point, oscillator-transfer, and creation-series "
        "identities hold exactly for k=1..4",
        True,
    )


def test_criterion_3_forced_zero():
    for k in (1, 2, 3):
        if not forced_zero_coupling(RingParams(k)):
            report(3, "coupling constant forced to zero", False, f"k={k}")
    report(3, "the bound-blind coupling constant is forced to zero for k=1,2,3", True)


def test_criterion_4_delta_oracle(delta_series_oracle):
    oracle = delta_series_oracle
    mismatches = [
        (m, n)
        for (m, n), c in oracle.items()
        if m + n <= 8 and delta_coeff(m, n) != c
    ]
    named_ok = (
        oracle[(0, 0)] == 0
        and oracle[(0, 1)] == Fraction(-1, 4)
        and oracle[(1, 0)] == Fraction(-1, 4)
        and oracle[(1, 1)] == Fraction(1, 16)
    )
    report(
        4,
        "correction coefficients match an independent symbolic series oracle "
        "for all total orders <= 8, named low-order values confirmed",
        not mismatches and named_ok,
        f"{sum(1 for (m, n) in oracle if m + n <= 8)} coefficients compared",
    )


def test_criterion_5_sector_map_relations():
    for k in (1, 2, 3, 4):
        params = RingParams(k)
        for b in range(-3, 4):
            eb = lattice_sector_map(b)
            for r in range(-6 * k, 6 * k + 1):
                ps = psi_map(params, r)
                sign = -1 if (b * r) % 2 else 1
                if eb.compose(ps) != ps.compose(eb).scale(sign) or eb.compose(
                    ps
                ) != psi_map(params, r + 2 * k * b):
                    report(5, "sector-map relations", False, f"k={k} b={b} r={r}")
        for m in range(-3, 4):
            if psi_map(params, -2 * k * m) != psi_map(params, 2 * k * m):
                report(5, "sector-map lattice symmetry", False, f"k={k} m={m}")
            if psi_map(params, -(k + 2 * k * m)) != lattice_sector_map(-1).compose(
                psi_map(params, k + 2 * k * m)
            ):
                report(5, "sector-map reflection", False, f"k={k} m={m}")
    report(
        5,
        "sector-map commutation and translation identities hold for "
        "|b| <= 3, |r| <= 6k, k=1..4, including the reflection special cases",
        True,
    )


def test_criterion_6_closure_equals_transcription():
    total = 0
    for k in range(1, 7):
        eng = get_engine(k)  # construction asserts closure == transcription
        for (w1, w2, w3) in eng.all_triples():
            f = eng.fusion(w1, w2, w3)
            if f != eng.fusion(w2, w1, w3) or f != eng.fusion(
                w1, contragredient(w3, k), contragredient(w2, k)
            ):
                report(6, "fusion symmetries", False, f"k={k} {w1.code},{w2.code},{w3.code}")
            total += 1
    report(
        6,
        "all triples satisfy both fusion symmetries and the closure-derived "
        "table equals the transcribed full table for k=1..6",
        True,
        f"{total} triples checked",
    )


def test_criterion_7_bound_soundness_and_blind_zeros():
    for k in (1, 2, 3, 4):
        eng = get_engine(k)
        for (w1, w2, w3) in eng.all_triples():
            if eng.fusion(w1, w2, w3) > upper_bound(w1, w2, w3, k):
                report(
                    7, "bound soundness", False, f"k={k} {w1.code},{w2.code},{w3.code}"
                )
        blind = bound_blind_zeros(k)
        per_sign = len(blind) // 2
        if per_sign != 3:
            report(7, "designated blind rotations", False, f"k={k} found {per_sign}")
        for t in blind:
            if not (eng.fusion(*t) == 0 and upper_bound(*t, k) >= 1):
                report(
                    7,
                    "bound-blind zeros",
                    False,
                    f"k={k} {t[0].code},{t[1].code},{t[2].code}",
                )
    report(
        7,
        "fusion <= restriction bound on every triple for k=1..4, and the "
        "three matched-sign half-shift rotations per sign are bound-blind "
        "zeros",
        True,
    )


def test_criterion_8_decomposition_characters():
    checked = 0
    for k in (1, 2, 3):
        params = RingParams(k)
        for label in lb.all_labels(k):
            top = lb.top_weight(label, k)
            for j in range(0, 21):
                w = top + Fraction(j, 2)
                lhs = graded_dim(params, label, w)
                rhs = sum(
                    m1_graded_dim(params, m1, w)
                    for m1, _ in decompose(label, k, window=2 * k * (int(w) + 1) + 2)
                )
                if lhs != rhs:
                    report(
                        8,
                        "decomposition characters",
                        False,
                        f"k={k} {label.code} weight {w}: {lhs} != {rhs}",
                    )
                checked += 1
    report(
        8,
        "graded dimensions equal the constituent sums for every label and "
        "all weights up to top+10, k=1..3",
        True,
        f"{checked} weight components",
    )


def test_criterion_9_nonvanishing_witnesses():
    k = 2
    params = RingParams(k)
    eng = get_engine(k)
    witnessed = 0
    skipped = 0
    for triple in eng.all_triples():
        if eng.fusion(*triple) != 1:
            continue
        hit = direct_witness(k, triple)
        if hit is None:
            skipped += 1
            continue
        spec, sign = hit
        u, v = witness_vectors(params, triple)
        if first_nonzero_mode(spec, u, v, 6, sign) is None:
            report(
                9,
                "nonvanishing witnesses",
                False,
                f"{triple[0].code},{triple[1].code},{triple[2].code} via {spec.name}",
            )
        witnessed += 1
    report(
        9,
        "every nonzero rule at k=2 covered by an explicit construction has a "
        "nonvanishing witness at cutoff 6",
        witnessed > 0,
        f"{witnessed} witnessed, {skipped} reachable only through symmetry",
    )


def test_criterion_10_commutators_and_conjugation():
    counts = {"untwisted": 0, "twisted": 0, "conjugation": 0}
    for k in (1, 2):
        params = RingParams(k)
        e_lat = lattice_vector(params, 2 * k)
        alpha = UVector(params, {((1,), 0): 1})
        for coset in (0, 1):
            vectors = [UVector(params, {key: 1}) for key in coset_basis(params, coset, 4)]
            ok, nontrivial = commutator_formula_check(
                vertex_mode, alpha, heis_act, range(-2, 3), e_lat, vectors, 4 + k
            )
            if not ok:
                report(10, "untwisted commutators", False, f"k={k} coset={coset}")
            counts["untwisted"] += nontrivial
        vectors = [TVector(params, {key: 1}) for key in twisted_basis(params, 1, Fraction(4))]
        for r in sorted({1, k, 2 * k}):
            u = lattice_vector(params, r)
            modes = (-Fraction(3, 2), -HALF, HALF, Fraction(3, 2))
            ok, nontrivial = commutator_formula_check(mtheta_mode, alpha, heis_act, modes, u, vectors, 4)
            if not ok:
                report(10, "twisted commutators", False, f"k={k} r={r}")
            counts["twisted"] += nontrivial
        for u in (lattice_vector(params, 1), heis_act(-1, lattice_vector(params, 1))):
            ok, nontrivial = conjugation_check(mtheta_mode, u, vectors, 4)
            if not ok:
                report(10, "conjugation identity", False, f"k={k}")
            counts["conjugation"] += nontrivial
    report(
        10,
        "untwisted and twisted oscillator commutators hold mode by mode at "
        "cutoff 4 for k=1,2, and the conjugation identity holds at the same "
        "cutoff",
        min(counts.values()) > 0,
        ", ".join(f"{n} nonzero {name} comparisons" for name, n in counts.items()),
    )
