"""Graded vectors: oscillator action, the involution, and graded dimensions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbifold_voa import labels as lb
from orbifold_voa.fock import (
    TVector,
    UVector,
    add_into,
    coset_basis,
    graded_dim,
    heis_act,
    lattice_vector,
    m1_graded_dim,
    odd_partition_count_parity,
    odd_partitions_of,
    partition_count,
    partition_count_parity,
    partitions_of,
    project_eigen,
    t_term,
    theta,
    top_vector,
    tw_vacuum,
    twisted_basis,
    u_term,
    vacuum,
)
from orbifold_voa.fusion import decompose
from orbifold_voa.ring import RingParams, Scalar
from orbifold_voa.verify import decomp_window

HALF = Fraction(1, 2)


def label_basis(params: RingParams, label: lb.ModuleLabel, max_weight: Fraction) -> list:
    """Vectors spanning the labelled module up to the given weight: the
    brute-force basis that `graded_dim` is counted against."""
    lb.validate_label(label, params.k)
    out = []
    if label.kind in (lb.VAC, lb.HALF):
        for key in coset_basis(params, lb.lattice_coset(label, params.k), max_weight):
            if key[1] < 0:
                continue  # its theta-partner at +c came first
            v = project_eigen(UVector(params, {key: 1}), label.sign)
            if v:
                out.append(v)
    elif label.kind == lb.LAM:
        for key in coset_basis(params, label.r, max_weight):
            out.append(UVector(params, {key: 1}))
    else:
        for key in twisted_basis(params, label.sector, max_weight):
            v = project_eigen(TVector(params, {key: 1}), label.sign)
            if v:
                out.append(v)
    return out


@pytest.fixture(scope="module", params=(1, 2, 3))
def params(request):
    return RingParams(request.param)


def test_oscillator_contractions(params):
    k = params.k
    assert heis_act(1, heis_act(-1, vacuum(params))) == vacuum(params) * (2 * k)
    e_a = lattice_vector(params, 2 * k)
    assert heis_act(0, e_a) == e_a * (2 * k)
    got = heis_act(HALF, heis_act(-HALF, tw_vacuum(params)))
    assert got == tw_vacuum(params) * k


def test_twisted_zero_mode_rejected(params):
    with pytest.raises(ValueError):
        heis_act(0, tw_vacuum(params))
    with pytest.raises(ValueError):
        heis_act(1, tw_vacuum(params))  # integer modes are not half-odd
    with pytest.raises(ValueError, match="no zero mode"):
        heis_act(Fraction(0), t_term(params, [HALF], 2))


@pytest.mark.parametrize("n", (HALF, Fraction(3, 2), -HALF, Fraction(-5, 2)), ids=str)
def test_untwisted_fractional_mode_rejected(params, n):
    # the untwisted modes are integers: alpha(1/2) must not act as alpha(0),
    # nor alpha(3/2) as alpha(1), by truncation
    with pytest.raises(ValueError, match="integers"):
        heis_act(n, u_term(params, [1], 3))


def test_an_integral_fraction_mode_acts_as_the_integer(params):
    v = u_term(params, [2, 1], 1)
    assert heis_act(Fraction(-2), v) == heis_act(-2, v) == u_term(params, [2, 2, 1], 1)
    assert heis_act(Fraction(1), v) == heis_act(1, v) == u_term(params, [2], 1, 2 * params.k)
    [(parts, _r)] = heis_act(Fraction(-3), v).terms
    assert all(type(p) is int for p in parts)


@pytest.mark.parametrize(
    "build",
    (
        lambda params: tw_vacuum(params, 3),
        lambda params: tw_vacuum(params, 0),
        lambda params: t_term(params, [HALF], 3),
        lambda params: t_term(params, [1], 1),
        lambda params: t_term(params, [Fraction(3, 2), 2], 2),
        lambda params: t_term(params, [-HALF], 1),
        lambda params: u_term(params, [HALF], 0),
        lambda params: u_term(params, [0], 0),
        lambda params: u_term(params, [2, -1], 0),
    ),
    ids=(
        "tw_vacuum sector 3",
        "tw_vacuum sector 0",
        "t_term sector 3",
        "t_term integer part",
        "t_term integer part after a half-odd one",
        "t_term negative part",
        "u_term half-odd part",
        "u_term zero part",
        "u_term negative part",
    ),
)
def test_the_constructors_refuse_keys_outside_their_space(params, build):
    # a key the space lacks would reach the mode operators: a sector-3
    # twisted vacuum raised a bare IndexError in tilde_mode, and an integer
    # twisted part was given images
    with pytest.raises(ValueError):
        build(params)


def test_theta_involution(params):
    k = params.k
    x = heis_act(-1, lattice_vector(params, 2 * k))
    assert theta(x) == u_term(params, [1], -2 * k, -1)
    assert theta(theta(x)) == x
    y = t_term(params, [HALF, Fraction(3, 2)], 1)
    assert theta(y) == y  # even oscillator length, sector fixed


def u_vectors(params):
    parts = st.lists(st.integers(1, 3), max_size=3).map(lambda l: tuple(sorted(l, reverse=True)))
    keys = st.tuples(parts, st.integers(-4, 4))
    coeffs = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4)
    return st.dictionaries(keys, coeffs, min_size=1, max_size=3).map(
        lambda d: UVector(params, d)
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_projection_resolves_identity(params, data):
    v = data.draw(u_vectors(params))
    assert project_eigen(v, +1) + project_eigen(v, -1) == v
    assert project_eigen(project_eigen(v, +1), +1) == project_eigen(v, +1)
    assert not project_eigen(project_eigen(v, +1), -1)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(-3, 3))
def test_theta_oscillator_commutation(params, data, n):
    """theta alpha(n) = -alpha(n) theta on index-zero terms; index negates
    in general, which the lattice reflection absorbs."""
    v = data.draw(u_vectors(params))
    if n == 0:
        return
    lhs = theta(heis_act(n, v))
    rhs = heis_act(n, theta(v)) * (-1)
    # on terms of index r the two sides differ only through r -> -r, so
    # compare after restricting to the zero coset
    lhs0 = UVector(params, {kk: c for kk, c in lhs.terms.items() if kk[1] == 0})
    rhs0 = UVector(params, {kk: c for kk, c in rhs.terms.items() if kk[1] == 0})
    assert lhs0 == rhs0


def test_weight_additivity(params):
    v = u_term(params, [2, 1], 1)
    w0 = v.max_weight()
    assert heis_act(-3, v).max_weight() == w0 + 3
    assert heis_act(1, v).max_weight() == w0 - 1
    tv = t_term(params, [Fraction(3, 2)], 2)
    assert heis_act(-HALF, tv).max_weight() == tv.max_weight() + HALF


def test_projection_kills_wrong_parity(params):
    assert not project_eigen(vacuum(params), -1)
    x = u_term(params, [1], 0)  # odd length at index zero
    assert not project_eigen(x, +1)


def test_graded_dim_examples(params):
    k = params.k
    assert graded_dim(k, lb.u_plus(), Fraction(0), 1) == [1]
    assert graded_dim(k, lb.tw(1, +1), Fraction(1, 16), 1) == [1]
    assert graded_dim(k, lb.tw(1, -1), Fraction(9, 16), 1) == [1]
    if k >= 2:
        # the single vector a(-1)e[0]
        assert graded_dim(k, lb.u_minus(), Fraction(1), 1) == [1]
    else:
        # k=1 exception: the lattice pair enters at weight 1 as well
        assert graded_dim(k, lb.u_minus(), Fraction(1), 1) == [2]


def test_graded_dim_by_brute_force_enumeration(params):
    """Counting route vs explicit basis construction."""
    k = params.k
    for label in lb.all_labels(k):
        top = lb.top_weight(label, k)
        basis = label_basis(params, label, top + 3)
        by_weight: dict[Fraction, int] = {}
        for v in basis:
            (w,) = v.weights()
            by_weight[w] = by_weight.get(w, 0) + 1
        for j in range(0, 7):
            w = top + Fraction(j, 2)
            assert graded_dim(k, label, w, 1) == [by_weight.get(w, 0)], (label.code, w)


def test_label_validation(params):
    with pytest.raises(ValueError):
        graded_dim(params.k, lb.lam(params.k), Fraction(1), 1)


def test_decomposition_characters(params):
    k = params.k
    for label in lb.all_labels(k):
        top = lb.top_weight(label, k)
        for j in range(0, 2 * 10 + 1):
            w = top + Fraction(j, 2)
            (lhs,) = graded_dim(k, label, w, 1)
            rhs = sum(
                m1_graded_dim(k, m1, w, 1)[0]
                for m1, _ in decompose(label, k, window=2 * k * (int(w) + 1) + 2)
            )
            assert lhs == rhs, (label.code, w, lhs, rhs)


def test_weight_sized_window_keeps_every_reaching_constituent():
    """`decomp_window(k, w)` lists every constituent that the wide window
    2k(int(w)+1)+2 counts at weight w, for every label at k=1..10."""
    multi = 0
    for k in range(1, 11):
        for label in lb.all_labels(k):
            top = lb.top_weight(label, k)
            for j in range(0, 2 * 4 + 1):
                w = top + Fraction(j, 2)
                wide = [
                    m1_graded_dim(k, m1, w, 1)[0]
                    for m1, _ in decompose(label, k, window=2 * k * (int(w) + 1) + 2)
                ]
                sized = [
                    m1_graded_dim(k, m1, w, 1)[0]
                    for m1, _ in decompose(label, k, window=decomp_window(k, w))
                ]
                assert sum(sized) == sum(wide), (k, label.code, w)
                if sum(sized) and sum(1 for d in sized if d) >= 2:
                    multi += 1
    assert multi > 0


def test_partition_enumeration():
    assert list(partitions_of(0)) == [()]
    assert sorted(partitions_of(4)) == sorted(
        [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    )


def _partitions_reference(n, max_part=None):
    """The recursive enumeration that `partitions_of` replaced."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in _partitions_reference(n - first, first):
            yield (first,) + rest


def test_partitions_of_matches_the_recursive_enumeration():
    """Same partitions in the same order."""
    for n in range(-1, 21):
        assert list(partitions_of(n)) == list(_partitions_reference(n)), n


def test_odd_partitions_of_is_the_odd_part_subsequence():
    """The partitions into odd parts, in the reverse lexicographic order of
    the full enumeration."""
    for n in range(-1, 21):
        odd = [p for p in _partitions_reference(n) if all(part % 2 for part in p)]
        assert list(odd_partitions_of(n)) == odd, n


@pytest.mark.parametrize("n, p", [(100, 190_569_292), (200, 3_972_999_029_388)])
def test_partition_count_at_large_n(n, p):
    """Published values of p(n), through both entry points."""
    assert partition_count(n) == p
    assert sum(partition_count_parity(n)) == p


def test_partition_counts_match_enumeration():
    for n in range(-2, 31):
        every = list(_partitions_reference(n))
        odd = [p for p in every if all(part % 2 for part in p)]

        def by_parity(parts):
            return (sum(len(p) % 2 == 0 for p in parts), sum(len(p) % 2 for p in parts))

        assert partition_count(n) == len(every), n
        assert partition_count_parity(n) == by_parity(every), n
        assert odd_partition_count_parity(n) == by_parity(odd), n
    assert partition_count(30) == 5604


def _graded_dim_reference(k, label, weight):
    """`graded_dim` at one weight, as it was written in Fraction arithmetic."""

    def level(x):
        return int(x) if x.denominator == 1 and x >= 0 else None

    if label.kind in (lb.VAC, lb.HALF):
        total = 0
        c = 2 * k if label.kind == lb.VAC else k
        while Fraction(c * c, 4 * k) <= weight:
            n = level(weight - Fraction(c * c, 4 * k))
            if n is not None:
                total += partition_count(n)
            c += 2 * k
        n = level(weight)
        if label.kind == lb.VAC and n is not None:
            even, odd = partition_count_parity(n)
            total += even if label.sign > 0 else odd
        return total
    if label.kind == lb.LAM:
        total = 0
        reach = int(weight) + 2  # every m with (r + 2km)^2/4k <= weight has |m| < reach
        for m in range(-reach, reach + 1):
            n = level(weight - Fraction((label.r + 2 * k * m) ** 2, 4 * k))
            if n is not None:
                total += partition_count(n)
        return total
    n2 = level(2 * (weight - Fraction(1, 16)))
    if n2 is None:
        return 0
    even, odd = odd_partition_count_parity(n2)
    return even if label.sign > 0 else odd


def _m1_graded_dim_reference(k, m1, weight):
    """`m1_graded_dim` at one weight, as it was written in Fraction arithmetic."""

    def level(x):
        return int(x) if x.denominator == 1 and x >= 0 else None

    if m1.kind == lb.M_VAC:
        n = level(weight)
        return 0 if n is None else partition_count_parity(n)[0 if m1.sign > 0 else 1]
    if m1.kind == lb.M_LAM:
        n = level(weight - m1.norm(k) / 2)
        return 0 if n is None else partition_count(n)
    n2 = level(2 * (weight - Fraction(1, 16)))
    return 0 if n2 is None else odd_partition_count_parity(n2)[0 if m1.sign > 0 else 1]


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6, 24, 40))
def test_graded_dims_match_fraction_arithmetic(k):
    """Every entry of one series call of `graded_dim` and `m1_graded_dim`
    against the per-weight Fraction arithmetic they replaced, for every
    label: at k <= 6 nine entries from each label's top and from starts
    on and off its grid, at k = 24 and 40 twenty-one entries from each top."""
    nonzero = 0
    for label in lb.all_labels(k):
        top = lb.top_weight(label, k)
        if k <= 6:
            count = 9
            starts = [top, Fraction(1, 3), Fraction(5, 16), Fraction(0), Fraction(-1), top + Fraction(1, 3)]
            # half a grid unit above the top: rounded down, it would land on the grid
            starts.append(top + Fraction(1, 32 * k))
        else:
            count, starts = 21, [top]
        m1s = {
            m1 for m1, _ in decompose(label, k, window=decomp_window(k, max(starts) + Fraction(count - 1, 2)))
        }
        for start in starts:
            weights = [start + Fraction(j, 2) for j in range(count)]
            got = graded_dim(k, label, start, count)
            assert got == [_graded_dim_reference(k, label, w) for w in weights], (label.code, start)
            nonzero += sum(map(bool, got))
            for m1 in m1s:
                assert m1_graded_dim(k, m1, start, count) == [
                    _m1_graded_dim_reference(k, m1, w) for w in weights
                ], (m1.code, start)
    assert nonzero > 0


def test_top_vectors(params):
    k = params.k
    assert top_vector(params, lb.u_plus()) == vacuum(params)
    assert top_vector(params, lb.lam(1) if k > 1 else lb.half(+1)) is not None
    va_minus = top_vector(params, lb.half(-1))
    assert va_minus == lattice_vector(params, k) - lattice_vector(params, -k)
    if k == 1:
        with pytest.raises(ValueError):
            top_vector(params, lb.u_minus())


@pytest.mark.parametrize(
    "max_weight, parts",
    [(Fraction(1, 16) - Fraction(1, 10**6), []), (Fraction(1, 16), [()]), (Fraction(9, 16), [(), (HALF,)])],
    ids=("below 1/16", "1/16", "9/16"),
)
def test_twisted_basis_lists_the_keys_up_to_the_weight(params, max_weight, parts):
    # a weight below the twisted top 1/16 lists no key, not the top one
    for sector in (1, 2):
        assert twisted_basis(params, sector, max_weight) == [(p, sector) for p in parts]


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_scalar_product_matches_the_filtered_constructor(k):
    """v * c and c * v equal the vector built through the constructor,
    which coerces and zero-tests every product, and hold no zero Scalar,
    for int, Fraction and cyclotomic factors, zero included."""
    params = RingParams(k)
    zeta = params.zeta(1)
    vectors = (
        lattice_vector(params, 1) * zeta
        + u_term(params, [2, 1], -1, Fraction(-2, 3))
        + u_term(params, [1], 2 * k, params.two_to(Fraction(1, 2 * k))),
        t_term(params, [HALF], 1, params.zeta(3)) + tw_vacuum(params, 2, Fraction(1, 4)),
        UVector(params, {}),
    )
    factors = (
        0, 1, -3, Fraction(0), Fraction(-2, 3),
        params.zero(), zeta - zeta, params.rational(Fraction(5, 7)),
        zeta, zeta * params.two_to(Fraction(1, 2 * k)) + params.rational(2),
    )
    nonzero = 0
    for v in vectors:
        for c in factors:
            want = type(v)(params, {key: x * c for key, x in v.terms.items()})
            for got in (v * c, c * v):
                assert got == want, (v, c)
                assert all(isinstance(x, Scalar) and not x.is_zero() for x in got.terms.values())
                assert got.terms is not v.terms
            nonzero += bool(want)
    assert nonzero > 0


@pytest.mark.parametrize("k", (1, 2, 3))
def test_a_sum_equals_the_key_by_key_sum_and_leaves_its_operands(k):
    """a + b equals a's terms with every term of b added by `add_into`, for
    disjoint and overlapping supports on both lattices, with empty sides
    and a cancelling key among them; both operands keep their terms, and
    the sum owns a dict of its own."""
    params = RingParams(k)
    zeta = params.zeta(1)
    a = lattice_vector(params, 1) * zeta + u_term(params, [2, 1], -1, Fraction(-2, 3))
    b = u_term(params, [1], 2 * k, Fraction(1, 2)) + u_term(params, [2, 1], 1, zeta)
    ta = t_term(params, [HALF], 1, zeta) + tw_vacuum(params, 2, Fraction(1, 4))
    tb = t_term(params, [Fraction(3, 2)], 1, 3) + tw_vacuum(params, 1)
    pairs = [
        (a, b), (b, a), (ta, tb), (a, UVector(params, {})), (UVector(params, {}), b),
        (a, a + b), (a, -a + b), (ta, tb - ta),
    ]
    disjoint = 0
    for x, y in pairs:
        before = dict(x.terms), dict(y.terms)
        want = dict(x.terms)
        for key, c in y.terms.items():
            add_into(want, key, c)
        got = x + y
        assert got.terms == want, (x, y)
        assert all(not c.is_zero() for c in got.terms.values())
        assert (x.terms, y.terms) == before
        got.terms.clear()
        assert (x.terms, y.terms) == before
        disjoint += bool(x and y) and x.terms.keys().isdisjoint(y.terms)
    assert disjoint >= 3
