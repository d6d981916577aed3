"""Mode actions of the untwisted vertex operators on the lattice Fock spaces.

A mode is indexed by the rational exponent m with the convention that the
operator attached to u expands as sum_m u_m z^(-m-1); vertex_mode(u, m, v)
returns u_m v exactly.  For u supported at lattice index r acting on terms
at index s the support grid of m is -rs/2k + Z; `support_modes` lists it
(and the twisted grid) for sweeps, and every identity checker sweeps it.

The mode kernel evaluates the sum over rows (d, nu, num, den) of num/den
times mode m - d of a(-nu) e[r], with integer d, num and den: every term
of u at lattice index r on one term of v, a(-mu) e[s] (output index
r + s) untwisted, and the half-odd partition mu with s = 0 twisted (the
prefactor 2^(-r^2/2k) left out), so the same kernel evaluates the
half-odd expansion behind the twisted operators.  Work is in doubled
integer units: a part p of mu and of the output is held as 2p, even
untwisted and odd twisted, and the z-budget is the one integer
T = 2(-m-1-rs/2k) untwisted or 2(-m-1+r^2/4k) twisted (the z^{lambda(0)}
factor, resp. the exponent shift, folded in), raised by 2d for the row
at d (`_budget`); an m with T off that grid has no image.  An image maps
doubled keys to nonzero Fractions.

Evaluation is by explicit finite expansion in three stages, with the
paths merged between them:
1. contractions: each factor a(-n) is contracted against a part of mu,
   paired with the lattice index s, or left pending;
2. annihilation: the annihilation exponential removes parts of what is
   left of mu with binomial weights, once per distinct state of stage 1;
3. creation (`_create`): the pending factors and the creation
   exponential share what is left of T, which is where m enters.
No series tails are ever truncated, so results are exact.  The lattices
differ only in the smallest created part (2 or 1) and in the s-term.

Stages 1 and 2 (`_skeleton`) do not read m.  The creation stage depends
only on the ring, the lattice index, the pending factors and the budget.
It is walked once per ring (`_creation_table`, in `RingParams.memo`), its
rows merged by their sorted parts, and every later call only reads the
rows.  Every walk sums plain ints over one denominator fixed before it
starts (a factor a(-n) has all its coefficients over `_dden(n)`): stages
1 and 2 over the one of `_skeleton`, stage 3 over the least common
multiple of the group and table denominators that meet the budget.
States and keys that cancel are dropped, and an output key becomes one
Fraction at the end.

One driver, `term_pair_images`, runs the kernel for the untwisted
operator and the twisted ones alike.  It groups the terms of u by lattice
index and passes each group to the kernel in one call per term of v,
with the rational coefficients of u and v as the kernel's integer term
weights; only a coefficient that is not rational is applied after the
kernel.  The operators differ in the kernel rows of a term of u (the
term itself, or its exp(Delta_z) expansion) and in where they place the
output keys.  Everything the driver does before the budget is fixed
(the groups, the weighted rows and the skeletons) does not read m either,
so it is planned whole once per (u, v) pair, every skeleton walked as
the plan is built: the plan of the latest pair is the one "pair" entry of
`RingParams.memo`, and a sweep over m, which every caller makes, only
fixes each budget and runs the creation stage.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, floor, gcd, lcm, prod

from .fock import (
    TVector,
    UVector,
    add_into,
    lattice_vector,
    partitions_of,
    sort_parts,
    u_term,
)
from .ring import RingParams, Scalar


def _dden(n: int) -> int:
    """The one denominator 2^(n-1) (n-1)! of every `_dcoef(n, jj)`."""
    return 2 ** (n - 1) * factorial(n - 1)


@lru_cache(maxsize=None)
def _dcoef(n: int, jj: int) -> int:
    """Coefficient of alpha(j) z^(-j-n) in the (n-1)-th divided z-derivative
    of the oscillator field, for the doubled mode jj = 2j, as an unreduced
    integer numerator over `_dden(n)`."""
    num = (-1) ** (n - 1)
    for y in range(n - 1):
        num *= jj + 2 * (n - 1 - y)
    return num


def _creation_table(
    params: RingParams, r: int, w: int, twisted: bool, pending: tuple = ()
) -> tuple:
    """(den, ((parts, num), ...)): the creation stage of the kernel at
    doubled weight w, each coefficient num/den over the one least common
    denominator den of the table, memoized on `params` for the life of the
    ring.

    With no `pending` factors these are the terms of the creation
    exponential of lambda_r.  Parts are doubled modes, odd when twisted and
    even otherwise, listed in descending order; a part N carries
    (r/2k)/(N/2) = r/(kN), and i equal parts a further 1/i!.  One
    partition walk carries each coefficient as an integer numerator and
    denominator: the i-th copy of a part N multiplies them by r and k*N*i.

    Each pending factor a(-n) takes a created part p (the coefficient of
    alpha(-p/2) in its divided derivative, see `_dcoef`) and leaves w - p
    to the factors after it and to the exponential.  Its rows lie over the
    lcm of the tables it reads times `_dden(n)`, rows that end on the same
    sorted parts sum plain ints, and rows that cancel are dropped; the
    table is reduced by one gcd at the end."""
    key = ("create", r, pending, w, twisted)
    table = params.memo.get(key)
    if table is None:
        lo = 1 if twisted else 2
        if pending:
            n, rest = pending[0], pending[1:]
            subs = []
            for p in range(lo, w - lo * len(rest) + 1, 2):
                dc = _dcoef(n, -p)
                if dc:
                    subs.append((p, dc, *_creation_table(params, r, w - p, twisted, rest)))
            den = lcm(*[ed for _p, _dc, ed, _rows in subs])
            merged: dict[tuple, int] = {}
            for p, dc, ed, rows in subs:
                dc *= den // ed
                for parts, e in rows:
                    parts = tuple(sorted(parts + (p,), reverse=True))
                    merged[parts] = merged.get(parts, 0) + dc * e
            den *= _dden(n)
            g = gcd(den, *merged.values())
            table = (den // g, tuple([(parts, num // g) for parts, num in merged.items() if num]))
        elif not r:
            table = (1, (((), 1),) if w == 0 else ())
        else:
            k = params.k
            rows = []
            # depth first on an explicit stack; a node pushes its next parts
            # smallest first, so the largest is walked first
            stack = [(w, w, (), 1, 1, 0)]
            while stack:
                left, top, parts, num, den, run = stack.pop()
                if not left:
                    g = gcd(num, den)
                    rows.append((parts, num // g, den // g))
                    continue
                num, den = num * r, den * k
                for n in range(lo, min(left, top) + 1, 2):
                    i = run + 1 if n == top else 1
                    stack.append((left - n, n, parts + (n,), num, den * n * i, i))
            # the lcm of reduced rows is their least common denominator
            den = lcm(*[d for _parts, _num, d in rows])
            table = (den, tuple([(parts, num * (den // d)) for parts, num, d in rows]))
        params.memo[key] = table
    return table


def halve(key: tuple) -> tuple:
    """The Fraction parts p of a doubled twisted key (2p, ...), as the
    twisted vector keys hold them."""
    return tuple(Fraction(p, 2) for p in key)


def _skeleton(params: RingParams, r: int, mu: tuple, s: int, twisted: bool, terms: tuple) -> tuple:
    """Stages 1 and 2 of the mode kernel, the ones that do not read m, as
    ((pending, off, need, den, ((kept, num), ...)), ...): the rows of a
    group, kept parts with integer numerators over the one denominator den
    of the walk.

    Stage 1 contracts each factor a(-n) of each term against a part of mu
    or pairs it with the lattice index s, or leaves it pending; its paths
    merge into states (parts of mu left, pending, offset).  Stage 2 runs the
    annihilation exponential once per state, and its paths merge into
    creation states (kept, pending, offset).  An offset is what a path adds
    to the z-budget, so a creation state meets the budget T + off, and
    need = lo * len(pending) - off is the least T that leaves each pending
    factor a part.  Creation states are grouped by (pending, off), all that
    the creation stage reads besides T.

    den is the lcm over the terms (d, nu, num, den_t) of den_t times
    `_dden(n)` for each factor a(-n) in nu, and a term's paths start at num
    raised to den.  A contracted or paired factor multiplies a path by its
    `_dcoef` numerator and a pending one by `_dden(n)`, which its creation
    table divides out, so states sum plain ints; those that cancel go."""
    k = params.k
    counts0: dict[int, int] = {}
    for p in mu:
        p2 = 2 * p.numerator // p.denominator
        counts0[p2] = counts0.get(p2, 0) + 1
    scales = []
    for _d, nu, _num, den in terms:
        for n in nu:
            den *= _dden(n)
        scales.append(den)
    common = lcm(*scales)
    contracted: dict[tuple, int] = {}

    def factors(nu: tuple, idx: int, counts: dict, off: int, c: int, pending: tuple) -> None:
        if idx == len(nu):
            state = (tuple(sorted((p, mult) for p, mult in counts.items() if mult)), pending, off)
            contracted[state] = contracted.get(state, 0) + c
            return
        n_i = nu[idx]
        factors(nu, idx + 1, counts, off, c * _dden(n_i), pending + (n_i,))
        if s:
            factors(nu, idx + 1, counts, off + 2 * n_i, c * _dcoef(n_i, 0) * s, pending)
        for j in sorted(counts):
            mult = counts[j]
            if not mult:
                continue
            dc = _dcoef(n_i, j)
            if dc:
                c2 = dict(counts)
                c2[j] = mult - 1
                factors(nu, idx + 1, c2, off + j + 2 * n_i, c * dc * mult * k * j, pending)

    for (d, nu, num, _den), scale in zip(terms, scales):
        factors(nu, 0, counts0, 2 * d, num * (common // scale), ())

    created: dict[tuple, int] = {}
    for (left, pending, off0), c0 in contracted.items():
        if not c0:
            continue
        paths = [((), off0 + 2 * sum(pending), c0)]
        for p, m_p in left:
            step = []
            for kept, off, c in paths:
                step.append((kept + (p,) * m_p, off, c))
                if r:
                    binom = 1
                    for j in range(1, m_p + 1):
                        binom = binom * (m_p - j + 1) // j
                        step.append((kept + (p,) * (m_p - j), off + p * j, c * (-r) ** j * binom))
            paths = step
        for kept, off, c in paths:
            state = (kept, pending, off)
            created[state] = created.get(state, 0) + c

    lo = 1 if twisted else 2
    groups: dict[tuple, list] = {}
    for (kept, pending, off), c in created.items():
        if c:
            groups.setdefault((pending, off), []).append((kept, c))
    return tuple(
        (pending, off, lo * len(pending) - off, common, tuple(rows))
        for (pending, off), rows in groups.items()
    )


def _budget(params: RingParams, r: int, s: int, m: Fraction, twisted: bool) -> int | None:
    """The integer z-budget T of the mode kernel for lattice index r on
    index s (s = 0 twisted) at mode m, or None when m is off the grid."""
    k = params.k
    a, b = m.numerator, m.denominator
    if twisted:
        t0, rem = divmod(r * r * b - 4 * k * (a + b), 2 * k * b)
    else:
        t0, rem = divmod(-r * s * b - 2 * k * (a + b), k * b)
    if rem or (not twisted and t0 % 2):
        return None
    return t0


def _create(params: RingParams, r: int, t0: int, twisted: bool, skeleton: tuple) -> dict:
    """Stage 3 of the mode kernel on the states of a `_skeleton` at the
    budget t0: a fresh {doubled key: nonzero Fraction}.

    A group's rows and its creation table each hold integer numerators over
    one denominator, so a product of the two lies over the product of the
    denominators; each group is scaled to the least common multiple of
    those products over the groups that meet the budget, an output key sums
    plain ints over it, and becomes one Fraction at the end."""
    live = []
    for pending, off, need, den, rows in skeleton:
        if t0 < need:
            continue
        tden, table = _creation_table(params, r, t0 + off, twisted, pending)
        if table:
            live.append((den * tden, rows, table))
    if not live:
        return {}
    common = lcm(*[den for den, _rows, _table in live])
    out: dict[tuple, int] = {}
    for den, rows, table in live:
        scale = common // den
        for kept, num in rows:
            num *= scale
            for parts, e in table:
                if kept:
                    parts = tuple(sorted(kept + parts, reverse=True))
                out[parts] = out.get(parts, 0) + num * e
    return {key: Fraction(num, common) for key, num in out.items() if num}


def _weight(c: Scalar) -> tuple[int, int, Scalar | None]:
    """A coefficient as an integer weight num/den and the factor left after
    it: (num, den, None) when c is rational, (1, 1, c) otherwise."""
    terms = c.terms
    if len(terms) == 1 and (0, 0) in terms:
        q = terms[(0, 0)]
        return q.numerator, q.denominator, None
    return 1, 1, c


def _lift(params: RingParams, factor: Scalar | None):
    """The map from a Fraction q to the Scalar q times `factor` (None for
    1), chosen once per factor.  When every coefficient of the factor is
    +-1 (1, a phase zeta^a, the twisted prefactor's monomial t^b or its
    even-k sqrt(2) form, each times a sign) q is only wrapped, as the
    Scalar {basis: +-q}, with no product; otherwise each q takes one
    `_scaled(q)`."""
    if factor is None:
        return lambda q: Scalar(params, {(0, 0): q})
    terms = factor.terms
    if all(c == 1 or c == -1 for c in terms.values()):
        signs = tuple((basis, c == 1) for basis, c in terms.items())
        return lambda q: Scalar(params, {basis: q if plus else -q for basis, plus in signs})
    return factor._scaled


def _plan(params: RingParams, u: UVector, v, expand, twisted: bool) -> tuple:
    """The items of `term_pair_images` for u and v, one per group of u and
    term of v, each (r, s, index, factor, skeleton): the kernel's lattice
    indices, the index or sector of v's term, the factor and the
    `_skeleton` of the term pair's kernel rows."""
    groups: dict[tuple, list] = {}  # (r, factor of u) -> kernel rows
    for (nu, r), cu in u.terms.items():
        num, den, factor = _weight(cu)
        rows = groups.setdefault((r, factor), [])
        for d, nu2, n2, d2 in expand(params, nu, r):
            rows.append((d, nu2, num * n2, den * d2))
    plan = []
    for (r, uf), rows in groups.items():
        for (mu, index), cv in v.terms.items():
            vn, vd, vf = _weight(cv)
            terms = tuple([(d, nu, num * vn, den * vd) for d, nu, num, den in rows])
            factor = vf if uf is None else uf if vf is None else uf * vf
            s = 0 if twisted else index
            plan.append((r, s, index, factor, _skeleton(params, r, mu, s, twisted, terms)))
    return tuple(plan)


def term_pair_images(u: UVector, m, v: UVector | TVector, expand):
    """(r, index, image, factor) for each group of terms of u and each term
    of v with a nonzero kernel image at mode m, index being the lattice
    index or sector of v's term: the one loop over term pairs behind every
    mode operator.

    `expand(params, nu, r)`, a module-level function, lists the kernel rows
    (d, nu2, num, den) of the term a(-nu) e[r] of u.  The terms of u are
    grouped by r and by the part of their coefficient that is not rational
    (`_weight`); the rational parts of u and of the term of v scale the
    rows.  A TVector v runs the kernel twisted, its keys holding a sector
    where untwisted keys hold a lattice index.  The image holds doubled
    parts and wants the factor, the non-rational parts of both
    coefficients (None for 1).

    None of this reads m, so it is planned once per (u, v) pair: the one
    "pair" entry of `RingParams.memo` holds the input (expand, twisted, and
    u and v as lists of (key, coefficient terms), no Scalar and no vector)
    and the plan (`_plan`), one item per group and term of v with its
    `_skeleton`, every skeleton walked as the plan is built.  A call with
    the same input, every later mode of a sweep, only computes each item's
    budget (`_budget`, None off the item's grid) and runs stage 3
    (`_create`); a call with another input replaces the entry, so the memo
    does not grow with the inputs."""
    params = u.params
    if params != v.params:
        raise ValueError("mode operator: mixed ring parameters")
    if not isinstance(m, (int, Fraction)):
        m = Fraction(m)
    twisted = isinstance(v, TVector)
    given = (
        expand,
        twisted,
        [(key, c.terms) for key, c in u.terms.items()],
        [(key, c.terms) for key, c in v.terms.items()],
    )
    entry = params.memo.get("pair")
    if entry is None or entry[0] != given:
        entry = params.memo["pair"] = (given, _plan(params, u, v, expand, twisted))
    for r, s, index, factor, skeleton in entry[1]:
        t0 = _budget(params, r, s, m, twisted)
        if t0 is None:
            continue
        image = _create(params, r, t0, twisted, skeleton)
        if image:
            yield r, index, image, factor


def _one_row(params: RingParams, nu: tuple, r: int) -> tuple:
    """The kernel rows of a(-nu) e[r] for the untwisted operator: the term
    itself."""
    return ((0, nu, 1, 1),)


def vertex_mode(u: UVector, m, v: UVector) -> UVector:
    """The mode u_m of the untwisted operator of u, applied to v, exactly:
    each term of u is its own kernel row (`_one_row`), and an image key at
    lattice index r against index s lands at index r + s."""
    if not isinstance(v, UVector):
        raise TypeError(f"vertex_mode does not apply to {type(v).__name__}")
    params = u.params
    acc: dict = {}
    for r, s, image, factor in term_pair_images(u, m, v, _one_row):
        lift = _lift(params, factor)
        for key, q in image.items():
            add_into(acc, (tuple([p >> 1 for p in key]), r + s), lift(q))
    return UVector._wrap(params, acc)


# -- distinguished vectors -------------------------------------------------------


def omega_vec(params: RingParams) -> UVector:
    """Conformal vector (1/4k) a(-1)^2 e[0]."""
    return u_term(params, [1, 1], 0, Fraction(1, 4 * params.k))


def e_vec(params: RingParams) -> UVector:
    """E = e[2k] + e[-2k], the symmetric weight-k lattice vector."""
    return lattice_vector(params, 2 * params.k) + lattice_vector(params, -2 * params.k)


def f_vec(params: RingParams) -> UVector:
    """F = e[2k] - e[-2k], the antisymmetric partner of E."""
    return lattice_vector(params, 2 * params.k) - lattice_vector(params, -2 * params.k)


def j_vec(params: RingParams) -> UVector:
    """The degree-4 singlet generator, written on the alpha basis."""
    k2 = 2 * params.k
    return (
        u_term(params, [1, 1, 1, 1], 0, Fraction(1, k2 * k2))
        + u_term(params, [3, 1], 0, Fraction(-2, k2))
        + u_term(params, [2, 2], 0, Fraction(3, 2) / k2)
    )


def p_coeff_apply(params: RingParams, sign: int, n: int, v: UVector) -> UVector:
    """Degree-n coefficient of the creation exponential for +-alpha,
    as a multiplication operator.

    It stays independent of the mode kernel, so that the creation-series
    identity compares two routes: it lists the partitions of n itself, as
    (parts, num, den) rows in integers, and makes one Fraction per term of
    v and row, times the coefficient of the term (see `_weight`)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return v
    rows = []
    for parts in partitions_of(n):
        # parts descend, so equal parts are adjacent: the i-th copy of q
        # divides by q*i, which builds prod (sign/q)^i / i! one part at a time
        den, run = 1, 0
        for j, q in enumerate(parts):
            run = run + 1 if j and parts[j - 1] == q else 1
            den *= q * run
        rows.append((parts, sign ** len(parts), den))
    acc: dict = {}
    for (nu, s), c in v.terms.items():
        cn, cd, factor = _weight(c)
        lift = _lift(params, factor)
        for parts, num, den in rows:
            add_into(acc, (sort_parts(nu + parts), s), lift(Fraction(num * cn, den * cd)))
    return UVector._wrap(params, acc)


# -- the support grid and the identity sweeps -------------------------------------


def support_modes(u: UVector, v, depth) -> list[Fraction]:
    """Exponents m on the support grid of u against v whose images have
    weight in [0, depth], highest m (lowest output weight) first.

    The grid is read from the type of v: -rs/2k + Z over the term pairs of
    u at index r and v at index s when v is untwisted, r^2/4k + (1/2)Z over
    the terms of u when v is twisted.  The kernel's integer budget T
    (`_budget`) is the membership form of the same grid; off it every image
    is zero."""
    k = u.params.k
    m_high = u.max_weight() + v.max_weight() - 1
    m_low = m_high - Fraction(depth)
    if isinstance(v, TVector):
        step = Fraction(1, 2)
        offsets = {Fraction(r * r, 4 * k) % step for (_nu, r) in u.terms}
    else:
        step = Fraction(1)
        offsets = {Fraction(-r * s, 2 * k) % step for (_nu, r) in u.terms for (_mu, s) in v.terms}
    modes: set[Fraction] = set()
    for off in offsets:
        m = off + step * floor((m_high - off) / step)
        while m >= m_low:
            modes.add(m)
            m -= step
    return sorted(modes, reverse=True)


def tally(comparisons) -> tuple[bool, int]:
    """(ok, nontrivial) for an iterable of (lhs, rhs) pairs: whether every
    pair is equal, stopping at the first that is not, and how many of the
    equal pairs are nonzero.  A check with nontrivial == 0 compared only
    zeros and so showed nothing."""
    nontrivial = 0
    for lhs, rhs in comparisons:
        if lhs != rhs:
            return False, nontrivial
        nontrivial += bool(lhs)
    return True, nontrivial


def _multiple(x, u):
    """The rational c with x == c * u != 0, or None."""
    key, cu = next(iter(u.terms.items()), (None, None))
    cx = x.terms.get(key)
    if cx is None or not (cx.is_rational() and cu.is_rational()):
        return None
    c = cx.as_rational() / cu.as_rational()
    return c if x == u * c else None


def commutator_formula_check(mode, a: UVector, a_on, ns, u: UVector, vectors, depth, grid=None):
    """Check the commutator formula
    a_n u_q w - u_q a_n w = sum_{i>=0} C(n, i) (a_i u)_{n+q-i} w
    for the operator `mode` (vertex_mode, a twisted operator or an
    intertwiner, called as mode(u, q, w)) at each n of `ns` on each w of
    `vectors`.  `a_on(n, x)` is a_n on the source and the target alike
    (heis_act for a = alpha(-1)1, partial(vertex_mode, a) otherwise), and
    a_i u is vertex_mode(a, i, u).  With s = wt(a) - n - 1 the weight shift
    of a_n, q runs over the grid of u against `grid(w)` (w itself by
    default; theta(w) for a theta-composed intertwiner) from m_high + s,
    where u_q a_n w has weight 0, down to where u_q w has weight
    depth + |s|.  Each image is computed once per w and shared by every n.
    Returns `tally`'s (ok, nontrivial)."""
    wa = a.max_weight()
    # a_i u has weight wt(a) + wt(u) - i - 1, so it vanishes from i = wt(a) + wt(u) on.
    # A nonzero a_i u is read as c * sources[j]: as u itself when it is a multiple
    # of u (a_0 u = r u for alpha, L_0 u = wt(u) u for omega), so that both sides
    # read one set of images of u, and as its own source otherwise
    sources, reads = [u], []
    for i in range(floor(wa + u.max_weight())):
        ai_u = vertex_mode(a, i, u)
        c = _multiple(ai_u, u)
        if c is not None:
            reads.append((i, 0, c))
        elif ai_u:
            reads.append((i, len(sources), 1))
            sources.append(ai_u)
    # per n, the right side's (source, mode shift, coefficient C(n, i) c)
    terms = {n: [] for n in ns}
    for n in ns:
        for i, j, c in reads:
            binom = prod(Fraction(n - y, y + 1) for y in range(i))
            if binom:
                terms[n].append((j, n - i, binom * c))

    def comparisons():
        for w in vectors:
            images = {}

            def image(j, m):
                if (j, m) not in images:
                    images[j, m] = mode(sources[j], m, w)
                return images[j, m]

            for n in ns:
                s = wa - n - 1
                aw = a_on(n, w)
                for p in support_modes(u, w if grid is None else grid(w), depth + abs(s) + s):
                    q = p + s
                    parts = [image(j, q + shift) * c for j, shift, c in terms[n]]
                    rhs = sum(parts[1:], parts[0]) if parts else w * 0
                    yield a_on(n, image(0, q)) - mode(u, q, aw), rhs

    return tally(comparisons())
