"""Mode actions of the untwisted vertex operators on the lattice Fock spaces.

A mode is indexed by the rational exponent m with the convention that the
operator attached to u expands as sum_m u_m z^(-m-1); vertex_mode(u, m, v)
returns u_m v exactly.  For u supported at lattice index r acting on terms
at index s the support grid of m is -rs/2k + Z; `support_modes` lists it
(and the twisted grid) for sweeps, and every identity checker sweeps it.

Evaluation is by explicit finite expansion in three stages, with the
paths merged between them: the factors of u are contracted against the
target's oscillators and lattice index or left pending; the annihilation
exponential removes oscillators of the target; and the creation side is
enumerated against the exactly determined weight budget, which is where
m enters.  No series tails are ever truncated, so results are exact.  The
same kernel, `mode_kernel_sum`, also evaluates the half-odd expansion
behind the twisted operators.

The first two stages (`_skeleton`) do not read m.  Their merged result
for the latest input is the one "skeleton" entry of `RingParams.memo`, so
a sweep over m, which every caller makes, walks them once.  The creation
stage, where the pending oscillator factors and the creation exponential
share what is left of the weight budget, depends only on the ring, the
lattice index, the pending factors and the budget.  It is walked once per
ring (`_creation_table`, in `RingParams.memo`), its rows merged by their
sorted parts, and every later call only reads the rows.

`vertex_mode` groups the terms of u by lattice index and passes each
group to the kernel in one call, against one term of v at a time.  The
rational coefficients of u and v ride the kernel as its integer term
weights, so each coefficient the kernel returns is final and is wrapped
as its Scalar as it is; only a coefficient that is not rational is
applied as a Scalar factor after the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, floor, gcd, lcm

from .fock import (
    TVector,
    UVector,
    add_into,
    heis_act,
    partitions_of,
    sort_parts,
    u_term,
)
from .ring import RingParams, Scalar


@lru_cache(maxsize=None)
def _dcoef(n: int, jj: int) -> tuple[int, int]:
    """Coefficient of alpha(j) z^(-j-n) in the (n-1)-th divided z-derivative
    of the oscillator field, for the doubled mode jj = 2j, as a reduced
    integer pair (numerator, denominator)."""
    q = n - 1
    num = 1
    for y in range(q):
        num *= jj + 2 * (n - 1 - y)
    den = 2**q * factorial(q)
    g = gcd(num, den)
    return (-1) ** q * num // g, den // g


def _creation_table(
    params: RingParams, r: int, w: int, twisted: bool, pending: tuple = ()
) -> tuple:
    """((parts, num, den), ...): the creation stage of the kernel at doubled
    weight w, each coefficient a reduced integer pair, memoized on `params`
    for the life of the ring.

    With no `pending` factors these are the terms of the creation
    exponential of lambda_r.  Parts are doubled modes, odd when twisted and
    even otherwise, listed in descending order; a part N carries
    (r/2k)/(N/2) = r/(kN), and i equal parts a further 1/i!.  Untwisted
    budgets are always even (the kernel's z-budget and every created part
    are), so an odd untwisted w has no terms.  One partition walk carries
    each coefficient as an integer numerator and denominator: the i-th copy
    of a part N multiplies them by r and k*N*i.

    Each pending factor a(-n) takes a created part p (the coefficient of
    alpha(-p/2) in its divided derivative, see `_dcoef`) and leaves w - p
    to the factors after it and to the exponential.  Rows that end on the
    same sorted parts are merged into one, and rows that cancel are
    dropped."""
    key = ("create", r, pending, w, twisted)
    table = params.memo.get(key)
    if table is None:
        lo = 1 if twisted else 2
        if pending:
            n, rest = pending[0], pending[1:]
            merged: dict[tuple, Fraction] = {}
            for p in range(lo, w - lo * len(rest) + 1, 2):
                dc, dd = _dcoef(n, -p)
                if dc:
                    for parts, e, ed in _creation_table(params, r, w - p, twisted, rest):
                        parts = tuple(sorted(parts + (p,), reverse=True))
                        merged[parts] = merged.get(parts, 0) + Fraction(dc * e, dd * ed)
            table = tuple((parts, c.numerator, c.denominator) for parts, c in merged.items() if c)
        elif not r:
            table = (((), 1, 1),) if w == 0 else ()
        elif not twisted and w % 2:
            table = ()
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
            table = tuple(rows)
        params.memo[key] = table
    return table


def halve(key: tuple) -> tuple:
    """The Fraction parts p of a doubled twisted key (2p, ...), as the
    twisted vector keys hold them."""
    return tuple(Fraction(p, 2) for p in key)


def _settle(slots: dict) -> dict:
    """{key: {den: num}} -> {key: (num, den)}: the slots of each key summed
    over their least common denominator, so den > 0, with no gcd; keys
    that cancel are dropped."""
    out = {}
    for key, slot in slots.items():
        if len(slot) == 1:
            [(l, n)] = slot.items()
        else:
            l = lcm(*slot)
            n = sum(num * (l // den) for den, num in slot.items())
        if n:
            out[key] = (n, l)
    return out


def _skeleton(params: RingParams, r: int, mu: tuple, s: int, twisted: bool, terms: tuple) -> tuple:
    """Stages 1 and 2 of `mode_kernel_sum`, the ones that do not read m, as
    ((pending, off, need, ((kept, num, den), ...)), ...).

    Stage 1 contracts each factor a(-n) of each term against a part of mu
    or pairs it with the lattice index s, or leaves it pending; its paths
    merge into states (parts of mu left, pending, offset).  Stage 2 runs the
    annihilation exponential once per state, and its paths merge into
    creation states (kept, pending, offset).  An offset is what a path adds
    to the z-budget, so a creation state meets the budget T + off, and
    need = lo * len(pending) - off is the least T that leaves each pending
    factor a part.  Creation states are grouped by (pending, off), all that
    the creation stage reads besides T."""
    k = params.k
    counts0: dict[int, int] = {}
    for p in mu:
        p2 = 2 * p.numerator // p.denominator
        counts0[p2] = counts0.get(p2, 0) + 1
    contracted: dict[tuple, dict[int, int]] = {}

    def factors(
        nu: tuple, idx: int, counts: dict, off: int, num: int, den: int, pending: tuple
    ) -> None:
        if idx == len(nu):
            left = tuple(sorted((p, mult) for p, mult in counts.items() if mult))
            slot = contracted.setdefault((left, pending, off), {})
            slot[den] = slot.get(den, 0) + num
            return
        n_i = nu[idx]
        factors(nu, idx + 1, counts, off, num, den, pending + (n_i,))
        if s:
            dc, dd = _dcoef(n_i, 0)
            factors(nu, idx + 1, counts, off + 2 * n_i, num * dc * s, den * dd, pending)
        for j in sorted(counts):
            mult = counts[j]
            if not mult:
                continue
            dc, dd = _dcoef(n_i, j)
            if dc:
                c2 = dict(counts)
                c2[j] = mult - 1
                c = num * dc * mult * k * j
                factors(nu, idx + 1, c2, off + j + 2 * n_i, c, den * dd, pending)

    for d, nu, num, den in terms:
        factors(nu, 0, counts0, 2 * d, num, den, ())

    created: dict[tuple, dict[int, int]] = {}
    for (left, pending, off0), (num, den) in _settle(contracted).items():
        paths = [((), off0 + 2 * sum(pending), num)]
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
            slot = created.setdefault((kept, pending, off), {})
            slot[den] = slot.get(den, 0) + c

    lo = 1 if twisted else 2
    groups: dict[tuple, list] = {}
    for (kept, pending, off), (num, den) in _settle(created).items():
        groups.setdefault((pending, off), []).append((kept, num, den))
    return tuple(
        (pending, off, lo * len(pending) - off, tuple(rows))
        for (pending, off), rows in groups.items()
    )


def mode_kernel_sum(
    params: RingParams,
    r: int,
    mu: tuple,
    s: int,
    m: Fraction,
    twisted: bool,
    terms: tuple,
) -> dict[tuple, Fraction]:
    """The sum over (d, nu, num, den) in `terms` of num/den times mode
    m - d of a(-nu) e[r], with integer d, num and den: every term of u at
    lattice index r on one term of v, a(-mu) e[s] (output index r + s)
    untwisted, the half-odd partition mu with s = 0 twisted (the prefactor
    2^(-r^2/2k) left out).  Keys are doubled parts, values nonzero Fractions.

    Work is in doubled integer units: a part p of mu and of the output is
    held as 2p, even untwisted and odd twisted, and the z-budget is the one
    integer T = 2(-m-1-rs/2k) untwisted or 2(-m-1+r^2/4k) twisted (the
    z^{lambda(0)} factor, resp. the exponent shift, folded in), raised by
    2d for the term at d.  An m with T off that grid gives {} at once.

    Three stages run in turn, with the paths merged between them.
    1. Contractions: each factor a(-n) is contracted against a part of mu,
       paired with the lattice index s, or left pending.
    2. Annihilation: the annihilation exponential removes parts of what is
       left of mu with binomial weights, once per distinct state of stage 1.
    3. Creation: the pending factors and the creation exponential share
       what is left of T, read from the memoized `_creation_table`.
    Only stage 3 reads m.  Stages 1 and 2 (`_skeleton`) depend on
    (r, mu, s, twisted, terms) alone, and the skeleton of the latest such
    input is kept as the one "skeleton" entry of `RingParams.memo`, so a
    sweep over m walks them once.  The lattices differ only in the
    smallest created part (2 or 1) and in the s-term.

    Every path carries its coefficient as an integer numerator and
    denominator, and each merged state and output key collects them in a
    {den: num} slot, with no gcd.  A merged state becomes one integer pair
    between the stages (states that cancel are dropped), and an output key
    one Fraction once every term is in; keys that cancel are dropped."""
    k = params.k
    a, b = m.numerator, m.denominator
    if twisted:
        t0, rem = divmod(r * r * b - 4 * k * (a + b), 2 * k * b)
    else:
        t0, rem = divmod(-r * s * b - 2 * k * (a + b), k * b)
    if rem or (not twisted and t0 % 2):
        return {}
    given = (r, mu, s, twisted, terms)
    skeleton = params.memo.get("skeleton")
    if skeleton is None or skeleton[0] != given:
        skeleton = params.memo["skeleton"] = (given, _skeleton(params, *given))
    out: dict[tuple, dict[int, int]] = {}
    for pending, off, need, rows in skeleton[1]:
        if t0 < need:
            continue
        table = _creation_table(params, r, t0 + off, twisted, pending)
        for kept, num, den in rows:
            for parts, e, ed in table:
                if kept:
                    parts = tuple(sorted(kept + parts, reverse=True))
                slot = out.setdefault(parts, {})
                dd = den * ed
                slot[dd] = slot.get(dd, 0) + num * e
    return {key: Fraction(num, den) for key, (num, den) in _settle(out).items()}


def _weight(c: Scalar) -> tuple[int, int, Scalar | None]:
    """A coefficient as an integer weight num/den and the factor left after
    it: (num, den, None) when c is rational, (1, 1, c) otherwise."""
    if c.is_rational():
        q = c.as_rational()
        return q.numerator, q.denominator, None
    return 1, 1, c


def _lift(params: RingParams, q: Fraction, factor: Scalar | None) -> Scalar:
    """The Scalar q times `factor` (None for 1): a rational q is wrapped as
    it is, with no further Fraction."""
    return Scalar(params, {(0, 0): q}) if factor is None else factor * q


def vertex_mode(u: UVector, m, v: UVector, cutoff=None) -> UVector:
    """The mode u_m of the untwisted operator of u, applied to v.

    The terms of u are grouped by lattice index r, and each group meets
    each term of v in one `mode_kernel_sum` call.  Rational coefficients of
    u and v ride the kernel as its integer term weights, so each Fraction
    it returns is final and is wrapped as its Scalar directly.  A term of u
    whose coefficient is not rational goes to the group of that
    coefficient at its r, and the coefficient, like one of v that is not
    rational, is applied as a Scalar factor after the kernel.

    Exact; `cutoff`, when given, must dominate the weight of v (guard
    against accidentally feeding unbounded sweeps).
    """
    params = u.params
    if params != v.params:
        raise ValueError("vertex_mode: mixed ring parameters")
    m = Fraction(m)
    if cutoff is not None and v and v.max_weight() > Fraction(cutoff):
        raise ValueError(
            f"cutoff {cutoff} is below the weight {v.max_weight()} of the target"
        )
    groups: dict[tuple, list] = {}  # (r, factor of u) -> [(nu, num, den), ...]
    for (nu, r), cu in u.terms.items():
        num, den, factor = _weight(cu)
        groups.setdefault((r, factor), []).append((nu, num, den))
    acc: dict = {}
    for (r, uf), rows in groups.items():
        for (mu, s), cv in v.terms.items():
            vn, vd, vf = _weight(cv)
            terms = tuple((0, nu, num * vn, den * vd) for nu, num, den in rows)
            image = mode_kernel_sum(params, r, mu, s, m, False, terms)
            if image:
                factor = vf if uf is None else uf if vf is None else uf * vf
                for key, q in image.items():
                    add_into(acc, (tuple([p >> 1 for p in key]), r + s), _lift(params, q, factor))
    return UVector._wrap(params, acc)


# -- distinguished vectors -------------------------------------------------------


def omega_vec(params: RingParams) -> UVector:
    """Conformal vector (1/4k) a(-1)^2 e[0]."""
    return u_term(params, [1, 1], 0, Fraction(1, 4 * params.k))


def e_vec(params: RingParams) -> UVector:
    """E = e[2k] + e[-2k], the symmetric weight-k lattice vector."""
    from .fock import lattice_vector

    return lattice_vector(params, 2 * params.k) + lattice_vector(params, -2 * params.k)


def f_vec(params: RingParams) -> UVector:
    """F = e[2k] - e[-2k], the antisymmetric partner of E."""
    from .fock import lattice_vector

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
        for parts, num, den in rows:
            coeff = _lift(params, Fraction(num * cn, den * cd), factor)
            add_into(acc, (sort_parts(nu + parts), s), coeff)
    return UVector._wrap(params, acc)


# -- the support grid and the identity sweeps -------------------------------------


def support_modes(u: UVector, v, depth) -> list[Fraction]:
    """Exponents m on the support grid of u against v whose images have
    weight in [0, depth], highest m (lowest output weight) first.

    The grid is read from the type of v: -rs/2k + Z over the term pairs of
    u at index r and v at index s when v is untwisted, r^2/4k + (1/2)Z over
    the terms of u when v is twisted.  `mode_kernel_sum`'s integer budget
    T is the membership form of the same grid; off it every image is zero."""
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


def commutator_check(mode, u: UVector, ns, vectors, depth) -> tuple[bool, int]:
    """Check [alpha(n), Y(u, z)] = r z^n Y(u, z) for u = e[r], that is
    alpha(n) u_{p-n} w - u_{p-n} alpha(n) w = r u_p w, for the operator
    `mode` (vertex_mode with integer n on untwisted w, or a twisted
    operator with half-odd n) at each n of `ns` on each w of `vectors`, at
    every p of `support_modes(u, w, depth + |n| - n)`: the left-side mode
    p - n then reaches weight depth + |n| for either sign of n.  The images
    u_m w are computed once per w and shared by every n.  Returns `tally`'s
    (ok, nontrivial)."""
    r = next(iter(u.terms))[1]

    def comparisons():
        for w in vectors:
            images = {}
            for n in ns:
                nw = heis_act(n, w)
                for p in support_modes(u, w, depth + abs(n) - n):
                    for m in (p, p - n):
                        if m not in images:
                            images[m] = mode(u, m, w)
                    yield heis_act(n, images[p - n]) - mode(u, p - n, nw), images[p] * r

    return tally(comparisons())
