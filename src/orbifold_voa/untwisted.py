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
integer units: a part p of mu is walked as 2p, even untwisted and odd
twisted, and the z-budget is the one integer T = 2(-m-1-rs/2k)
untwisted or 2(-m-1+r^2/4k) twisted (the z^{lambda(0)} factor, resp. the
exponent shift, folded in), raised by 2d for the row at d (`_budget`);
an m with T off that grid has no image.  Only the budget arithmetic
stays doubled: the creation tables and kept parts, and so an image's
keys, hold an untwisted part as p, as a UVector key does, and a twisted
one as the odd integer 2p (the twisted operators halve it once per
ring, as they make each output key).  An image is written in the
operator's own terms: its output keys map to nonzero Scalars.

Evaluation is by explicit finite expansion in three stages, with equal
paths merged as soon as they meet:
1. contractions: each factor a(-n) is contracted against a part of mu,
   paired with the lattice index s, or left pending, and the paths that
   reach one state merge after each factor;
2. annihilation: the annihilation exponential removes parts of what is
   left of mu with binomial weights, once per distinct state of stage 1;
3. creation (`_create`): the pending factors and the creation
   exponential share what is left of T, which is where m enters.
No series tails are ever truncated, so results are exact.  The lattices
differ only in the smallest created part (2 or 1) and in the s-term.

Stages 1 and 2 (`_skeleton`) do not read m.  The creation stage depends
only on the ring, the lattice index, the pending factors and the budget.
It is walked once per ring (`_creation_table`), and every later call
only reads the rows: the tables of one (r, pending, lattice) are one dict
{budget: table} in `RingParams.memo`, and each row of a skeleton holds
the dict of its pending factors, so stage 3 finds a table with one dict
lookup.  The creation exponential is walked once per |r|: each created
part carries one factor r, so the table at -r is the one at r with its
odd-length rows negated.  Every walk sums plain ints over one denominator
fixed before it starts (a factor a(-n) has all its coefficients over
`_dden(n)`): stages 1 and 2 over the one of `_skeleton`, stage 3 over
that one times the least common multiple of the denominators of the
tables that meet the budget.  Inside the kernel a partition is also one
int, its multiplicity code (`_decode`: 16 bits per part size, in the units
of the tables), so two partitions merge by adding their codes: a table
row and a skeleton row carry the code of their parts, and stage 3 and the
pending walk sum contributions per code with no tuple made.  States and
keys that cancel are dropped, and at the end each surviving code becomes
its output key and its sum one Scalar, each made once (`_create`): an
untwisted-shaped key is (parts, output index), the parts read through the
"decode" entry of the memo (`_Decoded`) or, where one row of the
skeleton meets the budget and keeps no parts, from its table rows; a
twisted key comes from the ring's key map of its target sector.

One driver, `term_pair_images`, runs the kernel for the untwisted
operator, the untwisted intertwiners and the twisted operators alike.  It
groups the terms of u by lattice index and passes each group to the
kernel in one call per term of v, with the rational coefficients of u and
v as the kernel's integer term weights; only a coefficient that is not
rational is applied after the kernel.  The operators differ in the kernel
rows of a term of u (the term itself, or its exp(Delta_z) expansion), in
the vector v stands for (an intertwiner's theta-composed, phase-twisted
target) and in where they place the output keys, which each plan item
holds as data: an output index or a key map, and the lift of its
factor.  It returns the operator's image, the term pairs' images summed:
an image goes in whole when its plan item is the first at its slot
(output index r + s untwisted, target sector twisted).  Everything
the driver does before the budget is fixed (the target, the groups, the
weighted rows, the placement of each term pair and the skeletons) does
not read m either, so it is planned whole once per (u, v) pair and
operator: the plan of the latest pair is the one "pair" entry of
`RingParams.memo`, and a sweep over m, which every caller makes, only
fixes each budget and runs the creation stage, which writes the placed
image.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, floor, gcd, lcm, perm, prod

from .fock import (
    TVector,
    UVector,
    add_block,
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


def _decode(code: int) -> tuple:
    """The parts of a multiplicity code, in descending order.  The code of
    a partition into integer parts holds the multiplicity of a part p in
    bits 16p to 16p + 15, so a partition is one int and two partitions
    merge by adding their codes."""
    parts: list[int] = []
    while code:
        shift = (code.bit_length() - 1) >> 4 << 4
        mult = code >> shift
        parts += [shift >> 4] * mult
        code -= mult << shift
    return tuple(parts)


class _Decoded(dict):
    """{code: parts}, filled with `_decode` on first lookup: the "decode"
    entry of `RingParams.memo`, so a surviving code becomes its key tuple
    once per ring."""

    def __missing__(self, code: int) -> tuple:
        parts = self[code] = _decode(code)
        return parts


def _decoded(params: RingParams) -> _Decoded:
    """The ring's "decode" memo entry (`_Decoded`)."""
    keys = params.memo.get("decode")
    if keys is None:
        keys = params.memo["decode"] = _Decoded()
    return keys


# a table's rows and a skeleton's kept parts each hold fewer than 2^15 equal
# parts, so their sum fits the 16 bits of its field in a multiplicity code
_MAX_COPIES = (1 << 15) - 1


def _creation_table(
    params: RingParams, r: int, w: int, twisted: bool, pending: tuple = ()
) -> tuple:
    """(den, ((parts, num, code), ...)): the creation stage of the kernel at
    doubled weight w, each coefficient num/den over the one least common
    denominator den of the table and code the multiplicity code of parts
    (`_decode`), memoized for the life of the ring as entry w of the
    ("create", r, pending, twisted) dict of `params.memo`, the dict that a
    `_skeleton` row holds.  A w whose rows could hold more than
    `_MAX_COPIES` equal parts raises OverflowError before any walk.

    With no `pending` factors these are the terms of the creation
    exponential of lambda_r.  The walk is over doubled modes N, odd when
    twisted and even otherwise; a row holds an untwisted part as N/2 and a
    twisted one as N, listed in descending order.  A part N carries
    (r/2k)/(N/2) = r/(kN), and i equal parts a further 1/i!.  One
    partition walk at r > 0 carries each coefficient as an integer
    numerator and denominator and each partition as its code: the i-th
    copy of a part N multiplies them by r/g and (k/g)*N*i, g = gcd(r, k).
    A branch where only the smallest part lo still fits ends at once: its
    c remaining parts are forced, and they multiply the coefficient by
    (r/g)^c over (k/g * lo)^c times the next c values of i.  Since every
    part carries one factor r, the table at -r is read from the memo entry
    at r (walked first if it is missing) with its odd-length rows negated,
    so each |r| is walked once.

    Each pending factor a(-n) takes a created part p (the coefficient of
    alpha(-p/2) in its divided derivative, see `_dcoef`) and leaves w - p
    to the factors after it and to the exponential.  Its rows lie over the
    lcm of the tables it reads times `_dden(n)`, rows that end on the same
    code sum plain ints, and rows that cancel are dropped; the table is
    reduced by one gcd at the end."""
    tables = params.memo.setdefault(("create", r, pending, twisted), {})
    table = tables.get(w)
    if table is None:
        lo = 1 if twisted else 2
        half = lo - 1  # a doubled part p leaves as p >> half
        if w // lo > _MAX_COPIES:
            raise OverflowError(f"a creation table at weight {w} could hold more than {_MAX_COPIES} equal parts")
        if pending:
            n, rest = pending[0], pending[1:]
            subs = []
            for p in range(lo, w - lo * len(rest) + 1, 2):
                dc = _dcoef(n, -p)
                if dc:
                    subs.append((1 << ((p >> half) << 4), dc, *_creation_table(params, r, w - p, twisted, rest)))
            den = lcm(*[ed for _bit, _dc, ed, _rows in subs])
            merged: dict[int, int] = {}
            for bit, dc, ed, rows in subs:
                dc *= den // ed
                for _parts, e, code in rows:
                    code += bit
                    merged[code] = merged.get(code, 0) + dc * e
            den *= _dden(n)
            g = gcd(den, *merged.values())
            table = (den // g, tuple([(_decode(code), num // g, code) for code, num in merged.items() if num]))
        elif not r:
            table = (1, (((), 1, 0),) if w == 0 else ())
        elif r < 0:
            # every created part carries one factor r
            den, rows = _creation_table(params, -r, w, twisted)
            table = (den, tuple([(parts, -num if len(parts) % 2 else num, code) for parts, num, code in rows]))
        else:
            g = gcd(r, params.k)
            rg, kg = r // g, params.k // g
            rows = []
            # depth first on an explicit stack; a node pushes its next parts
            # smallest first, so the largest is walked first
            stack = [(w, w, (), 0, 1, 1, 0)]
            while stack:
                left, top, parts, code, num, den, run = stack.pop()
                if min(left, top) < lo + 2:
                    # only parts lo still fit: the c left are forced, copies
                    # run + 1 to run + c of lo when the last part was lo
                    c, rem = divmod(left, lo)
                    if rem:
                        continue
                    if c:
                        num *= rg**c
                        den *= (kg * lo) ** c * perm((run if top == lo else 0) + c, c)
                        parts += (lo >> half,) * c
                        code += c << ((lo >> half) << 4)
                    g = gcd(num, den)
                    rows.append((parts, num // g, den // g, code))
                    continue
                num, den = num * rg, den * kg
                for n in range(lo, min(left, top) + 1, 2):
                    i = run + 1 if n == top else 1
                    p = n >> half
                    stack.append((left - n, n, parts + (p,), code + (1 << (p << 4)), num, den * n * i, i))
            # the lcm of reduced rows is their least common denominator
            den = lcm(*[d for _parts, _num, d, _code in rows])
            table = (den, tuple([(parts, num * (den // d), code) for parts, num, d, code in rows]))
        tables[w] = table
    return table


def halve(key: tuple) -> tuple:
    """The Fraction parts p of a doubled twisted key (2p, ...), as the
    twisted vector keys hold them."""
    return tuple(Fraction(p, 2) for p in key)


def _skeleton(params: RingParams, r: int, mu: tuple, s: int, twisted: bool, terms: tuple) -> tuple:
    """Stages 1 and 2 of the mode kernel, the ones that do not read m, as
    (den, ((need, off, num, kept, tables, pending), ...)): one flat tuple
    of rows, each the multiplicity code (`_decode`) of its kept parts (in the
    units of the creation table's rows) with an integer numerator num over
    the one denominator den of the walk, the pending factors and `tables`,
    the ring's creation tables of (r, pending, twisted) as the dict
    {budget: table} that `_creation_table` fills, so stage 3 reads a row's
    table with no call and no key tuple.  A mu of more than `_MAX_COPIES`
    parts raises OverflowError, since a kept part could overflow its field
    of the code.

    Stage 1 contracts each factor a(-n) of each term against a part of mu
    or pairs it with the lattice index s, or leaves it pending; after each
    factor, the paths of a term that reach one state (parts of mu left,
    pending, offset) merge, so each state takes the next factor once.
    pending is an ordered subsequence of the term's nu, so merged paths go
    on alike.  A state is kept when its paths cancel, and the states reach
    stage 2 in the order of their first paths.  Stage 2 runs the
    annihilation exponential once per state, and its paths merge into
    creation states (kept, pending, offset).  An offset is what a path adds
    to the z-budget, so a creation state meets the budget T + off, and
    need = lo * len(pending) - off is the least T that leaves each pending
    factor a part.  The rows of one (pending, off), all that the creation
    stage reads besides T, are adjacent, in the order of their first
    creation state.

    den is the lcm over the terms (d, nu, num, den_t) of den_t times
    `_dden(n)` for each factor a(-n) in nu, and a term's paths start at num
    raised to den.  A contracted or paired factor multiplies a path by its
    `_dcoef` numerator and a pending one by `_dden(n)`, which its creation
    table divides out, so states sum plain ints; those that cancel go."""
    k = params.k
    if len(mu) > _MAX_COPIES:
        raise OverflowError(f"a kernel skeleton could keep more than {_MAX_COPIES} equal parts")
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
    left0 = tuple(sorted(counts0.items()))
    for (d, nu, num, _den), scale in zip(terms, scales):
        states = {(left0, (), 2 * d): num * (common // scale)}
        for n in nu:
            step: dict[tuple, int] = {}
            pend, pair = _dden(n), _dcoef(n, 0) * s
            for (left, pending, off), c in states.items():
                state = (left, pending + (n,), off)
                step[state] = step.get(state, 0) + c * pend
                if s:
                    state = (left, pending, off + 2 * n)
                    step[state] = step.get(state, 0) + c * pair
                for i, (j, mult) in enumerate(left):
                    dc = _dcoef(n, j)
                    if dc:
                        # a part whose last copy is contracted leaves the state
                        rest = left[:i] + ((j, mult - 1),) * (mult > 1) + left[i + 1 :]
                        state = (rest, pending, off + j + 2 * n)
                        step[state] = step.get(state, 0) + c * dc * mult * k * j
            states = step
        for state, c in states.items():
            contracted[state] = contracted.get(state, 0) + c

    lo = 1 if twisted else 2
    half = lo - 1  # a doubled part p leaves as p >> half
    created: dict[tuple, int] = {}
    for (left, pending, off0), c0 in contracted.items():
        if not c0:
            continue
        paths = [(0, off0 + 2 * sum(pending), c0)]
        for p, m_p in left:
            bit = 1 << ((p >> half) << 4)  # one kept part p >> half
            step = []
            for kept, off, c in paths:
                step.append((kept + bit * m_p, off, c))
                if r:
                    binom = 1
                    for j in range(1, m_p + 1):
                        binom = binom * (m_p - j + 1) // j
                        step.append((kept + bit * (m_p - j), off + p * j, c * (-r) ** j * binom))
            paths = step
        for kept, off, c in paths:
            state = (kept, pending, off)
            created[state] = created.get(state, 0) + c

    groups: dict[tuple, list] = {}
    for (kept, pending, off), c in created.items():
        if c:
            groups.setdefault((pending, off), []).append((kept, c))
    rows = []
    for (pending, off), group in groups.items():
        tables = params.memo.setdefault(("create", r, pending, twisted), {})
        for kept, c in group:
            rows.append((lo * len(pending) - off, off, c, kept, tables, pending))
    return common, tuple(rows)


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


def _create(params: RingParams, r: int, t0: int, twisted: bool, skeleton: tuple, keys, lift) -> dict:
    """Stage 3 of the mode kernel on the rows of a `_skeleton` at the
    budget t0, written in the operator's own terms: a fresh {output key:
    nonzero Scalar}, placed by `keys` and lifted by `lift` (`_lift`).

    A row meets the budget when t0 >= need; it reads its creation table at
    t0 + off from the dict it holds (walked on a miss).  The rows share the
    skeleton's one denominator den, and each table has its own: the live
    rows are scaled to the least common multiple of their tables'
    denominators, so an output key (the kept parts merged with the
    table's, the sum of their multiplicity codes) sums plain ints over den
    times that lcm in a dict keyed by the code, first contribution first.
    Each surviving code becomes its output key once: with `keys` an
    output lattice index, the key (parts, keys), the parts through the
    ring's "decode" entry (`_decoded`); otherwise `keys` is a map from code
    to output key (`twisted._SectorKeys`).  A single live row that keeps no
    parts meets no other key and decodes nothing: an untwisted-shaped key
    takes the parts its table row already holds.  Each sum n then becomes
    its Scalar in the same pass, n/den times the factor that `lift` holds
    as integers (`_lift`): a factor on one basis element with numerator f
    over fden gives the key {basis: n f}/(den fden) with one gcd and no
    Fraction, so a +-1 lift keeps its sign in the numerator; a factor on
    several basis elements goes through `_lifted`.  So every output key
    and Scalar is made once."""
    den, rows = skeleton
    live = []
    tden = 1
    for need, off, num, kept, tables, pending in rows:
        if t0 < need:
            continue
        table = tables.get(t0 + off)
        if table is None:
            table = _creation_table(params, r, t0 + off, twisted, pending)
        if table[1]:
            tden = lcm(tden, table[0])
            live.append((num, kept, table))
    if not live:
        return {}
    den *= tden
    index = type(keys) is int
    pairs = None
    if len(live) == 1:
        # table rows have distinct parts, so the keys of one row meet no other
        ((num, kept, (_tden, table)),) = live
        if index and not kept:
            pairs = [((parts, keys), num * e) for parts, e, _code in table]
        else:
            merged = {code + kept: num * e for _parts, e, code in table}
    else:
        merged = {}
        for num, kept, (d, table) in live:
            num *= tden // d
            for _parts, e, code in table:
                code += kept
                merged[code] = merged.get(code, 0) + num * e
    if pairs is None and index:
        parts = _decoded(params)
        pairs = [((parts[code], keys), n) for code, n in merged.items() if n]
    elif pairs is None:
        pairs = [(keys[code], n) for code, n in merged.items() if n]
    fnums, fden = lift
    if len(fnums) > 1:
        return {key: _lifted(params, lift, n, den) for key, n in pairs}
    ((basis, f),) = fnums
    den *= fden
    out = {}
    for key, n in pairs:
        n *= f
        g = gcd(n, den)
        out[key] = Scalar(params, {basis: n // g}, den // g)
    return out


def _weight(c: Scalar) -> tuple[int, int, Scalar | None]:
    """A coefficient as an integer weight num/den and the factor left after
    it: (num, den, None) when c is rational, (1, 1, c) otherwise."""
    nums = c.nums
    if len(nums) == 1 and (0, 0) in nums:
        return nums[(0, 0)], c.den, None
    return 1, 1, c


def _lift(factor: Scalar | None) -> tuple:
    """How a kernel coefficient n/den becomes n/den times `factor` (None
    for 1), as the factor's integer form: ((basis, numerator), ...) and its
    denominator, so the product is {basis: n * numerator}/(den *
    denominator), reduced (`_lifted`).  It holds no Scalar and no ring, so
    a plan that holds it in `RingParams.memo` does not keep its ring
    alive."""
    if factor is None:
        return (((0, 0), 1),), 1
    return tuple(factor.nums.items()), factor.den


def _lifted(params: RingParams, lift: tuple, n: int, den: int) -> Scalar:
    """The nonzero n/den, den > 0, times the factor of `lift` (`_lift`), as
    a Scalar."""
    fnums, fden = lift
    den *= fden
    if len(fnums) == 1:
        ((basis, f),) = fnums
        n *= f
        g = gcd(n, den)
        return Scalar(params, {basis: n // g}, den // g)
    return Scalar._reduced(params, {basis: n * f for basis, f in fnums}, den)


def _plan(params: RingParams, u: UVector, v, expand, place, twisted: bool) -> tuple:
    """The items of `term_pair_images` for u and v, one per group of u and
    term of v, each (r, s, keys, lift, first, skeleton): the kernel's
    lattice indices, the placement `place(params, r, index, factor)` for
    the index or sector of v's term and the factor, as data (see
    `_create`), whether no earlier item has its slot (keys, or the sector
    of a key map), and the `_skeleton` of the term pair's kernel rows."""
    groups: dict[tuple, list] = {}  # (r, factor of u) -> kernel rows
    for (nu, r), cu in u.terms.items():
        num, den, factor = _weight(cu)
        rows = groups.setdefault((r, factor), [])
        for d, nu2, n2, d2 in expand(params, nu, r):
            rows.append((d, nu2, num * n2, den * d2))
    plan = []
    slots = set()
    for (r, uf), rows in groups.items():
        for (mu, index), cv in v.terms.items():
            vn, vd, vf = _weight(cv)
            terms = tuple([(d, nu, num * vn, den * vd) for d, nu, num, den in rows])
            factor = vf if uf is None else uf if vf is None else uf * vf
            s = 0 if twisted else index
            keys, lift = place(params, r, index, factor)
            slot = keys if type(keys) is int else keys.sector
            plan.append((r, s, keys, lift, slot not in slots, _skeleton(params, r, mu, s, twisted, terms)))
            slots.add(slot)
    return tuple(plan)


def term_pair_images(u: UVector, m, v: UVector | TVector, expand, place, target=None) -> dict:
    """The image at mode m, a fresh {output key: nonzero Scalar}: the one
    sum over term pairs, each group of terms of u on each term of v,
    behind every mode operator.

    `expand(params, nu, r)`, a module-level function, lists the kernel rows
    (d, nu2, num, den) of the term a(-nu) e[r] of u.  The terms of u are
    grouped by r and by the part of their coefficient that is not rational
    (`_weight`); the rational parts of u and of the term of v scale the
    rows.  A TVector v runs the kernel twisted, its keys holding a sector
    where untwisted keys hold a lattice index.  `place(params, r, index,
    factor)`, a module-level function too, settles as data where the image
    of group r on a term of v at index or sector `index` goes, whose factor
    is the non-rational parts of both coefficients (None for 1): (keys,
    lift), an output lattice index or a map from multiplicity code to
    output key, and the `_lift` of the factor.  So a term pair's image is
    the operator's own {output key: Scalar} (`_create`): the first nonzero
    one becomes the result, and a later one goes in whole when its item is
    the first at its slot (the index, or the key map's sector), key by key
    otherwise.  `target`, None or a pair (function, argument) that
    compares by content, makes the kernel pair u with function(argument,
    v) in place of v.

    None of this reads m, so it is planned once per (u, v) pair: the one
    "pair" entry of `RingParams.memo` holds the input (expand, place,
    target, twisted, and u and v as lists of (key, coefficient numerators,
    denominator), no Scalar and no vector) and the plan (`_plan`), one
    item per group and term of the target with its placement, slot flag
    and `_skeleton`, the target made and every skeleton walked as the plan
    is built.  A call with the same input, every later mode of a sweep,
    only computes each item's budget (`_budget`, None off the item's grid)
    and runs stage 3 (`_create`), which writes the placed image; a call
    with another input replaces the entry, so the memo does not grow with
    the inputs."""
    params = u.params
    # the ring is nearly always the one object; RingParams.__eq__ is a Python call
    if v.params is not params and v.params != params:
        raise ValueError("mode operator: mixed ring parameters")
    if not isinstance(m, (int, Fraction)):
        m = Fraction(m)
    twisted = isinstance(v, TVector)
    given = (
        expand,
        place,
        target,
        twisted,
        [(key, c.nums, c.den) for key, c in u.terms.items()],
        [(key, c.nums, c.den) for key, c in v.terms.items()],
    )
    entry = params.memo.get("pair")
    if entry is None or entry[0] != given:
        w = v if target is None else target[0](target[1], v)
        entry = params.memo["pair"] = (given, _plan(params, u, w, expand, place, twisted))
    acc: dict = {}
    for r, s, keys, lift, first, skeleton in entry[1]:
        t0 = _budget(params, r, s, m, twisted)
        if t0 is None:
            continue
        image = _create(params, r, t0, twisted, skeleton, keys, lift)
        if not acc:
            acc = image
        elif image:
            add_block(acc, image, first)
    return acc


def _one_row(params: RingParams, nu: tuple, r: int) -> tuple:
    """The kernel rows of a(-nu) e[r] for the untwisted operator: the term
    itself."""
    return ((0, nu, 1, 1),)


def _place(params: RingParams, r: int, s: int, factor: Scalar | None) -> tuple:
    """(index, lift): an untwisted image at lattice index r on a term at
    index s lands at index r + s, each coefficient lifted by the factor
    (`_lift`); `_create` keys it (parts, r + s)."""
    return r + s, _lift(factor)


def vertex_mode(u: UVector, m, v: UVector) -> UVector:
    """The mode u_m of the untwisted operator of u, applied to v, exactly:
    each term of u is its own kernel row (`_one_row`), and an image key at
    lattice index r against index s lands at index r + s (`_place`)."""
    if not isinstance(v, UVector):
        raise TypeError(f"vertex_mode does not apply to {type(v).__name__}")
    return UVector._wrap(u.params, term_pair_images(u, m, v, _one_row, _place))


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
    rows (parts, den, sign), the coefficient (+-1)^len(parts) / den with
    den = prod q^i i! over the parts q of multiplicity i, and sign =
    (-1)^len(parts) the numerator for -alpha (1 for +alpha).  The rows
    are built once per ring for both signs (the ("pcoeff", n) entry of
    `RingParams.memo`), and a term of v lifts each row's coefficient by its
    own (`_lift`, `_lifted`).  The keys of one term are distinct, so its
    block goes in whole unless an earlier term reached its index."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return v
    rows = params.memo.get(("pcoeff", n))
    if rows is None:
        rows = []
        for parts in partitions_of(n):
            # parts descend, so equal parts are adjacent: the i-th copy of q
            # divides by q*i, which builds prod (1/q)^i / i! one part at a time
            den, run, last = 1, 0, 0
            for q in parts:
                run = run + 1 if q == last else 1
                den *= q * run
                last = q
            rows.append((parts, den, -1 if len(parts) % 2 else 1))
        rows = params.memo[("pcoeff", n)] = tuple(rows)
    acc: dict = {}
    reached = set()
    for (nu, s), c in v.terms.items():
        lift = _lift(c)
        block = {
            (sort_parts(nu + parts) if nu else parts, s): _lifted(params, lift, minus if sign < 0 else 1, den)
            for parts, den, minus in rows
        }
        add_block(acc, block, s not in reached)
        reached.add(s)
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
