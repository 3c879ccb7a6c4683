"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own fast paths: ideal
membership goes through a Macaulay-style matrix, Hilbert values through
standard-monomial counting, Betti numbers and deficiency dimensions
through the constant strands of the raw (non-minimal) resolution,
deficiency dimensions also by a dense rank per degree of the dual of
the minimal resolution's last map (the scan `rao_dimensions` ran before
it read the Hilbert series of Ext^3),
normal forms through the copy-the-dividend merge the engine used before
its dividend accumulator, Q reductions through that accumulator with
`Fraction` coefficients, as it was before they became int pairs, the
monomial lcm, divisibility and coprimality through exponent tuples (the
engine's Gebauer-Moller bookkeeping works on packed words), and the
radical of an arrangement through one intersection per flat prime, the
raw resolution through the Schreyer step with its own pair selection
and divisor search, as it was before the step ran on the Buchberger
kernel, ideal intersections through public `Ideal`s at every step of
the tree, with the first input always in the t-block, and the bases of
liaison outputs through generators multiplied out by
`Polynomial.__mul__` and reduced with no Hilbert drive.  Saturation by the
irrelevant ideal is checked against the per-variable path it replaced:
one Groebner basis per variable, in a grevlex order with that variable
last, divided by its powers, and the n results intersected; ideal
quotients and saturations by other ideals go through exact division of
the generators of a ∩ (g).
"""

import itertools
from heapq import heappop, heappush
from importlib.resources import files

import pytest

from singlocus import groebner, linalg
from singlocus.errors import (InternalLimitError, InvariantError,
                              RingContextError, ValidationError)
from singlocus.groebner import (GroebnerBasis, Ideal, _Dividend, _Engine,
                                _elimination_key, _extend_ring,
                                _from_internal, _hilbert_target,
                                _HilbertDrive, _to_internal, intersect,
                                intersect_many)
from singlocus.homology import (_CB, _CMAX, _in_schreyer_order,
                                _level_from_ring_gb, _schreyer_resolution,
                                _SyzygyLevel, minimal_free_resolution)
from singlocus.polyring import (GF, QQ, DEFAULT_PRIME, WIDTH, PolyRing,
                                Polynomial, _pack_plain, _unpack_plain)

#: the corpus `.arr` and `.graph` files shipped with the package
CORPUS_DIR = files("singlocus") / "arrangements"

#: the largest prime that `GF` accepts, the last below the bound of its
#: primality certificate
LARGEST_PRIME = 3317044064679887385961813


@pytest.fixture
def ring_p():
    return PolyRing(("x", "y", "z", "w"), GF(DEFAULT_PRIME))


@pytest.fixture
def ring_q():
    return PolyRing(("x", "y", "z", "w"), QQ)


@pytest.fixture
def drives(monkeypatch):
    """Every `_HilbertDrive` built while the test runs."""
    built = []

    class Recorded(_HilbertDrive):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(groebner, "_HilbertDrive", Recorded)
    return built


def monomials_of_degree(nvars, d):
    if d < 0:
        return []
    out = []
    for c in itertools.combinations_with_replacement(range(nvars), d):
        exps = [0] * nvars
        for i in c:
            exps[i] += 1
        out.append(tuple(exps))
    return sorted(out)


def poly_from_exps(ring, exps, coeff=1):
    return ring.from_terms({exps: coeff})


def power_of_variables(ring, k):
    """m^k for the ideal m of all variables, generated by its monomials of
    degree k."""
    return Ideal(ring, [ring.from_terms({e: 1})
                        for e in monomials_of_degree(ring.nvars, k)])


def s_polynomial(f, g):
    ring = f.ring
    ef, cf = f.leading_term()
    eg, cg = g.leading_term()
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    mf = Polynomial(ring, {tuple(l - a for l, a in zip(lcm, ef)): ring.field.inv(cf)})
    mg = Polynomial(ring, {tuple(l - a for l, a in zip(lcm, eg)): ring.field.inv(cg)})
    return mf * f - mg * g


def buchberger_criterion_holds(gb):
    """Every S-polynomial of the basis reduces to zero."""
    polys = gb.polys
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            sp = s_polynomial(polys[i], polys[j])
            if not gb.normal_form(sp).is_zero():
                return False
    return True


def membership_by_linear_algebra(f, ideal):
    """Degree-graded Macaulay-matrix membership test for homogeneous f."""
    ring = f.ring
    field = ring.field
    if f.is_zero():
        return True
    assert f.is_homogeneous()
    d = f.total_degree()
    basis = monomials_of_degree(ring.nvars, d)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in ideal.gens:
        dg = g.total_degree()
        if dg is None or dg > d:
            continue
        for m in monomials_of_degree(ring.nvars, d - dg):
            row = [field.zero] * len(basis)
            for e, c in g.terms.items():
                row[index[tuple(a + b for a, b in zip(e, m))]] = c
            rows.append(row)
    target = [field.zero] * len(basis)
    for e, c in f.terms.items():
        target[index[e]] = c
    if not rows:
        return all(field.is_zero(c) for c in target)
    return linalg.solve_in_span(target, rows, field) is not None


def lcm_exps(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def divides_exps(a, b):
    return all(x <= y for x, y in zip(a, b))


def coprime_exps(a, b):
    return all(min(x, y) == 0 for x, y in zip(a, b))


def radical_by_flat_primes(arr):
    """The intersection of the flat primes, taken flat by flat."""
    return intersect_many([f.prime(arr.ring) for f in arr.flats()])


def intersect_by_ideals(a, b):
    """a ∩ b with t * G_a and (1 - t) * G_b as the elimination blocks,
    whatever the degrees, and the answer checked back as a public Ideal.

    It builds a `_HilbertDrive`, so over F_p its elimination runs the same
    batch kernel (`_Engine.reduce_batch`) as `intersect`: it checks the
    orientation and the fold, not that kernel.  The independent oracle
    for the batch kernel is `_undriven_intersection` in
    `test_groebner.py`, which has no drive and so reduces pair by pair on
    dividends."""
    if a.ring != b.ring:
        raise RingContextError("ideals in different rings")
    if a.is_zero() or b.is_unit():
        return Ideal(a.ring, a.gens)
    if b.is_zero() or a.is_unit():
        return Ideal(a.ring, b.gens)
    ring = a.ring
    ext, _ = _extend_ring(ring)
    engine = _Engine(ext, _elimination_key(ring.nvars))
    ga, gb = a.groebner(), b.groebner()
    t_key = engine.key(1)
    neg = ring.field.neg
    t_block = [[(k + t_key, (w << WIDTH) | 1, c) for k, w, c in terms]
               for terms in ga._polys]
    one_minus_t_block = [
        [(k + t_key, (w << WIDTH) | 1, neg(c)) for k, w, c in terms]
        + [(k, w << WIDTH, c) for k, w, c in terms]
        for terms in gb._polys]
    drive = _HilbertDrive(ring.nvars, _hilbert_target(
        ring.nvars, ((1, 0, ga._lt_ws), (1, 0, gb._lt_ws))), eliminate=True)
    t_mask = (1 << WIDTH) - 1
    basis = engine.buchberger([], blocks=(t_block, one_minus_t_block),
                              drive=drive, eliminate=t_mask)
    internal = [[(k, w >> WIDTH, c) for k, w, c in terms] for terms in basis]
    out = [_from_internal(terms, ring) for terms in internal]
    result = Ideal(ring, out)
    result._keep(GroebnerBasis(ring, internal, out))
    return result


def undriven_liaison_basis(step):
    """The reduced basis of a liaison step's output, as engine terms, by
    the paths that its Hilbert target and its Kronecker products replace:
    the generators form2 * g and form1 * g by `Polynomial.__mul__`, and
    a Buchberger run with no drive, pair by pair."""
    gens = [step.form2 * g for g in step.ideal1.gens]
    if step.ideal2 is None:
        gens.append(step.form1)
    else:
        gens += [step.form1 * g for g in step.ideal2.gens]
    engine = _Engine(step.form1.ring)
    return engine.buchberger([_to_internal(g, engine.key) for g in gens])


def intersect_many_by_ideals(ideals):
    """The balanced tree of `intersect_by_ideals`, level by level."""
    items = list(ideals)
    if not items:
        raise ValidationError("empty intersection")
    while len(items) > 1:
        nxt = [intersect_by_ideals(items[i], items[i + 1])
               for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


_SATURATION_CAP = 64


def exact_divide(f, g):
    """Quotient f / g when g divides f exactly."""
    if g.is_zero():
        raise ValidationError("division by the zero polynomial")
    ring = f.ring
    engine = _Engine(ring)
    gt = _to_internal(g, engine.key)
    inv_lc = ring.field.inv(gt[0][2])
    gt = engine.monic(gt)
    quotients = []
    acc = _Dividend(_to_internal(f, engine.key), engine.p, engine.guard)
    if engine.reduce(acc, [gt[0][1]], [gt[0][0]], [gt], quotients=quotients):
        raise ValidationError("inexact polynomial division")
    mul = ring.field.mul
    return _from_internal([(k, w, mul(c, inv_lc)) for _, k, w, c in quotients],
                          ring)


def colon(a, b):
    """Ideal quotient a : b."""
    if a.ring != b.ring:
        raise RingContextError("ideals in different rings")
    result = None
    for g in b.gens:
        if g.is_zero():
            continue
        gi = Ideal(a.ring, (g,))
        inter = intersect(a, gi)
        quot = Ideal(a.ring, tuple(exact_divide(h, g) for h in inter.gens))
        result = quot if result is None else intersect(result, quot)
    if result is None:
        # b = (0): a : (0) = (1)
        return Ideal(a.ring, (a.ring.one(),))
    return result


def saturate(a, b):
    """(a : b^infinity, number of strictly growing colon steps)."""
    current = a
    for step in range(_SATURATION_CAP):
        nxt = colon(current, b)
        if nxt.equals(current):
            return current, step
        current = nxt
    raise InternalLimitError(
        f"saturation did not stabilize within {_SATURATION_CAP} colon steps")


def saturate_by_variable(a, i):
    """a : x_i^infinity via a Groebner basis with x_i as last variable.

    For a homogeneous ideal in a degree-reverse-lex order whose last
    variable is x_i, dividing every basis element by its x_i power
    generates (and is a basis of) the saturation with respect to x_i.
    The order is grevlex on a copy of the ring whose variables are
    renamed so that x_i comes last.
    """
    ring = a.ring
    perm = [j for j in range(ring.nvars) if j != i] + [i]
    inverse = [perm.index(j) for j in range(ring.nvars)]
    moved = PolyRing([ring.names[j] for j in perm], ring.field)
    gb = Ideal(moved, [Polynomial(moved, {tuple(e[j] for j in perm): c
                                          for e, c in g.terms.items()})
                       for g in a.gens]).groebner()
    out = []
    for g in gb.polys:
        k = min(e[-1] for e in g.terms)
        out.append(Polynomial(ring, {
            tuple((e[:-1] + (e[-1] - k,))[pos] for pos in inverse): c
            for e, c in g.terms.items()}))
    return Ideal(ring, out)


def saturate_by_variables(a):
    """a : m^infinity as the intersection over all variables of
    a : x_i^infinity, which equals the m-saturation for any homogeneous
    ideal."""
    return intersect_many([saturate_by_variable(a, i)
                           for i in range(a.ring.nvars)])


class FractionDividend:
    """The Q dividend as it was before its coefficients became int pairs:
    the same dicts and heap, with `Fraction` coefficients and `Fraction`
    arithmetic.  It has `_Dividend`'s interface, so `_Engine.reduce`
    runs on either."""

    __slots__ = ("coeffs", "exps", "heap", "guard")

    def __init__(self, terms, guard):
        self.coeffs = {k: c for k, _, c in terms}
        self.exps = {k: w for k, w, _ in terms}
        self.heap = [-k for k, _, _ in terms]
        self.guard = guard

    def sub(self, g, c, mk, mw):
        coeffs = self.coeffs
        for gk, gw, gc in g[1:]:
            k = gk + mk
            v = coeffs.get(k)
            if v is None:
                coeffs[k] = -c * gc
                self.exps[k] = gw + mw
                heappush(self.heap, -k)
            else:
                coeffs[k] = v - c * gc

    def pop(self):
        while self.heap:
            k = -heappop(self.heap)
            c = self.coeffs.pop(k)
            w = self.exps.pop(k)
            if w & self.guard:
                raise InternalLimitError("a popped term reached a guard bit")
            if c:
                return k, w, c
        return None


def merge_sub_p(f, i0, g, c, mk, mw, p):
    """f[i0:] - c * x^m * g over F_p, merged by descending key."""
    out = []
    push = out.append
    i, j = i0, 0
    nf, ng = len(f), len(g)
    while i < nf and j < ng:
        fi = f[i]
        gj = g[j]
        kg = gj[0] + mk
        kf = fi[0]
        if kf > kg:
            push(fi)
            i += 1
        elif kf < kg:
            push((kg, gj[1] + mw, (-c * gj[2]) % p))
            j += 1
        else:
            cc = (fi[2] - c * gj[2]) % p
            if cc:
                push((kf, fi[1], cc))
            i += 1
            j += 1
    if i < nf:
        out.extend(f[i:])
    while j < ng:
        gj = g[j]
        push((gj[0] + mk, gj[1] + mw, (-c * gj[2]) % p))
        j += 1
    return out


def merge_sub_q(f, i0, g, c, mk, mw):
    """Rational-coefficient variant of merge_sub_p."""
    out = []
    push = out.append
    i, j = i0, 0
    nf, ng = len(f), len(g)
    while i < nf and j < ng:
        fi = f[i]
        gj = g[j]
        kg = gj[0] + mk
        kf = fi[0]
        if kf > kg:
            push(fi)
            i += 1
        elif kf < kg:
            push((kg, gj[1] + mw, -c * gj[2]))
            j += 1
        else:
            cc = fi[2] - c * gj[2]
            if cc:
                push((kf, fi[1], cc))
            i += 1
            j += 1
    if i < nf:
        out.extend(f[i:])
    while j < ng:
        gj = g[j]
        push((gj[0] + mk, gj[1] + mw, -c * gj[2]))
        j += 1
    return out


def merge_normal_form(terms, lt_ws, lt_keys, polys, guard, p):
    """Full normal form of engine terms against monic engine polys.

    Reduces the largest reducible term by the first basis element whose
    leading monomial divides it, rebuilding the remaining dividend by a
    merge at every step (p is None over Q).
    """
    prefix = []
    work = terms
    i0 = 0
    while i0 < len(work):
        k, w, c = work[i0]
        red = next((idx for idx, lw in enumerate(lt_ws)
                    if ((w | guard) - lw) & guard == guard), -1)
        if red < 0:
            prefix.append(work[i0])
            i0 += 1
        elif p is None:
            work = merge_sub_q(work, i0, polys[red], c, k - lt_keys[red],
                               w - lt_ws[red])
            i0 = 0
        else:
            work = merge_sub_p(work, i0, polys[red], c, k - lt_keys[red],
                               w - lt_ws[red], p)
            i0 = 0
    return prefix


def standard_monomial_count(ideal, d):
    """dim (R/I)_d by counting monomials outside the leading-term ideal."""
    gb = ideal.groebner()
    leads = [tuple(e) for e in gb.leading_exponents()]
    count = 0
    for m in monomials_of_degree(ideal.ring.nvars, d):
        if not any(all(a >= b for a, b in zip(m, lt)) for lt in leads):
            count += 1
    return count


def _strand_rank(entries, src_twists, tgt_twists, d, field):
    """Rank of the degree-d constant strand of one resolution map."""
    src = [c for c, t in enumerate(src_twists) if t == d]
    tgt = [r for r, t in enumerate(tgt_twists) if t == d]
    if not src or not tgt:
        return 0
    rows = []
    for c in src:
        row = []
        for r in tgt:
            p = entries.get((r, c))
            row.append(field.zero if p is None else p.constant_coefficient())
        rows.append(row)
    return linalg.rank(rows, field)


def betti_by_strand_homology(ideal):
    """Graded Betti numbers from the raw non-minimal resolution.

    beta_{i,d} = #gens_{i,d} - rank(strand_i)_d - rank(strand_{i+1})_d,
    computed over the constant parts only; independent of the pruning
    code in the library.
    """
    twist_lists, maps = _schreyer_resolution(ideal)
    field = ideal.ring.field
    out = {}
    for i, twists in enumerate(twist_lists):
        for d in sorted(set(twists)):
            n = sum(1 for t in twists if t == d)
            r_in = (_strand_rank(maps[i], twist_lists[i + 1], twists, d, field)
                    if i < len(maps) else 0)
            r_out = (_strand_rank(maps[i - 1], twists, twist_lists[i - 1], d, field)
                     if i >= 1 else 0)
            b = n - r_in - r_out
            if b:
                out[(i, d - i)] = b
    return out


def _dual_strand_rank(entries, src_twists, tgt_twists, t, field, nvars=4):
    """Rank in degree t of the dual of one resolution map.

    The dual map goes F_tgt^dual -> F_src^dual with the transposed matrix.
    Column space: images of the degree-(t + a_r) monomial multiples of
    each dual generator r of F_tgt^dual.
    """
    basis = []
    for c, b in enumerate(src_twists):
        basis.extend((c, m) for m in monomials_of_degree(nvars, t + b))
    if not basis:
        return 0
    index = {cm: i for i, cm in enumerate(basis)}
    rows = []
    for r, a in enumerate(tgt_twists):
        images = [(c, entries.get((r, c))) for c in range(len(src_twists))]
        if all(p is None for _, p in images):
            continue
        for m in monomials_of_degree(nvars, t + a):
            row = [field.zero] * len(basis)
            any_entry = False
            for c, p in images:
                if p is None:
                    continue
                for e, co in p.terms.items():
                    row[index[(c, tuple(x + y for x, y in zip(e, m)))]] = co
                    any_entry = True
            if any_entry:
                rows.append(row)
    return linalg.rank(rows, field) if rows else 0


def deficiency_by_ext(ideal):
    """Deficiency table from the raw resolution via dual-complex homology.

    dim Ext^3(R/I, R)_t = dim(F_3^dual)_t - rank(d_4^dual)_t
                          - rank(d_3^dual)_t, re-indexed by t -> -t-4.
    Independent of both the pruning and the minimal-last-map route.
    """
    twist_lists, maps = _schreyer_resolution(ideal)
    field = ideal.ring.field
    if len(maps) <= 2:
        return {}
    f3 = twist_lists[3]
    table = {}
    t = -max(f3)
    while t <= -min(f3) + 60:
        dim_f3 = sum(len(monomials_of_degree(4, t + b)) for b in f3)
        r3 = _dual_strand_rank(maps[2], twist_lists[3], twist_lists[2], t, field)
        r4 = (_dual_strand_rank(maps[3], twist_lists[4], twist_lists[3], t, field)
              if len(maps) > 3 else 0)
        dim = dim_f3 - r3 - r4
        if dim:
            table[-t - 4] = dim
        elif t >= -min(f3):
            break
        t += 1
    return table


def rao_by_degree_scan(ideal):
    """Deficiency table by a dense rank in each degree of the dual of the
    minimal resolution's last map, as `rao_dimensions` computed it before
    it read the table from the Hilbert series of Ext^3.

    dim Ext^3(R/I, R)_t = dim(F_3^dual)_t - rank(sigma^dual)_t, from
    t = -max(F_3) up to the first zero at or above -min(F_3), re-indexed
    by t -> -t-4.  The scan never stops if Ext^3 has infinite length, so
    it gives up 60 degrees past -min(F_3).
    """
    res = minimal_free_resolution(ideal)
    if res.length <= 2:
        return {}
    f3 = res.modules[3].twists
    f2 = res.modules[2].twists
    entries = res.maps[2].entries
    table = {}
    t = -max(f3)
    while t <= -min(f3) + 60:
        dim = (sum(len(monomials_of_degree(4, t + b)) for b in f3)
               - _dual_strand_rank(entries, f3, f2, t, ideal.ring.field))
        if dim:
            table[-t - 4] = dim
        elif t >= -min(f3):
            break
        t += 1
    return table


def schreyer_step_by_tuples(level, engine):
    """One syzygy step with tuple pair selection and a per-component scan.

    Returns (next_level, columns), where columns[j] maps a component
    index to the (exps, coeff) list of the new map's column j.
    """
    ring = engine.ring
    guard = engine.guard
    nvars = ring.nvars
    shift = WIDTH * nvars
    key = engine.key
    vectors = level.vectors
    lt_cw = level.lt_cw
    lt_vkey = level.lt_vkey
    mult = level.mult

    by_comp = {}
    for i, cw in enumerate(lt_cw):
        by_comp.setdefault(cw >> shift, []).append(i)

    # candidate pairs: per generator i, the minimal multipliers lcm/lt_i
    tasks = []
    for comp, idxs in by_comp.items():
        for a_pos, i in enumerate(idxs):
            ei = _unpack_plain(lt_cw[i], nvars)
            cand = {}
            for j in idxs[a_pos + 1:]:
                ej = _unpack_plain(lt_cw[j], nvars)
                u = tuple(max(x, y) - x for x, y in zip(ei, ej))
                if u not in cand:
                    cand[u] = j
            kept = []
            for u in sorted(cand, key=sum):
                if not any(all(a <= b for a, b in zip(v, u)) for v in kept):
                    kept.append(u)
            for u in kept:
                tasks.append((i, cand[u], u))
    tasks.sort(key=lambda t: (sum(t[2]) + level.degrees[t[0]], t[0], t[1]))

    next_vectors = []
    next_degrees = []
    columns = []
    field = ring.field
    one = field.one
    for i, j, u in tasks:
        ei = _unpack_plain(lt_cw[i], nvars)
        ej = _unpack_plain(lt_cw[j], nvars)
        lcm = tuple(a + b for a, b in zip(u, ei))
        uj = tuple(a - b for a, b in zip(lcm, ej))
        dw_i = _pack_plain(u)
        lcm_vkey = lt_vkey[i] + key(dw_i) * mult
        sp = engine.s_dividend(vectors[i], vectors[j], lcm_vkey, lt_cw[i] + dw_i)
        quotients = [(i, dw_i, one), (j, _pack_plain(uj), field.neg(one))]
        while (term := sp.pop()) is not None:
            vk, cw, co = term
            red = -1
            wg = cw | guard
            for idx in by_comp.get(cw >> shift, ()):
                if (wg - lt_cw[idx]) & guard == guard:
                    red = idx
                    break
            if red < 0:
                raise InvariantError("S-vector does not reduce to zero")
            dm = cw - lt_cw[red]
            sp.sub(vectors[red], co, vk - lt_vkey[red], dm)
            quotients.append((red, dm, field.neg(co)))
        terms = []
        col = {}
        for comp, mw, coeff in quotients:
            vkey = ((lt_vkey[comp] + key(mw) * mult) << _CB) | (_CMAX - comp)
            terms.append((vkey, (comp << shift) | mw, coeff))
            col.setdefault(comp, []).append((_unpack_plain(mw, nvars), coeff))
        terms.sort(key=lambda t: -t[0])
        assert terms[0][1] == (i << shift) | dw_i
        next_vectors.append(terms)
        next_degrees.append(sum(u) + level.degrees[i])
        columns.append(col)

    if not next_vectors:
        return None, []
    return _SyzygyLevel(next_vectors, next_degrees, mult << _CB), columns


def schreyer_resolution_by_tuples(ideal):
    """`_schreyer_resolution`, with each step taken by the oracle step."""
    ring = ideal.ring
    gb = ideal.groebner()
    if not len(gb):
        return [[0]], []
    level = _level_from_ring_gb(gb._polys,
                                [p.total_degree() for p in gb.polys])
    entries = {(0, c): p for c, p in enumerate(gb.polys)}
    twist_lists = [[0]]
    maps = []
    for _ in range(ring.nvars + 1):
        level, entries = _in_schreyer_order(level, entries, ring.nvars)
        maps.append(entries)
        twist_lists.append(level.degrees)
        level, columns = schreyer_step_by_tuples(level, gb._engine)
        if level is None:
            return twist_lists, maps
        entries = {(r, c): Polynomial(ring, {tuple(e): co for e, co in terms})
                   for c, col in enumerate(columns) for r, terms in col.items()}
    raise AssertionError("resolution exceeded the variable-count bound")
