"""Graded free resolutions, Betti tables, Hilbert data, Rao dimensions.

Resolutions are built by iterated syzygy steps on a reduced Groebner
basis.  Each step works in the induced (Schreyer) module order, where the
sort key of a term m*e_c is the key of m multiplied into the leading term
of the c-th generator one level down; keys stay plain integers and stay
additive under monomial multiplication, exactly as in the ring engine.
The resulting resolution is generally non-minimal; repeatedly pivoting on
nonzero-constant entries prunes it to the minimal one, whose twists are
the graded Betti numbers.

The deficiency (Rao) table of a curve in P^3 is the Hilbert function of
Ext^3(R/I, R) = coker(F_2^dual -> F_3^dual), up to the re-indexing
t -> -t - 4.  The columns of the dual of the last minimal map are
completed to a module Groebner basis on the same kernel, and the
cokernel's Hilbert series is read from the leading words in each
component.  Its dimension is 0 exactly when I is unmixed, so a mixed
ideal is rejected by the same computation.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import comb

from .errors import InvariantError, ValidationError
from .groebner import _Engine, _minimal_lcms
from .polyring import (WIDTH, Polynomial, _degree_func, _pack_plain,
                       _unpack_plain)

_CB = 20
_CMAX = (1 << _CB) - 1


# ---------------------------------------------------------------------------
# module engine: vectors over a free module with a Schreyer-style key
#
# A module term m*e_c has the ring engine's term shape (vkey, cw, coeff),
# with the component packed above the exponent fields:
# cw = (c << WIDTH*nvars) | packed(m).  As in the ring engine, exponents
# stay below MAX_DEGREE, so adding a multiplier's packed exponents never
# carries into the component.  The engine's divisor test keeps the
# component difference in its mask, so `_Engine.reduce` reduces module
# vectors as they are, with its first-divisor memo and quotient sink, and
# `_minimal_lcms` selects the pairs within each component.


class _SyzygyLevel:
    """Generators of one step of the resolution, in engine form.

    vectors[i] lives in the free module one level down, sorted by
    descending vkey.  `mult` scales a ring key into a vkey increment at
    this level's coordinates.
    """

    def __init__(self, vectors, degrees, mult):
        self.vectors = vectors
        self.lt_cw = [v[0][1] for v in vectors]
        self.lt_vkey = [v[0][0] for v in vectors]
        self.degrees = degrees
        self.mult = mult


def _module_vector(entries, key, shift):
    """Engine form of sum_c p_c * e_c from (c, p_c) pairs, with no twist.

    Term over position: monomials compare by `key` (on packed words)
    first and component c before c + 1 on a tie.  The terms come sorted
    by descending vkey.
    """
    terms = []
    for c, poly in entries:
        for e, co in poly.terms.items():
            w = _pack_plain(e)
            terms.append(((key(w) << _CB) | (_CMAX - c), (c << shift) | w, co))
    terms.sort(reverse=True)
    return terms


def _level_from_ring_gb(internal_gb, degrees):
    """Wrap a reduced ring GB as vectors in F_0 = R (single component 0)."""
    vectors = [[((k << _CB) | _CMAX, w, c) for k, w, c in terms]
               for terms in internal_gb]
    return _SyzygyLevel(vectors, list(degrees), mult=1 << _CB)


def _schreyer_step(level, engine):
    """The next level: the syzygies of a module Groebner basis of monic vectors.

    Each component's pairs are the ones `_minimal_lcms` keeps, and each
    S-vector is reduced to zero by the engine; the syzygy's term m*e_c
    comes straight from the S-vector's halves and the reduction's
    quotients.  Returns None when there are no syzygies.
    """
    guard = engine.guard
    nvars = engine.ring.nvars
    shift = WIDTH * nvars
    degree_of = _degree_func(nvars)
    key = engine.key
    vectors = level.vectors
    lt_cw = level.lt_cw
    lt_vkey = level.lt_vkey
    mult = level.mult

    by_comp = {}
    for i, cw in enumerate(lt_cw):
        by_comp.setdefault(cw >> shift, []).append(i)
    # per generator i, one pair for each minimal multiplier lcm/lt_i, in
    # order of degree, then index
    tasks = []
    for idxs in by_comp.values():
        for pos, i in enumerate(idxs, 1):
            _, first = _minimal_lcms([lt_cw[j] for j in idxs[pos:]], lt_cw[i],
                                     guard)
            for lcm, j in first.items():
                u = lcm - lt_cw[i]
                tasks.append((degree_of(u) + level.degrees[i], i, idxs[pos + j],
                              u))
    tasks.sort()

    one = engine.ring.field.one
    neg = engine.ring.field.neg
    minus_one = neg(one)
    memo = {}  # exact: the level is fixed
    next_vectors = []
    next_degrees = []
    for degree, i, j, u in tasks:
        lcm = lt_cw[i] + u
        lcm_vkey = lt_vkey[i] + key(u) * mult
        sp = engine.s_dividend(vectors[i], vectors[j], lcm_vkey, lcm)
        # sp = x^u v_i - x^v v_j, so the halves join the quotients as if
        # they had reduced sp, and the syzygy is minus the sum of them all
        quotients = [(i, lcm_vkey - lt_vkey[i], u, minus_one),
                     (j, lcm_vkey - lt_vkey[j], lcm - lt_cw[j], one)]
        if engine.reduce(sp, lt_cw, lt_vkey, vectors, memo, quotients):
            raise InvariantError(
                "input to the syzygy step was not a Groebner basis "
                "(S-vector does not reduce to zero)")
        # m*e_c has the key of m*lt_c, tagged by c
        terms = sorted(((((lt_vkey[c] + mk) << _CB) | (_CMAX - c),
                         (c << shift) | mw, neg(co))
                        for c, mk, mw, co in quotients), reverse=True)
        if terms[0][1] != (i << shift) | u:
            raise InvariantError(
                "syzygy leading term does not match its predicted value")
        next_vectors.append(terms)
        next_degrees.append(degree)

    if not next_vectors:
        return None
    return _SyzygyLevel(next_vectors, next_degrees, mult << _CB)


def _module_leads(vectors, degrees, engine):
    """Leading words of a module Groebner basis of the span of `vectors`.

    `vectors` are nonzero homogeneous `_module_vector`s and `degrees`
    their degrees.  Each component's pairs are the ones `_minimal_lcms`
    keeps, taken by degree, and each S-vector is reduced by the engine.
    The product criterion does not hold for vectors: x*e_0 + z*e_1 and
    y*e_0 + w*e_1 have coprime leading monomials, but their S-vector
    y*z*e_1 - x*w*e_1 is not zero.  Only the leading words are wanted, so
    the basis is neither minimalized nor tail-reduced.
    """
    guard = engine.guard
    nvars = engine.ring.nvars
    shift = WIDTH * nvars
    degree_of = _degree_func(nvars)
    key = engine.key
    basis = []
    lt_ws = []
    lt_vkeys = []
    basis_degrees = []
    by_comp = {}
    pairs = []  # a heap of (degree, lcm vkey, i, j, lcm)
    memo = {}  # exact: the basis only grows by appending

    def add(terms, degree):
        terms = engine.monic(terms)
        w_new = terms[0][1]
        idxs = by_comp.setdefault(w_new >> shift, [])
        _, first = _minimal_lcms([lt_ws[i] for i in idxs], w_new, guard)
        for lcm, pos in first.items():
            i = idxs[pos]
            u = lcm - lt_ws[i]
            heappush(pairs, (degree_of(u) + basis_degrees[i],
                             lt_vkeys[i] + (key(u) << _CB),
                             i, len(basis), lcm))
        idxs.append(len(basis))
        basis.append(terms)
        lt_ws.append(w_new)
        lt_vkeys.append(terms[0][0])
        basis_degrees.append(degree)

    for terms, degree in zip(vectors, degrees):
        nf = engine.normal_form(terms, lt_ws, lt_vkeys, basis, memo)
        if nf:
            add(nf, degree)
    while pairs:
        degree, lcm_vkey, i, j, lcm = heappop(pairs)
        sp = engine.s_dividend(basis[i], basis[j], lcm_vkey, lcm)
        nf = engine.reduce(sp, lt_ws, lt_vkeys, basis, memo)
        if nf:
            add(nf, degree)
    return lt_ws


def _components(vector, nvars):
    """{component: {exps: coeff}} of an engine-form vector, in term order."""
    shift = WIDTH * nvars
    low = (1 << shift) - 1
    out = {}
    for _, cw, co in vector:
        out.setdefault(cw >> shift, {})[_unpack_plain(cw & low, nvars)] = co
    return out


# ---------------------------------------------------------------------------
# public graded types


class GradedFreeModule:
    """Free module with generator degrees (R(-a) contributes a)."""

    def __init__(self, twists):
        self.twists = tuple(twists)

    @property
    def rank(self):
        return len(self.twists)

    def __repr__(self):
        return f"F{list(self.twists)}"

    def __eq__(self, other):
        return isinstance(other, GradedFreeModule) and other.twists == self.twists


class GradedMap:
    """Matrix of homogeneous polynomials between graded free modules.

    entries[(r, c)] has degree twists_source[c] - twists_target[r].
    """

    def __init__(self, source, target, entries):
        self.source = source
        self.target = target
        self.entries = {rc: p for rc, p in entries.items() if not p.is_zero()}
        for (r, c), p in self.entries.items():
            want = source.twists[c] - target.twists[r]
            if not p.is_homogeneous() or p.total_degree() != want:
                raise ValidationError(
                    f"entry ({r},{c}) has degree {p.total_degree()}, expected {want}")

    def entry(self, r, c):
        return self.entries.get((r, c))

    def apply(self, column_vector):
        """Image of a source-coordinate vector of polynomials."""
        out = [None] * self.target.rank
        for (r, c), p in self.entries.items():
            v = column_vector[c]
            if v is None or v.is_zero():
                continue
            pv = p * v
            out[r] = pv if out[r] is None else out[r] + pv
        return out

    def __repr__(self):
        return f"GradedMap({self.source} -> {self.target}, {len(self.entries)} entries)"


class Resolution:
    """Graded free resolution of R/I: maps[k] sends F_{k+1} to F_k, F_0 = R."""

    def __init__(self, ring, modules, maps):
        self.ring = ring
        self.modules = modules
        self.maps = maps

    @property
    def length(self):
        return len(self.maps)

    def is_minimal(self):
        for m in self.maps:
            for p in m.entries.values():
                if p.is_constant():
                    return False
        return True

    def __repr__(self):
        return " <- ".join(repr(m) for m in self.modules)


class BettiTable:
    """Graded Betti numbers; entry (column i, row j) counts twists i+j."""

    def __init__(self, entries):
        self.entries = {k: v for k, v in entries.items() if v}

    @classmethod
    def from_twists(cls, twist_lists):
        entries = {}
        for i, twists in enumerate(twist_lists):
            for d in twists:
                key = (i, d - i)
                entries[key] = entries.get(key, 0) + 1
        return cls(entries)

    @property
    def ncols(self):
        return max(i for i, _ in self.entries) + 1 if self.entries else 1

    @property
    def nrows(self):
        return max(j for _, j in self.entries) + 1 if self.entries else 1

    def entry(self, i, j):
        return self.entries.get((i, j), 0)

    def totals(self):
        out = [0] * self.ncols
        for (i, _), v in self.entries.items():
            out[i] += v
        return out

    def row(self, j):
        return [self.entry(i, j) for i in range(self.ncols)]

    def __eq__(self, other):
        return isinstance(other, BettiTable) and other.entries == self.entries

    def __repr__(self):
        return f"BettiTable({self.totals()})"


def betti_text(table):
    """Fixed-width text layout with a Tot: footer, as used in reports."""
    ncols = table.ncols
    lines = ["    " + "".join(f"{i:5d}" for i in range(ncols))]
    rule = "-" * (5 * ncols + 5)
    lines.append(rule)
    for j in range(table.nrows):
        label = f"{j:2d}:"
        cells = "".join(f"{v if v else '-':>5}" for v in table.row(j))
        lines.append(f"{label:<4}"[:4] + cells)
    lines.append(rule)
    lines.append(f"{'Tot:':<4}" + "".join(f"{v if v else '-':>5}"
                                          for v in table.totals()))
    return "\n".join(lines)


def betti_json(table):
    return {
        "rows": [{"degree": j, "betti": table.row(j)} for j in range(table.nrows)],
        "total": table.totals(),
    }


class HilbertData:
    """Hilbert series numerator, polynomial, function and regularity index.

    The series of R/I is numerator(t) / (1-t)^nvars.  The Hilbert
    polynomial is stored by its coefficient list in the standard basis
    (Fractions, ascending powers).
    """

    def __init__(self, numerator, nvars):
        self.numerator = tuple(numerator)
        self.nvars = nvars
        reduced = list(numerator)
        dim = nvars
        while reduced and sum(reduced) == 0:
            # divide by (1 - t)
            out = []
            acc = 0
            for c in reduced[:-1]:
                acc += c
                out.append(acc)
            reduced = _trim(out)
            dim -= 1
        self.reduced_numerator = tuple(reduced)
        self.dimension = dim if reduced else 0
        self.hp_coeffs = self._polynomial_coeffs()
        self.regularity_index = self._regularity_index()

    # -- values ---------------------------------------------------------------
    def hilbert_function(self, d):
        if d < 0:
            return 0
        n = self.nvars
        return sum(c * comb(d - i + n - 1, n - 1)
                   for i, c in enumerate(self.numerator) if d - i >= 0)

    def hilbert_polynomial(self, d):
        acc = Fraction(0)
        for k, c in enumerate(self.hp_coeffs):
            acc += c * d ** k
        return acc

    def _polynomial_coeffs(self):
        dim = self.dimension
        if dim == 0 or not self.reduced_numerator:
            return ()
        coeffs = [Fraction(0)] * dim
        for i, c in enumerate(self.reduced_numerator):
            if c == 0:
                continue
            # binomial(t - i + dim - 1, dim - 1) as a polynomial in t
            poly = [Fraction(1)]
            for j in range(dim - 1):
                root = Fraction(i - dim + 1 + j)
                poly = [a - root * b for a, b in
                        zip([Fraction(0)] + poly, poly + [Fraction(0)])]
            fact = 1
            for j in range(1, dim):
                fact *= j
            for k in range(len(poly)):
                coeffs[k] += c * poly[k] / fact
        return tuple(coeffs)

    def _regularity_index(self):
        top = len(self.numerator)
        d = top
        while d >= 0 and self.hilbert_function(d) == self.hilbert_polynomial(d):
            d -= 1
        return d + 1

    def degree(self):
        """Degree of the projective scheme (normalized leading coefficient)."""
        if self.dimension == 0:
            return 0
        if not self.hp_coeffs:
            return 0
        lead = self.hp_coeffs[-1]
        fact = 1
        for j in range(1, self.dimension):
            fact *= j
        return int(lead * fact)

    def hp_string(self):
        """Exact text form, e.g. '130t - 1150' for a curve."""
        if not self.hp_coeffs:
            return "0"
        parts = []
        for k in range(len(self.hp_coeffs) - 1, -1, -1):
            c = self.hp_coeffs[k]
            if c == 0:
                continue
            mono = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
            cs = str(c) if (k == 0 or abs(c) != 1) else ("-" if c < 0 else "")
            piece = f"{cs}{mono}"
            parts.append(piece)
        if not parts:
            return "0"
        text = parts[0]
        for piece in parts[1:]:
            if piece.startswith("-"):
                text += " - " + piece[1:]
            else:
                text += " + " + piece
        return text

    def __repr__(self):
        return f"HilbertData({self.hp_string()}, dim {self.dimension})"


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


# ---------------------------------------------------------------------------
# Hilbert series of a monomial ideal (standard pivot recursion)


def _series_numerator(gens, nvars, memo):
    gens = tuple(sorted(gens))
    got = memo.get(gens)
    if got is not None:
        return got
    result = _series_numerator_raw(gens, nvars, memo)
    memo[gens] = result
    return result


def _poly_mul_shift(a, k, sign):
    out = [0] * (len(a) + k)
    for i, c in enumerate(a):
        out[i + k] += sign * c
    return out


def _poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def _series_numerator_raw(gens, nvars, memo):
    if not gens:
        return [1]
    # pairwise coprime: numerator is the product of (1 - t^deg)
    if all(all(min(a, b) == 0 for a, b in zip(gens[i], gens[j]))
           for i in range(len(gens)) for j in range(i + 1, len(gens))):
        num = [1]
        for g in gens:
            d = sum(g)
            num = _poly_add(num, _poly_mul_shift(num, d, -1))
        return num
    # pivot on the variable appearing in the most generators
    counts = [0] * nvars
    for g in gens:
        for v in range(nvars):
            if g[v]:
                counts[v] += 1
    v = max(range(nvars), key=lambda ix: counts[ix])
    # I + (x_v)
    plus = [g for g in gens if g[v] == 0]
    pivot = tuple(1 if ix == v else 0 for ix in range(nvars))
    plus.append(pivot)
    num_plus = _series_numerator(_minimalize(plus), nvars, memo)
    # I : x_v
    quot = [g[:v] + (max(g[v] - 1, 0),) + g[v + 1:] for g in gens]
    num_quot = _series_numerator(_minimalize(quot), nvars, memo)
    return _poly_add(num_plus, _poly_mul_shift(num_quot, 1, 1))


def _minimalize(gens):
    out = []
    for g in sorted(set(gens), key=sum):
        if not any(all(a <= b for a, b in zip(h, g)) for h in out):
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# public operations


def hilbert(ideal):
    """Hilbert data of R/I from the grevlex leading-term ideal."""
    cached = getattr(ideal, "_hilbert_cache", None)
    if cached is not None:
        return cached
    gb = ideal.groebner()
    lead = [tuple(e) for e in gb.leading_exponents()]
    num = _series_numerator(_minimalize(lead), ideal.ring.nvars, {})
    data = HilbertData(_trim(list(num)), ideal.ring.nvars)
    ideal._hilbert_cache = data
    return data


def schreyer_syzygies(gens, twists=None):
    """Syzygies of a Groebner basis sitting in a graded free module.

    `gens` is either a list of polynomials (rank-1 case) or a list of
    equal-length polynomial vectors; `twists` gives the generator degrees
    of the ambient free module (all zero by default).  The input must be
    a Groebner basis: every S-vector has to reduce to zero against it,
    otherwise this raises.  Leading coefficients need not be 1.  Returned
    vectors pair to zero against `gens`.
    """
    if not gens:
        return []
    vectors_in = [[g] if isinstance(g, Polynomial) else list(g) for g in gens]
    rank = len(vectors_in[0])
    ring = vectors_in[0][0].ring
    if any(len(v) != rank for v in vectors_in):
        raise ValidationError("module elements of mixed rank")
    if twists is None:
        twists = [0] * rank
    engine = _Engine(ring)
    field = ring.field
    shift = WIDTH * ring.nvars
    # term-over-position order on the ambient module, grevlex on monomials;
    # each vector is scaled to be monic, and its syzygy entries scaled back
    vectors = []
    degrees = []
    inv_lcs = []
    for vec in vectors_in:
        if any(poly.ring != ring for poly in vec):
            raise ValidationError("vector entries in mixed rings")
        terms = _module_vector(enumerate(vec), engine.key, shift)
        if not terms:
            raise ValidationError("zero vector among the generators")
        inv = field.inv(terms[0][2])
        vectors.append([(vk, cw, field.mul(c, inv)) for vk, cw, c in terms])
        degrees.append(max(sum(e) + twists[comp] for comp, poly in enumerate(vec)
                           for e in poly.terms))
        inv_lcs.append(inv)
    level = _SyzygyLevel(vectors, degrees, mult=1 << _CB)
    try:
        nxt = _schreyer_step(level, engine)
    except InvariantError as exc:
        raise ValidationError(str(exc)) from exc
    out = []
    for syz in nxt.vectors if nxt else ():
        comps = _components(syz, ring.nvars)
        out.append([Polynomial(ring, {e: field.mul(co, inv_lcs[c])
                                      for e, co in comps.get(c, {}).items()})
                    for c in range(len(gens))])
    return out


def _in_schreyer_order(level, entries, nvars):
    """Relabel a level's generators, and the columns of the map into it.

    Generators are sorted by component, then by leading monomial in
    descending lex order with x_0 first.  For a pair i < j in one
    component the multiplier lcm/lt_i then has exponent 0 wherever lt_i's
    exponent is at least lt_j's, which includes the first variable the
    level's leading terms still use.  So each level's leading terms avoid
    one more variable than the last, and the resolution has length at
    most nvars (Eisenbud, Commutative Algebra, Cor. 15.11).
    """
    shift = WIDTH * nvars

    def key(i):
        cw = level.lt_cw[i]
        return cw >> shift, tuple(-e for e in _unpack_plain(cw, nvars))

    perm = sorted(range(len(level.vectors)), key=key)
    new_index = {old: new for new, old in enumerate(perm)}
    ordered = _SyzygyLevel([level.vectors[i] for i in perm],
                           [level.degrees[i] for i in perm], level.mult)
    return ordered, {(r, new_index[c]): p for (r, c), p in entries.items()}


def _schreyer_resolution(ideal):
    """Non-minimal resolution of R/I via iterated syzygy steps.

    Returns (twist_lists, map_entry_dicts): twist_lists[k] are the
    generator degrees of F_k (twist_lists[0] == [0]), and
    map_entry_dicts[k] holds {(r, c): Polynomial} for F_{k+1} -> F_k.
    Each level is put in Schreyer's order before its syzygies are taken,
    which bounds the length by the number of variables.
    """
    ring = ideal.ring
    gb = ideal.groebner()
    if not len(gb):
        return [[0]], []
    degrees = [p.total_degree() for p in gb.polys]
    level = _level_from_ring_gb(gb._polys, degrees)
    entries = {(0, c): p for c, p in enumerate(gb.polys)}

    twist_lists = [[0]]
    maps = []
    for _ in range(ring.nvars + 1):
        level, entries = _in_schreyer_order(level, entries, ring.nvars)
        maps.append(entries)
        twist_lists.append(level.degrees)
        level = _schreyer_step(level, gb._engine)
        if level is None:
            break
        entries = {(r, c): Polynomial(ring, terms)
                   for c, vec in enumerate(level.vectors)
                   for r, terms in _components(vec, ring.nvars).items()}
    else:
        raise InvariantError("resolution exceeded the variable-count bound")
    return twist_lists, maps


def _prune_to_minimal(twist_lists, maps, field):
    """Cancel constant entries of the complex in place."""
    # live generator ids per homological level, in stable order
    live = [list(range(len(t))) for t in twist_lists]
    twists = [dict(enumerate(t)) for t in twist_lists]
    # per map: column dict and row occupancy
    cols = []
    rows = []
    for entries in maps:
        bycol = {}
        byrow = {}
        for (r, c), p in entries.items():
            bycol.setdefault(c, {})[r] = p
            byrow.setdefault(r, set()).add(c)
        cols.append(bycol)
        rows.append(byrow)

    def find_pivot(k):
        # Markowitz-style: least fill-in first
        best = None
        best_cost = None
        for c, column in cols[k].items():
            for r, p in column.items():
                if p.is_constant() and not p.is_zero():
                    cost = (len(rows[k].get(r, ())) - 1) * (len(column) - 1)
                    if best_cost is None or cost < best_cost:
                        best = (r, c, p.constant_coefficient())
                        best_cost = cost
                        if cost == 0:
                            return best
        return best

    progress = True
    while progress:
        progress = False
        for k in range(len(maps) - 1, -1, -1):
            while True:
                piv = find_pivot(k)
                if piv is None:
                    break
                progress = True
                r0, c0, u = piv
                inv_u = field.inv(u)
                pivot_col = cols[k][c0]
                # clear row r0 by column operations
                for c in list(rows[k].get(r0, ())):
                    if c == c0:
                        continue
                    factor = cols[k][c][r0].scale(inv_u)
                    target = cols[k][c]
                    for r, p in pivot_col.items():
                        delta = factor * p
                        if r in target:
                            s = target[r] - delta
                            if s.is_zero():
                                del target[r]
                                rows[k][r].discard(c)
                            else:
                                target[r] = s
                        else:
                            target[r] = -delta
                            rows[k].setdefault(r, set()).add(c)
                # delete generator c0 of F_{k+1} and generator r0 of F_k
                for r in list(pivot_col):
                    rows[k][r].discard(c0)
                del cols[k][c0]
                if r0 in rows[k]:
                    for c in list(rows[k][r0]):
                        cols[k][c].pop(r0, None)
                    del rows[k][r0]
                live[k + 1].remove(c0)
                del twists[k + 1][c0]
                live[k].remove(r0)
                del twists[k][r0]
                if k + 1 < len(maps):
                    # row c0 of the next map is zero after the implied updates
                    if c0 in rows[k + 1]:
                        for c in list(rows[k + 1][c0]):
                            cols[k + 1][c].pop(c0, None)
                        del rows[k + 1][c0]
                if k >= 1:
                    # column r0 of the previous map is zero likewise
                    if r0 in cols[k - 1]:
                        for r in list(cols[k - 1][r0]):
                            rows[k - 1].get(r, set()).discard(r0)
                        del cols[k - 1][r0]

    # drop empty tail levels, reindex densely
    while len(live) > 1 and not live[-1]:
        live.pop()
        twists.pop()
        cols.pop()
        rows.pop()
    new_twists = []
    new_maps = []
    for k, ids in enumerate(live):
        new_twists.append([twists[k][i] for i in ids])
    for k in range(len(live) - 1):
        src_index = {i: pos for pos, i in enumerate(live[k + 1])}
        tgt_index = {i: pos for pos, i in enumerate(live[k])}
        entries = {}
        for c, column in cols[k].items():
            for r, p in column.items():
                entries[(tgt_index[r], src_index[c])] = p
        new_maps.append(entries)
    return new_twists, new_maps


def minimal_free_resolution(ideal):
    """Minimal graded free resolution of R/I."""
    cached = getattr(ideal, "_resolution_cache", None)
    if cached is not None:
        return cached
    if ideal.is_unit():
        raise ValidationError("resolution requires a proper ideal")
    twist_lists, raw_maps = _schreyer_resolution(ideal)
    twists, maps = _prune_to_minimal(twist_lists, raw_maps, ideal.ring.field)
    modules = [GradedFreeModule(t) for t in twists]
    graded_maps = []
    for k, entries in enumerate(maps):
        graded_maps.append(GradedMap(modules[k + 1], modules[k], entries))
    res = Resolution(ideal.ring, modules, graded_maps)
    if not res.is_minimal():
        raise InvariantError("pruning left a constant entry in the resolution")
    ideal._resolution_cache = res
    return res


def betti_table(res):
    """Betti table of a minimal resolution."""
    if not res.is_minimal():
        raise ValidationError("Betti tables are read off minimal resolutions only")
    return BettiTable.from_twists([m.twists for m in res.modules])


def betti_of(ideal):
    return betti_table(minimal_free_resolution(ideal))


def dimensions(ideal):
    """(krull_dim, codim, projective_dim) of R/I for proper homogeneous I."""
    if ideal.is_unit():
        raise ValidationError("dimensions of the unit ideal are undefined")
    h = hilbert(ideal)
    res = minimal_free_resolution(ideal)
    krull = h.dimension
    return krull, ideal.ring.nvars - krull, res.length


def is_cm(ideal):
    """Cohen-Macaulayness of R/I: projective dimension equals codimension."""
    krull, codim, pd = dimensions(ideal)
    return pd == codim


def is_saturated(ideal):
    """Whether I equals its saturation by the irrelevant ideal.

    By Auslander-Buchsbaum, a proper homogeneous I in N variables is
    saturated exactly when depth R/I >= 1, that is pd(R/I) <= N - 1; the
    projective dimension is read off the cached minimal resolution.
    """
    if ideal.is_unit():
        return True
    return minimal_free_resolution(ideal).length < ideal.ring.nvars


def rao_dimensions(ideal):
    """Graded dimensions of the deficiency module of a curve in P^3.

    Requires a saturated unmixed codimension-2 ideal in 4 variables.  The
    table is empty exactly when the quotient is Cohen-Macaulay.  It is the
    Hilbert function of Ext^3(R/I, R) = coker(tau: F_2^dual -> F_3^dual),
    re-indexed by t -> -t - 4: the standard monomials of a module Groebner
    basis of the image of tau are a basis of the cokernel (Eisenbud,
    Commutative Algebra, 15.10), so its Hilbert series is the sum over
    the components of their monomial quotients' series.  Ext^3 has finite
    length exactly when I is unmixed; otherwise this raises.
    """
    ring = ideal.ring
    if ring.nvars != 4:
        raise ValidationError("deficiency tables require a 4-variable ring")
    res = minimal_free_resolution(ideal)
    h = hilbert(ideal)
    if ring.nvars - h.dimension != 2:
        raise ValidationError("deficiency tables require codimension 2")
    if not is_saturated(ideal):
        raise ValidationError(
            "projective dimension exceeds 3 (ideal is not saturated)")
    if res.length <= 2:
        return {}
    sigma = res.maps[2]  # F_3 -> F_2
    f3 = res.modules[3].twists
    f2 = res.modules[2].twists
    engine = _Engine(ring)
    shift = WIDTH * ring.nvars
    # column r of tau is sum_c sigma(r, c) * e_c, of degree -f2[r], with
    # e_c of degree -f3[c]
    columns = {}
    for (r, c), p in sorted(sigma.entries.items()):
        columns.setdefault(r, []).append((c, p))
    leads = _module_leads(
        [_module_vector(col, engine.key, shift) for col in columns.values()],
        [-f2[r] for r in columns], engine)
    by_comp = {}
    for w in leads:
        by_comp.setdefault(w >> shift, []).append(_unpack_plain(w, ring.nvars))
    # the series is t^(-max f3) * num(t) / (1 - t)^4
    top = max(f3)
    memo = {}
    num = []
    for c, b in enumerate(f3):
        part = _series_numerator(_minimalize(by_comp.get(c, ())), ring.nvars,
                                 memo)
        num = _poly_add(num, _poly_mul_shift(part, top - b, 1))
    ext = HilbertData(_trim(num), ring.nvars)
    if ext.dimension:
        raise ValidationError(
            "Ext^3(R/I, R) does not have finite length (ideal is not unmixed)")
    return {top - k - 4: dim for k, dim in enumerate(ext.reduced_numerator)
            if dim}
