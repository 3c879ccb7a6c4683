"""Graded free resolutions, Betti tables, Hilbert data, Rao dimensions.

Resolutions are built by iterated syzygy steps on a reduced Groebner
basis.  Each step works in the induced (Schreyer) module order, where the
sort key of a term m*e_c is the key of m multiplied into the leading term
of the c-th generator one level down; keys stay plain integers and stay
additive under monomial multiplication, exactly as in the ring engine.
The first step, on the ring level over F_p, reduces each S-polynomial as
one int in the Kronecker layout of `polyring._slot`, where a monomial
multiplier is a shift (`_ring_rows`); a size rule keeps rings whose rows
would be too long, Q and the module levels on the engine's dividends.
The resulting resolution is generally non-minimal, and it is kept as
the steps left it, in engine form: each raw map is its list of syzygy
vectors, and the first is the ring basis's own terms lists, not a copy.
Its graded Betti numbers are read from the ranks of its constant blocks,
the terms whose component has the column's twist.  Public polynomials
are built only when a caller reads `Resolution.maps`: the raw maps are
converted then, and pruned to the minimal ones in one pass of pivots on
the entries between generators of equal twist.

The deficiency (Rao) table of a curve in P^3 is the Hilbert function of
Ext^3(R/I, R), up to the re-indexing t -> -t - 4, and one reader,
`unmixed_deficiency`, takes it from the raw Schreyer maps.  When
pd(R/I) <= 3, Ext^4 = 0, so the dual of the raw map into F_4 is onto,
and Ext^3 is coker(d_3^dual: F_2^dual -> F_3^dual) less F_4^dual.  The
columns of d_3^dual, transposed term by term from the engine vectors of
d_3, are completed to a reduced module Groebner basis by
the one completion loop, `_Engine.buchberger`, on an engine built for
F_3^dual (its twists are minus F_3's), so over F_p each degree is
reduced as one F4 matrix, as for rings.  The cokernel's Hilbert series
is read from the basis's leading words in each component, which are
minimal.  Ext^3 has finite length exactly when a height-two
ideal in 4 variables is unmixed (Eisenbud, Huneke and Vasconcelos 1992),
which lets `top_comb` return an unmixed Jacobian ideal as it is;
`rao_dimensions` returns the same table and refuses a mixed ideal.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice
from math import comb
from operator import itemgetter
from sys import int_info

from . import linalg
from .errors import InternalLimitError, InvariantError, ValidationError
from .groebner import (_CB, _CMAX, _Engine, _guard, _lcm, _minimal,
                       _minimal_lcms)
from .polyring import (MAX_DEGREE, WIDTH, Polynomial, _degree_func,
                       _degree_slots, _pack_plain, _slot, _slot_bytes,
                       _unpack_plain)


# ---------------------------------------------------------------------------
# syzygy levels: vectors over a free module with a Schreyer-style key
#
# A module term m*e_c has the ring engine's term shape (vkey, cw, coeff),
# with the component packed above the exponent fields as a module
# `_Engine` packs it: cw = (c << WIDTH*nvars) | packed(m).  As in the ring
# engine, exponents stay below MAX_DEGREE, so adding a multiplier's
# packed exponents never carries into the component.  The engine's
# divisor test keeps the component difference in its mask, so
# `_Engine.reduce` reduces module vectors as they are, with its
# first-divisor memo and quotient sink, and `_minimal_lcms` selects the
# pairs within each component.  The key is the Schreyer one, which no
# module engine owns: the ring engine's key of m times the leading term
# of e_c's image, tagged by _CMAX - c.  Level 0, the ring basis, lives in
# F_0 = R, whose one generator's tag would be the same on every term: it
# is left out, so that level's vectors are the basis's own terms lists.


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


def _level_from_ring_gb(internal_gb, degrees):
    """A reduced ring GB as level 0, vectors in F_0 = R: its own terms
    lists, not copied, with the ring keys as vkeys (mult 1).  The
    Schreyer tag of F_0's one generator, a constant on every term, would
    not change their order."""
    return _SyzygyLevel(internal_gb, list(degrees), mult=1)


#: the size rule of the Kronecker rows (`_ring_rows`).  A row step makes
#: two passes over the row (a shift and an add) and one more per int
#: digit of p (the product of a tail with p - v); a dividend step costs
#: about the reducer's terms.  A ring level reduces on rows when the row's
#: bytes times its passes are at most this many per term of the level's
#: mean vector: over F_32003, one digit, a row of up to a third of that
#: many bytes per term.  On the corpus, the `sweep` pool and the liaison
#: constructions at 32003, 2^61 - 1 and 3317044064679887385961813, rows
#: and dividends cost the same at about 1000-1250
_ROW_BYTES_PER_TERM = 1000

#: slots of a row scanned at once for the lowest one that is not a
#: multiple of p
_ROW_WINDOW = 32


def _ring_rows(level, engine, tasks, memo):
    """The row kernel of a ring level over F_p, or None when the step
    stays on dividends.

    A level is the ring level when every term of every vector is in
    component 0 and every vector is a form (its first and last terms, in
    grevlex order, have one degree).  With base one more than the highest
    degree of the lcms of the step's `tasks` (degree, i, j, multiplier),
    each monomial of lower degree gets its Kronecker slot (`_slot`), so a
    multiplier x^m is a shift by slot(m), and within one degree the slots
    ascend as the engine's grevlex keys descend.  Each vector's tail is
    packed once, on first use, as one int with a `_slot_bytes`-wide slot
    from the slot after its leading term up.  A row's slot reads back its
    monomial of degree base - 1 by bisection in the table of
    `_degree_slots`.  A level whose rows, base^(n - 1) slots, fail the
    size rule (`_ROW_BYTES_PER_TERM`) stays on dividends.

    Returns reduce(i, j, lcm, quotients): it reduces the S-polynomial of
    vectors i and j, whose lcm is the word `lcm`, from its lowest slot up,
    and appends one quotient (index, multiplier vkey, multiplier word,
    coefficient) per step, as `_Engine.reduce` would, in the same order.
    It returns True, at once, on a term that no leading term divides.
    """
    p = engine.p
    nvars = engine.ring.nvars
    shift = WIDTH * nvars
    vectors = level.vectors
    degree_of = _degree_func(nvars)
    lt_cw = level.lt_cw
    if (not p or not tasks
            or any(w >> shift for v in vectors for _, w, _ in v)
            or any(degree_of(v[0][1]) != degree_of(v[-1][1])
                   for v in vectors)):
        return None
    top = max(degree_of(lt_cw[i] + u) for _, i, _, u in tasks)
    base = top + 1
    # a slot takes coefficients below p^2 from the S-polynomial's halves
    # and at most one product below p^2 per slot below it
    nbytes = _slot_bytes(p, base ** (nvars - 1) + 1)
    passes = 2 + -(-p.bit_length() // int_info.bits_per_digit)
    if (base ** (nvars - 1) * nbytes * passes * len(vectors)
            > _ROW_BYTES_PER_TERM * sum(map(len, vectors))):
        return None
    if top > MAX_DEGREE:
        raise InternalLimitError(
            f"a syzygy step reached a degree above {MAX_DEGREE}, which does "
            "not fit the packed exponent fields")
    bits = 8 * nbytes
    slot_mask = (1 << bits) - 1
    window_mask = (1 << _ROW_WINDOW * bits) - 1
    zero = bytes(nbytes)
    key = engine.key
    mult = level.mult
    top_slots, top_exps = _degree_slots(nvars, top)
    slot_of = {}  # word -> slot
    word_at = {}  # slot -> its monomial of degree top
    tails = {}  # index -> packed tail

    def slot(w):
        k = slot_of.get(w)
        if k is None:
            k = slot_of[w] = _slot(_unpack_plain(w, nvars), base)
        return k

    def tail(idx):
        t = tails.get(idx)
        if t is None:
            terms = vectors[idx]
            last = slot(terms[0][1]) + 1
            chunks = []
            for _, w, c in islice(terms, 1, None):
                k = slot(w)
                chunks.append(zero * (k - last))
                chunks.append(c.to_bytes(nbytes, "little"))
                last = k + 1
            t = tails[idx] = int.from_bytes(b"".join(chunks), "little")
        return t

    def word(k):
        w = word_at.get(k)
        if w is None:
            at = bisect_left(top_slots, k)
            if at == len(top_slots) or top_slots[at] != k:
                raise InvariantError("a row reached a slot of no monomial")
            w = word_at[k] = _pack_plain(top_exps[at])
        return w

    def reduce(i, j, lcm, quotients):
        below = top - degree_of(lcm)  # x_0 degrees below top
        row = tail(i) + (p - 1) * tail(j)
        k = slot(lcm) + 1  # the slot of the row's lowest bits
        while row:
            low = row & window_mask
            if not low:  # jump to the lowest nonzero slot
                step = ((row & -row).bit_length() - 1) // bits
                row >>= step * bits
                k += step
                continue
            # the window's lowest slot that is not a multiple of p
            at = 0
            while low:
                step = ((low & -low).bit_length() - 1) // bits
                low >>= step * bits
                at += step
                v = (low & slot_mask) % p
                if v:
                    break
                low >>= bits
                at += 1
            else:
                row >>= _ROW_WINDOW * bits
                k += _ROW_WINDOW
                continue
            row >>= (at + 1) * bits
            k += at + 1
            w = word(k - 1) - below
            idx = memo.get(w)
            if idx is None or idx < 0:
                idx = engine.first_divisor(w, lt_cw, memo, idx)
                if idx < 0:
                    return True
            mw = w - lt_cw[idx]
            quotients.append((idx, key(mw) * mult, mw, v))
            row += (p - v) * tail(idx)
        return False

    return reduce


def _schreyer_step(level, engine):
    """The next level: the syzygies of a module Groebner basis of monic vectors.

    Each component's pairs are the ones `_minimal_lcms` keeps, and each
    S-vector is reduced to zero: on Kronecker rows for the ring level over
    F_p (`_ring_rows`), by the engine otherwise.  The syzygy's term m*e_c
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
    rows = _ring_rows(level, engine, tasks, memo)
    reducers = engine.reducers(vectors) if rows is None else None
    next_vectors = []
    next_degrees = []
    for degree, i, j, u in tasks:
        lcm = lt_cw[i] + u
        lcm_vkey = lt_vkey[i] + key(u) * mult
        # sp = x^u v_i - x^v v_j, so the halves join the quotients as if
        # they had reduced sp, and the syzygy is minus the sum of them all
        quotients = [(i, lcm_vkey - lt_vkey[i], u, minus_one),
                     (j, lcm_vkey - lt_vkey[j], lcm - lt_cw[j], one)]
        if rows is not None:
            left = rows(i, j, lcm, quotients)
        else:
            sp = engine.s_dividend(reducers[i], reducers[j], lcm_vkey, lcm)
            left = engine.reduce(sp, lt_cw, lt_vkey, reducers, memo, quotients)
        if left:
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
    """Graded free resolution of R/I: maps[k] sends F_{k+1} to F_k, F_0 = R.

    `minimal_free_resolution` builds one with the twists of the minimal
    resolution and keeps the raw Schreyer resolution in `_raw` for its
    whole lifetime, in engine form (`_raw_resolution`).  Its maps are
    built as public polynomials and pruned only when they are first
    read, and `modules` then takes the pruned order of the generators,
    so that `modules` and `maps` index the same generators.
    """

    def __init__(self, ring, modules, maps):
        self.ring = ring
        self.modules = modules
        self._maps = maps
        self._raw = None  # `_raw_resolution`'s (twists, columns, orders)

    @property
    def maps(self):
        if self._maps is None:
            twist_lists, columns, orders = self._raw
            self.modules, self._maps = _pruned_maps(
                self.ring, self.modules, twist_lists,
                _public_maps(self.ring, columns, orders))
        return self._maps

    @property
    def length(self):
        return len(self.modules) - 1

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
        reduced = _trim(list(numerator))
        dim = nvars
        while reduced and sum(reduced) == 0:
            if not dim:
                raise ValidationError(
                    f"the numerator {list(numerator)} has more factors of "
                    f"(1 - t) than the {nvars} variables")
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
        """Degree of the projective scheme: h(1), the reduced numerator's
        value at 1, which is (dimension - 1)! times the Hilbert
        polynomial's leading coefficient; 0 for the empty scheme."""
        return sum(self.reduced_numerator) if self.dimension else 0

    def hp_string(self):
        """Exact text form, e.g. '130t - 1150' for a curve.

        A non-integer coefficient of a power of t is parenthesized, as in
        '(19/2)t^2 - (63/2)t + 44', so that it does not read as 19/(2t^2).
        """
        if not self.hp_coeffs:
            return "0"
        parts = []
        for k in range(len(self.hp_coeffs) - 1, -1, -1):
            c = self.hp_coeffs[k]
            if c == 0:
                continue
            mono = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
            if k == 0:
                cs = str(c)
            elif c.denominator != 1:
                cs = f"{'-' if c < 0 else ''}({abs(c)})"
            else:
                cs = "" if c == 1 else "-" if c == -1 else str(c)
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
# Hilbert series of a monomial ideal (Bayer and Stillman's pivot recursion)
#
# The ideal is a list of packed words with no module component, as the
# engine keeps leading terms, and the recursion never unpacks them: each
# call minimalizes its words by `groebner._minimal` (a proper divisor is a
# smaller packed int) and memoizes on them; pairwise coprime generators
# give the product of the (1 - t^deg g); otherwise, on the variable x_v
# that most generators use, and with e the least positive exponent of x_v
# among them, the numerator of I is that of I + (x_v^e) plus t^e times
# that of I : x_v^e.  Both are arithmetic on the v-th WIDTH-bit field:
# I + (x_v^e) keeps the words whose field is zero and adds x_v^e's word,
# I : x_v^e takes e from every nonzero field.  Pivoting on x_v^e, not x_v,
# keeps the depth of the recursion off the size of the exponents.


def _poly_mul_shift(a, k, sign):
    out = [0] * (len(a) + k)
    for i, c in enumerate(a):
        out[i + k] += sign * c
    return out


def _poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def _series_numerator(words, nvars, memo):
    """The numerator of the Hilbert series of R/I, over (1 - t)^nvars, for
    the monomial ideal I of the packed `words`; `memo` maps minimal word
    tuples of this ring to their numerators."""
    guard = _guard(nvars)
    degree = _degree_func(nvars)
    fields = [((1 << WIDTH) - 1) << (v * WIDTH) for v in range(nvars)]

    def numerator(words):
        words = sorted(words)
        gens = tuple(words[n] for n in _minimal(words, guard, guard))
        num = memo.get(gens)
        if num is not None:
            return num
        if all(_lcm(a, b, guard) == a + b for a, b in combinations(gens, 2)):
            num = [1]
            for g in gens:
                num = _poly_add(num, _poly_mul_shift(num, degree(g), -1))
        else:
            field = max(fields, key=lambda f: sum(1 for g in gens if g & f))
            pivot = min(g & field for g in gens if g & field)  # x_v^e
            plus = [g for g in gens if not g & field]
            plus.append(pivot)
            quot = [g - pivot if g & field else g for g in gens]
            num = _poly_add(numerator(plus),
                            _poly_mul_shift(numerator(quot),
                                            pivot // (field & -field), 1))
        memo[gens] = num
        return num

    return numerator(words)


# ---------------------------------------------------------------------------
# public operations


def hilbert(ideal):
    """Hilbert data of R/I from the grevlex leading-term ideal."""
    cached = getattr(ideal, "_hilbert_cache", None)
    if cached is not None:
        return cached
    gb = ideal.groebner()
    num = _series_numerator(gb._lt_ws, ideal.ring.nvars, {})
    data = HilbertData(_trim(list(num)), ideal.ring.nvars)
    ideal._hilbert_cache = data
    return data


def _in_schreyer_order(level, nvars):
    """The level with its generators relabelled, and the new index of
    each old one.

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
    new_index = [0] * len(perm)
    for new, old in enumerate(perm):
        new_index[old] = new
    ordered = _SyzygyLevel([level.vectors[i] for i in perm],
                           [level.degrees[i] for i in perm], level.mult)
    return ordered, new_index


def _raw_resolution(ideal):
    """Non-minimal resolution of R/I via iterated syzygy steps, in engine
    form.

    Returns (twist_lists, columns, orders): twist_lists[k] are the
    generator degrees of F_k (twist_lists[0] == [0]), and columns[k] are
    the vectors of the map F_{k+1} -> F_k, one per generator of F_{k+1},
    whose component c is the generator c of F_k.  columns[0] holds the
    ring basis's own terms lists, in component 0.  Each level is put in
    Schreyer's order before its syzygies are taken, which bounds the
    length by the number of variables; orders[k] lists map k's columns
    in the order that made them (the basis's, then each step's), which
    is the order of the public maps' entries (`_public_maps`) and so of
    the pivots that pruning picks on a tie.
    """
    ring = ideal.ring
    gb = ideal.groebner()
    if not gb._polys:
        return [[0]], [], []
    degree_of = _degree_func(ring.nvars)
    level = _level_from_ring_gb(gb._polys, map(degree_of, gb._lt_ws))
    twist_lists = [[0]]
    columns = []
    orders = []
    for _ in range(ring.nvars + 1):
        level, new_index = _in_schreyer_order(level, ring.nvars)
        columns.append(level.vectors)
        orders.append(new_index)
        twist_lists.append(level.degrees)
        level = _schreyer_step(level, gb._engine)
        if level is None:
            break
    else:
        raise InvariantError("resolution exceeded the variable-count bound")
    return twist_lists, columns, orders


def _public_maps(ring, columns, orders):
    """The raw maps as {(r, c): Polynomial} dicts, from their columns,
    each map's entries by column in its `orders` list."""
    return [{(r, c): Polynomial(ring, terms)
             for c in order
             for r, terms in _components(vectors[c], ring.nvars).items()}
            for vectors, order in zip(columns, orders)]


def _prune_to_minimal(twist_lists, maps, field):
    """Cancel the constant entries of the complex in one pass over its
    maps, last map first; the input dicts are left as they are.

    An entry is a nonzero constant exactly when its generators have equal
    twists, as in `_constant_ranks`.  Map k is pivoted while a constant is
    left, each time on one of least Markowitz cost (the other entries of
    its row times those of its column), (r0, c0): column operations clear
    row r0, then column c0 and row r0 of map k, row c0 of map k + 1 and
    column r0 of map k - 1 go.  A pivot of twist j changes only map k,
    where a new constant needs a constant entry both in row r0 and in
    column c0, so it lies in map k's own degree-j block; the deletions in
    maps k + 1 and k - 1 only remove entries.  So one pass leaves none.
    """
    # per map, {column: {row: entry}}; the empty map after the last also
    # stands in for map -1
    cols = [{} for _ in range(len(maps) + 1)]
    for bycol, entries in zip(cols, maps):
        for (r, c), p in entries.items():
            bycol.setdefault(c, {})[r] = p
    gone = [set() for _ in twist_lists]  # cancelled generators per level
    for k in range(len(maps) - 1, -1, -1):
        src, tgt, bycol = twist_lists[k + 1], twist_lists[k], cols[k]
        while True:
            counts = Counter(r for column in bycol.values() for r in column)
            pivot = min((((counts[r] - 1) * (len(column) - 1), r, c)
                         for c, column in bycol.items()
                         for r in column if src[c] == tgt[r]),
                        key=itemgetter(0), default=None)
            if pivot is None:
                break
            _, r0, c0 = pivot
            pivot_col = bycol.pop(c0)
            inv_u = field.inv(pivot_col.pop(r0).constant_coefficient())
            for column in bycol.values():
                entry = column.pop(r0, None)
                if entry is not None:
                    factor = entry.scale(inv_u)
                    for r, p in pivot_col.items():
                        s = (column[r] - factor * p if r in column
                             else -(factor * p))
                        if s.is_zero():
                            del column[r]
                        else:
                            column[r] = s
            gone[k + 1].add(c0)
            gone[k].add(r0)
            for column in cols[k + 1].values():
                column.pop(c0, None)
            cols[k - 1].pop(r0, None)
    live = [[i for i in range(len(t)) if i not in g]
            for t, g in zip(twist_lists, gone)]
    while len(live) > 1 and not live[-1]:
        live.pop()
    index = [{i: pos for pos, i in enumerate(ids)} for ids in live]
    return ([[t[i] for i in ids] for t, ids in zip(twist_lists, live)],
            [{(index[k][r], index[k + 1][c]): p
              for c, column in cols[k].items() for r, p in column.items()}
             for k in range(len(live) - 1)])


def _constant_ranks(twist_lists, columns, ring):
    """{(k, j): rank} of the degree-j constant block of each raw map k.

    A term of columns[k][c] in component r is a constant exactly when
    generator c of F_{k+1} and generator r of F_k have equal twists (the
    vectors are homogeneous), so the block from the degree-j generators
    of F_{k+1} to those of F_k holds all the constants in degree j.
    """
    shift = WIDTH * ring.nvars
    field = ring.field
    ranks = {}
    for k, vectors in enumerate(columns):
        src = twist_lists[k + 1]
        tgt = twist_lists[k]
        blocks = {}  # degree -> {source column: {target row: constant}}
        for c, vec in enumerate(vectors):
            for _, cw, co in vec:
                r = cw >> shift
                if src[c] == tgt[r]:
                    blocks.setdefault(src[c], {}).setdefault(c, {})[r] = co
        for j, block in blocks.items():
            rows = sorted({r for column in block.values() for r in column})
            ranks[k, j] = linalg.rank(
                [[column.get(r, field.zero) for r in rows]
                 for column in block.values()], field)
    return ranks


def _betti_twists(twist_lists, columns, ring):
    """The twists of the minimal resolution, by degree within each level.

    beta_{k,j} = dim Tor_k(R/I, k)_j is the homology of F tensor k, whose
    maps are the constant blocks (Eisenbud, The Geometry of Syzygies,
    ch. 1): beta_{k,j} = n_{k,j} - r_{k,j} - r_{k-1,j}.
    """
    ranks = _constant_ranks(twist_lists, columns, ring)
    levels = []
    for k, twists in enumerate(twist_lists):
        level = []
        for j in sorted(set(twists)):
            beta = (twists.count(j) - ranks.get((k, j), 0)
                    - ranks.get((k - 1, j), 0))
            if beta < 0:
                raise InvariantError("the constant blocks of the raw "
                                     "resolution do not form a complex")
            level.extend([j] * beta)
        levels.append(level)
    while len(levels) > 1 and not levels[-1]:
        levels.pop()
    return levels


def _pruned_maps(ring, modules, twist_lists, raw_maps):
    """The minimal maps, pruned from the raw resolution, and their modules.

    The pruned twists must be the ranks' twists, level by level.
    """
    twists, maps = _prune_to_minimal(twist_lists, raw_maps, ring.field)
    if [sorted(t) for t in twists] != [sorted(m.twists) for m in modules]:
        raise InvariantError("the pruned resolution's twists differ from "
                             "those read from its constant blocks")
    modules = [GradedFreeModule(t) for t in twists]
    graded_maps = [GradedMap(modules[k + 1], modules[k], entries)
                   for k, entries in enumerate(maps)]
    if any(p.is_constant() for m in graded_maps for p in m.entries.values()):
        raise InvariantError("pruning left a constant entry in the resolution")
    return modules, graded_maps


def minimal_free_resolution(ideal):
    """Minimal graded free resolution of R/I.

    The twists come from the ranks of the raw resolution's constant
    blocks, read from its engine vectors; the maps are built and pruned
    when they are first read.
    """
    cached = getattr(ideal, "_resolution_cache", None)
    if cached is not None:
        return cached
    if ideal.is_unit():
        raise ValidationError("resolution requires a proper ideal")
    twist_lists, columns, orders = _raw_resolution(ideal)
    levels = _betti_twists(twist_lists, columns, ideal.ring)
    res = Resolution(ideal.ring, [GradedFreeModule(t) for t in levels], None)
    res._raw = (twist_lists, columns, orders)
    ideal._resolution_cache = res
    return res


def betti_table(res):
    """Betti table of a minimal resolution.  A resolution given with its
    maps is checked for minimality; one from `minimal_free_resolution`
    holds minimal twists without its maps being pruned."""
    if res._maps is not None and not res.is_minimal():
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
    projective dimension is read off the cached resolution's twists.
    """
    if ideal.is_unit():
        return True
    return minimal_free_resolution(ideal).length < ideal.ring.nvars


def rao_dimensions(ideal):
    """Graded dimensions of the deficiency module of a curve in P^3.

    Requires a saturated unmixed codimension-2 ideal in 4 variables.  The
    table is empty exactly when the quotient is Cohen-Macaulay.  It is
    `unmixed_deficiency`'s table; where that finds the ideal mixed, this
    raises, naming a projective dimension above 3 when there is one.
    """
    table = unmixed_deficiency(ideal)
    if table is not None:
        return table
    if not is_saturated(ideal):
        raise ValidationError(
            "projective dimension exceeds 3 (ideal is not saturated)")
    raise ValidationError(
        "Ext^3(R/I, R) does not have finite length (ideal is not unmixed)")


def unmixed_deficiency(ideal):
    """The deficiency table of a height-two ideal in 4 variables, or None
    when the ideal is mixed.

    Such an ideal is unmixed exactly when pd(R/I) <= 3 and Ext^3(R/I, R)
    has finite length (Eisenbud, Huneke and Vasconcelos 1992, "Direct
    methods for primary decomposition", Invent. Math. 110).  Ext is read
    from the cached resolution's raw Schreyer maps, so this never prunes.
    With pd <= 3, Ext^4 = 0, so d_4^dual maps onto F_4^dual, the last raw
    module (the Schreyer order bounds the length by 4), and
    HS(Ext^3) = HS(coker d_3^dual) - HS(F_4^dual), re-indexed by
    t -> -t - 4 into the table.
    """
    ring = ideal.ring
    if ring.nvars != 4:
        raise ValidationError("deficiency tables require a 4-variable ring")
    if ring.nvars - hilbert(ideal).dimension != 2:
        raise ValidationError("deficiency tables require codimension 2")
    res = minimal_free_resolution(ideal)
    if res.length > 3:
        return None
    twist_lists, columns, _ = res._raw
    if len(columns) < 3:
        return {}
    top = max(b for twists in twist_lists[3:] for b in twists)
    num = _dual_cokernel_numerator(ring, columns[2], twist_lists[3], top)
    for b in (twist_lists[4] if len(twist_lists) > 4 else ()):
        num = _poly_add(num, _poly_mul_shift([1], top - b, -1))
    return _deficiency_table(num, top)


def _dual_cokernel_numerator(ring, columns, source, top):
    """Hilbert series numerator of coker(d^dual: F_k^dual -> F_(k+1)^dual).

    `columns` are d's engine vectors, one per generator of F_(k+1), of
    twists `source`, with components in F_k.  Column r of d^dual is
    sum_c d(r, c) * e_c, with e_c of degree -source[c], so it is
    homogeneous in the module `_Engine` of twists -source: its terms are
    those of component r of each columns[c], moved to component c and
    keyed by that engine, whose `buchberger` completes the columns to a
    reduced module Groebner basis of the image.  Its standard
    monomials are a basis of the cokernel (Eisenbud, Commutative Algebra,
    15.10), and its leading words are minimal, so the series is the sum
    over the components of their monomial quotients' series:
    t^(-top) * num(t) / (1 - t)^nvars, for a `top` at least max(source).
    """
    engine = _Engine(ring, twists=[-b for b in source])
    key = engine.key
    shift = WIDTH * ring.nvars
    low = (1 << shift) - 1
    dual = {}  # r -> the terms of column r of d^dual
    for c, vec in enumerate(columns):
        for _, cw, co in vec:
            w = (c << shift) | (cw & low)
            dual.setdefault(cw >> shift, []).append((key(w), w, co))
    for terms in dual.values():
        terms.sort(reverse=True)
    basis = engine.buchberger([dual[r] for r in sorted(dual)])
    by_comp = {}
    for terms in basis:
        w = terms[0][1]
        by_comp.setdefault(w >> shift, []).append(w & low)
    memo = {}
    num = []
    for c, b in enumerate(source):
        part = _series_numerator(by_comp.get(c, ()), ring.nvars, memo)
        num = _poly_add(num, _poly_mul_shift(part, top - b, 1))
    return num


def _deficiency_table(num, top):
    """{t: dim} of Ext^3 with series t^(-top) * num(t) / (1 - t)^4,
    re-indexed by t -> -t - 4, or None when it has no finite length."""
    ext = HilbertData(_trim(num), 4)
    if ext.dimension:
        return None
    return {top - k - 4: dim for k, dim in enumerate(ext.reduced_numerator)
            if dim}
