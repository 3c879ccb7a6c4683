"""Reduced Groebner bases and the ideal-theoretic toolbox.

The engine keeps polynomials as lists of (order_key, packed_exps, coeff)
triples sorted by descending order key.  Both encodings are additive
under monomial multiplication, so the inner reduction loop is pure
integer arithmetic: no exponent tuples are touched until conversion back
to the public Polynomial type.

A polynomial under reduction lives in a `_Dividend`: a dict from order
key to coefficient, a dict from order key to packed exponents and a heap
of the keys.  Subtracting c * x^m * g touches only the terms of g, so a
reduction step costs O(len(g) log n) however long the dividend is; the
goal is that of Yan's geobuckets (1998, "The geobucket data structure
for polynomials"), with a heap in place of the buckets.  A popped term
whose exponents reach a guard bit raises `InternalLimitError`.

`_Engine.reduce` is the one divisor search: normal forms, S-polynomials
and the Schreyer syzygy step all run through it, over F_p and over Q
alike, and an optional sink records each step's quotient.  A
module term carries its component above the exponent fields; the
divisor test masks those bits in, so it fails across components and is
unchanged for ring terms.

Buchberger completion uses the Gebauer-Moller pair criteria with
sugar-degree selection (ties by the pair lcm under the ambient order),
which is enough to keep every corpus computation within its budget.
The pair bookkeeping never unpacks an exponent tuple: the lcm, the
divisibility tests of the M, F and B criteria, the coprimality test and
the degrees behind the sugar are guard-bit arithmetic on the packed
words (`_lcm`, `_divides`, `_degree_func`), and the pairs wait in a heap.
`_minimal_lcms` applies the M and F criteria, for Buchberger and for the
Schreyer step alike.
Within one completion the basis only grows by appending, so each
monomial's first divisor is remembered (or how far the scan got without
one) and never searched twice.  Inputs that are already Groebner bases
can be fed as blocks, whose internal pairs are never formed.
`_intersect_bases` maps two internal reduced grevlex bases to that of
their intersection: it builds t*G_a and (1-t)*G_b this way, with G_a the
basis whose highest leading degree is lower (the first on a tie), since
that orientation subtracts fewer terms for the same answer.  `intersect`
is the two-ideal case of `intersect_many`, which folds its balanced tree
on internal bases, drops each pair as soon as it is intersected, checks
only that each intermediate basis has minimal leading terms, and builds
one public `Ideal`, checked against its basis, at the end.

For homogeneous inputs the intersection is Hilbert-driven (Traverso 1996,
"Hilbert functions and the Buchberger algorithm"): with t of weight 0,
the elimination works in a graded module whose degree-d dimension is
dim a_d + dim b_d, known from the inputs' leading monomials before any
pair is reduced.  Pairs are taken by the degree of their lcm, and once
the leading terms in degree d fill that dimension, the remaining pairs
of degree d are dropped unreduced.  Only the t-free elements, the answer,
are minimalized and tail-reduced.  Inhomogeneous inputs take the plain
elimination, since the grading argument does not hold for them.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from itertools import islice

from .errors import (InternalLimitError, InvariantError, RingContextError,
                     ValidationError)
from .polyring import (GREVLEX, MAX_DEGREE, WIDTH, PolyRing, Polynomial,
                       elimination_order)

_SATURATION_RETRIES = 8


# ---------------------------------------------------------------------------
# packed helpers

def _pack_plain(exps):
    w = 0
    for e in reversed(exps):
        w = (w << WIDTH) | e
    return w


def _unpack_plain(w, nvars):
    mask = (1 << WIDTH) - 1
    return tuple((w >> (i * WIDTH)) & mask for i in range(nvars))


def _guard(nvars):
    g = 0
    for i in range(nvars):
        g |= (1 << (WIDTH - 1)) << (i * WIDTH)
    return g


def _degree_func(nvars):
    """Total degree of a packed monomial whose fields are below 2**WIDTH.

    The even and the odd fields are masked apart, so each lands in its own
    2*WIDTH-bit chunk; since 2**(2*WIDTH) is 1 modulo 2**(2*WIDTH) - 1,
    the remainder is the sum of the chunks, which stays below the modulus
    for any ring of fewer than 2**WIDTH variables.
    """
    even = 0
    for i in range(0, nvars, 2):
        even |= ((1 << WIDTH) - 1) << (i * WIDTH)
    mod = (1 << (2 * WIDTH)) - 1

    def degree(w):
        return (w & even) % mod + ((w >> WIDTH) & even) % mod

    return degree


def _lcm(a, b, guard):
    """lcm of two guard-free packed monomials: the larger field of each."""
    m = ((((a | guard) - b) & guard) >> (WIDTH - 1)) * ((1 << WIDTH) - 1)
    return (a & m) | (b & ~m)


def _divides(a, b, guard):
    """Whether the packed monomial a divides b (both guard-free)."""
    return ((b | guard) - a) & guard == guard


def _minimal_lcms(lt_ws, w_new, guard):
    """The pairs of `w_new` that survive the Gebauer-Moller M and F criteria.

    Returns the lcm of `w_new` with each of `lt_ws`, and a dict from each
    minimal lcm (properly divided by no other) to the first index that
    has it.  The words may carry a module component above the exponent
    fields as long as they all carry the same one.
    """
    lcms = [_lcm(w, w_new, guard) for w in lt_ws]
    # a proper divisor is also a smaller packed integer
    minimal = []
    for lcm in sorted(set(lcms)):
        if not any(_divides(m, lcm, guard) for m in minimal):
            minimal.append(lcm)
    minimal = set(minimal)
    first = {}
    for i, lcm in enumerate(lcms):
        if lcm in minimal:
            first.setdefault(lcm, i)
    return lcms, first


# ---------------------------------------------------------------------------
# internal polynomial representation


def _to_internal(poly, keyf):
    if poly.terms and max(map(sum, poly.terms)) > MAX_DEGREE:
        raise InternalLimitError(
            f"a term of degree above {MAX_DEGREE} does not fit the packed "
            "exponent fields")
    items = [(keyf(e), _pack_plain(e), c) for e, c in poly.terms.items()]
    items.sort(reverse=True)
    return items


def _from_internal(terms, ring):
    return Polynomial(ring, {_unpack_plain(w, ring.nvars): c for _, w, c in terms})


class _Dividend:
    """A polynomial under reduction, in descending key order on demand.

    `coeffs` maps key -> coefficient, `exps` maps key -> packed exponents
    and `heap` holds each live key once, negated.  Over F_p coefficients
    are left unreduced until their term is popped, so the subtraction
    loop is the same for both fields; a coefficient that cancels stays
    until its key leaves the heap and is then skipped.

    Every popped term is checked against the guard bits: the reducers'
    fields are guard-free, so one subtraction can set a guard bit but not
    carry past it, and a degree above MAX_DEGREE raises instead of
    wrapping around (an elimination order can raise degrees).
    """

    __slots__ = ("coeffs", "exps", "heap", "p", "guard")

    def __init__(self, terms, p, guard):
        """`terms` is sorted by descending key, so the negated keys form a heap."""
        self.coeffs = {k: c for k, _, c in terms}
        self.exps = {k: w for k, w, _ in terms}
        self.heap = [-k for k, _, _ in terms]
        self.p = p
        self.guard = guard

    def sub(self, g, c, mk, mw):
        """Subtract c * x^m * g without its leading term.

        The caller has already removed the term that c * x^m * g[0]
        cancels (a popped leading term, or the other half of an
        S-polynomial).
        """
        coeffs = self.coeffs
        exps = self.exps
        heap = self.heap
        for gk, gw, gc in islice(g, 1, None):
            k = gk + mk
            v = coeffs.get(k)
            if v is None:
                coeffs[k] = -c * gc
                exps[k] = gw + mw
                heappush(heap, -k)
            else:
                coeffs[k] = v - c * gc

    def pop(self):
        """Remove and return the leading nonzero term, or None when zero."""
        heap = self.heap
        coeffs = self.coeffs
        p = self.p
        guard = self.guard
        while heap:
            k = -heappop(heap)
            c = coeffs.pop(k)
            w = self.exps.pop(k)
            if w & guard:
                raise InternalLimitError(
                    f"a reduction reached a degree above {MAX_DEGREE}, which "
                    "does not fit the packed exponent fields")
            if p:
                c %= p
            if c:
                return k, w, c
        return None


class _Engine:
    """Groebner kernel bound to one (ring, order) pair."""

    def __init__(self, ring, order):
        self.ring = ring
        self.order = order
        self.keyf = ring.key_func(order)
        self.guard = _guard(ring.nvars)
        # the bits above the exponent fields hold a module component:
        # (w | guard) - lt keeps their difference there, so a divisor test
        # through this mask fails across components and is unchanged for
        # ring terms
        self.mask = self.guard | (-1 << WIDTH * ring.nvars)
        self.p = ring.field.p

    # -- reduction ---------------------------------------------------------
    def monic(self, terms):
        c = terms[0][2]
        if c == 1:
            return terms
        if self.p:
            ic = self.ring.field.inv(c)
            p = self.p
            return [(k, w, (cc * ic) % p) for k, w, cc in terms]
        return [(k, w, cc / c) for k, w, cc in terms]

    def s_dividend(self, gi, gj, lcm_key, lcm_w):
        """The S-polynomial of two monic terms lists, as a dividend."""
        mik = lcm_key - gi[0][0]
        miw = lcm_w - gi[0][1]
        acc = _Dividend([(k + mik, w + miw, c) for k, w, c in islice(gi, 1, None)],
                        self.p, self.guard)
        acc.sub(gj, self.ring.field.one, lcm_key - gj[0][0], lcm_w - gj[0][1])
        return acc

    def reduce(self, acc, lt_ws, lt_keys, polys, memo=None, quotients=None):
        """Full normal form of a dividend against a list of monic polys.

        Each leading term is reduced by the first basis element whose
        leading term divides it in the same module component; irreducible
        terms are emitted in descending key order.  `memo`, when given,
        maps packed exponents to the index of their first divisor, or to
        ~n for "no divisor among the first n"; it stays exact while the
        basis only grows by appending, so the scan resumes where it
        stopped.  `quotients`, when given, receives (index, multiplier
        key, multiplier word, coefficient) for each reduction step.
        """
        guard = self.guard
        mask = self.mask
        nbasis = len(lt_ws)
        out = []
        while (term := acc.pop()) is not None:
            k, w, c = term
            idx = None if memo is None else memo.get(w)
            if idx is None or idx < 0:
                wg = w | guard
                for idx in range(0 if idx is None else ~idx, nbasis):
                    if (wg - lt_ws[idx]) & mask == guard:
                        break
                else:
                    idx = ~nbasis
                if memo is not None:
                    memo[w] = idx
                if idx < 0:
                    out.append(term)
                    continue
            mk = k - lt_keys[idx]
            mw = w - lt_ws[idx]
            acc.sub(polys[idx], c, mk, mw)
            if quotients is not None:
                quotients.append((idx, mk, mw, c))
        return out

    def normal_form(self, terms, lt_ws, lt_keys, polys, memo=None):
        return self.reduce(_Dividend(terms, self.p, self.guard), lt_ws, lt_keys,
                           polys, memo)

    # -- Buchberger --------------------------------------------------------
    def buchberger(self, gens_internal, blocks=(), drive=None, eliminate=0):
        """Reduced Groebner basis of the generators and blocks.

        Each generator is reduced against the basis so far before it
        joins.  Each block must already be a Groebner basis of the ideal
        it generates, in this order; its elements join as they are, and
        no pair inside one block is formed: its S-polynomial already has
        a standard representation in the block.

        With a `drive` (a `_HilbertDrive`), pairs are taken by the degree
        the drive gives their lcm, and once `drive.full(d)` holds, the
        remaining pairs of degree d are dropped unreduced.  `eliminate`
        is a packed mask of variables that the order eliminates: elements
        whose leading monomial meets it are left out of the result, and
        out of its minimalization and tail reduction (they can neither
        divide nor reduce a monomial that avoids the mask).
        """
        polys = []
        lt_keys = []
        lt_ws = []
        lt_degs = []
        sugars = []
        block_of = []
        pairs = []  # a heap of (degree, sugar, lcm_key, i, j, lcm_w)
        memo = {}
        nvars = self.ring.nvars
        keyf = self.keyf
        guard = self.guard
        degree_of = _degree_func(nvars)

        def add(terms, sugar, block=None):
            terms = self.monic(terms)
            t = len(polys)
            w_new = terms[0][1]
            d_new = degree_of(w_new)
            lcms, first = _minimal_lcms(lt_ws, w_new, guard)
            # B1: an lcm that some pair reaches with coprime lts is dropped
            coprime = {lcm for lcm, w in zip(lcms, lt_ws) if lcm == w + w_new}
            new_pairs = []
            for lcm, i in first.items():
                if lcm in coprime:
                    continue
                if block is not None and block_of[i] == block:
                    continue  # standard representation inside the block
                d = degree_of(lcm)
                s = max(sugars[i] + d - lt_degs[i], sugar + d - d_new)
                degree = 0 if drive is None else drive.degree(lcm)
                new_pairs.append((degree, s, keyf(_unpack_plain(lcm, nvars)),
                                  i, t, lcm))
            # B criterion on old pairs: lcms[i] is lcm(lt_i, lt_new)
            kept_old = [pr for pr in pairs
                        if not _divides(w_new, pr[5], guard)
                        or lcms[pr[3]] == pr[5] or lcms[pr[4]] == pr[5]]
            if len(kept_old) < len(pairs):
                pairs[:] = kept_old
                heapify(pairs)
            for pr in new_pairs:
                heappush(pairs, pr)
            polys.append(terms)
            lt_keys.append(terms[0][0])
            lt_ws.append(w_new)
            lt_degs.append(d_new)
            sugars.append(sugar)
            block_of.append(block)
            if drive is not None:
                drive.note(w_new)

        def sugar_of(terms):
            return max(degree_of(w) for _, w, _ in terms)

        for terms in sorted(gens_internal, key=lambda t: t[0][0]):
            if not terms:
                continue
            nf = self.normal_form(terms, lt_ws, lt_keys, polys, memo)
            if nf:
                add(nf, sugar_of(terms))
        for b, block in enumerate(blocks):
            for terms in block:
                sugar = sugar_of(terms)
                if sugar > MAX_DEGREE:
                    raise InternalLimitError(
                        f"a term of degree above {MAX_DEGREE} does not fit the "
                        "packed exponent fields")
                add(terms, sugar, b)

        counting = full = None  # degrees where the drive counts / is full
        while pairs:
            degree, sugar, lcm_key, i, j, lcm_w = heappop(pairs)
            if degree == full:
                drive.dropped += 1
                continue
            if sugar > MAX_DEGREE:
                # the sugar bounds the degree of every term of this reduction
                raise InternalLimitError(
                    f"an S-polynomial of degree above {MAX_DEGREE} does not fit "
                    "the packed exponent fields")
            acc = self.s_dividend(polys[i], polys[j], lcm_key, lcm_w)
            nf = self.reduce(acc, lt_ws, lt_keys, polys, memo)
            if nf:
                add(nf, sugar)
            elif drive is not None:
                counting = degree  # count only where a zero reduction was seen
            if degree == counting and drive.full(degree):
                full = degree

        # minimalize: drop elements whose lt is divisible by another kept lt
        order_ix = sorted((ix for ix in range(len(polys))
                           if not lt_ws[ix] & eliminate),
                          key=lambda ix: lt_keys[ix])
        kept = []
        kept_ws = []
        for ix in order_ix:
            if any(_divides(kw, lt_ws[ix], guard) for kw in kept_ws):
                continue
            kept.append(ix)
            kept_ws.append(lt_ws[ix])
        # tail-reduce each kept element against the others
        reduced = []
        for pos, ix in enumerate(kept):
            other_ws = [lt_ws[k] for k in kept if k != ix]
            other_keys = [lt_keys[k] for k in kept if k != ix]
            other_polys = [polys[k] for k in kept if k != ix]
            nf = self.normal_form(polys[ix], other_ws, other_keys, other_polys)
            reduced.append(self.monic(nf))
        reduced.sort(key=lambda t: t[0][0])
        return reduced


class GroebnerBasis:
    """Reduced Groebner basis of an ideal for a fixed monomial order."""

    def __init__(self, ring, order, internal, polys=None):
        """`polys`, when given, are the public forms of `internal`."""
        self.ring = ring
        self.order = order
        self._engine = _Engine(ring, order)
        self._polys = internal
        self._lt_keys = [t[0][0] for t in internal]
        self._lt_ws = [t[0][1] for t in internal]
        self.polys = (tuple(_from_internal(t, ring) for t in internal)
                      if polys is None else tuple(polys))

    def __len__(self):
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def leading_exponents(self):
        return [_unpack_plain(w, self.ring.nvars) for w in self._lt_ws]

    def normal_form(self, f):
        if f.ring != self.ring:
            raise RingContextError("polynomial from a different ring")
        terms = _to_internal(f, self._engine.keyf)
        nf = self._engine.normal_form(terms, self._lt_ws, self._lt_keys, self._polys)
        return _from_internal(nf, self.ring)

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def is_unit_ideal(self):
        return len(self._lt_ws) == 1 and self._lt_ws[0] == 0


# ---------------------------------------------------------------------------
# the public Ideal type


class Ideal:
    """Homogeneous ideal with cached reduced Groebner bases per order."""

    def __init__(self, ring, gens, allow_inhomogeneous=False):
        gens = tuple(g for g in gens if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise RingContextError("generator from a different ring")
            if not allow_inhomogeneous and not g.is_homogeneous():
                raise ValidationError(f"inhomogeneous generator: {g}")
        self.ring = ring
        self.gens = gens
        self._cache = {}

    # -- Groebner machinery -------------------------------------------------
    def groebner(self, order=GREVLEX):
        """The cached reduced basis.  Every caller takes grevlex; the
        argument stays because `perfbench/layertrace.py` reads it."""
        gb = self._cache.get(order.tag)
        if gb is None:
            engine = _Engine(self.ring, order)
            internal = engine.buchberger([_to_internal(g, engine.keyf)
                                          for g in self.gens])
            gb = self._keep(GroebnerBasis(self.ring, order, internal))
        return gb

    def _keep(self, gb):
        """Cache a basis once every generator reduces to zero against it."""
        for g in self.gens:
            if not gb.contains(g):
                raise InvariantError(
                    "Groebner cache verification failed: generator does not "
                    "reduce to zero against its own basis")
        self._cache[gb.order.tag] = gb
        return gb

    def normal_form(self, f):
        return self.groebner().normal_form(f)

    def contains(self, f):
        return self.groebner().contains(f)

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return self.groebner().is_unit_ideal()

    def equals(self, other):
        if self.ring != other.ring:
            raise RingContextError("ideals in different rings")
        return self.groebner().polys == other.groebner().polys

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens[:6])
        if len(self.gens) > 6:
            inside += ", ..."
        return f"Ideal({inside})"


# ---------------------------------------------------------------------------
# ideal operations


def _extend_ring(ring, extra="t0"):
    name = extra
    while name in ring.names:
        name += "_"
    return PolyRing((name,) + ring.names, ring.field), name


def _lift(poly, ext):
    return Polynomial(ext, {(0,) + e: c for e, c in poly.terms.items()})


class _DegreeCounter:
    """dim I_d for a monomial ideal I, one degree at a time.

    The degree-d part of I is kept as a set of packed monomials and grown
    by I_{d+1} = x * I_d + (generators of degree d + 1).  Degrees must be
    asked for in increasing order; a generator may join at the current
    degree or above.
    """

    def __init__(self, nvars, gens=()):
        """`gens` are packed monomials."""
        self.steps = [1 << (i * WIDTH) for i in range(nvars)]
        self.pending = {}  # degree -> packed generators above `degree`
        self.degree = -1
        self.part = set()
        degree_of = _degree_func(nvars)
        for w in gens:
            self.add(w, degree_of(w))

    def add(self, w, d):
        if d > self.degree:
            self.pending.setdefault(d, []).append(w)
        elif d == self.degree:
            self.part.add(w)
        else:
            raise InvariantError(f"a generator of degree {d} joined a monomial "
                                 f"ideal already counted in degree {self.degree}")

    def count(self, d):
        if d < self.degree:
            raise InvariantError(f"degree {d} asked after degree {self.degree}")
        while self.degree < d:
            if not self.part:
                # nothing below the lowest pending generator: skip to it
                low = min(self.pending, default=d + 1)
                if low > d:
                    return 0
                self.degree = low
                self.part = set(self.pending.pop(low))
                continue
            self.degree += 1
            steps = self.steps
            self.part = {w + s for w in self.part for s in steps}
            self.part.update(self.pending.pop(self.degree, ()))
        return len(self.part)


class _HilbertDrive:
    """Traverso's stopping rule for the elimination in `intersect`.

    Give t weight 0.  Every element met while eliminating t from
    t * G_a + (1 - t) * G_b has the form A * t + B, and these elements
    form the graded module N = {A * t + B : B in b, A + B in a}, which is
    isomorphic to a + b as a vector space in each degree:
    dim N_d = dim a_d + dim b_d, read off the inputs' leading monomials.
    The leading terms of the basis so far span t * T_d + O_d, where T is
    generated by the x-parts of all leading monomials (t * B lies in N
    when B is t-free) and O by those of the t-free elements.  When
    |T_d| + |O_d| reaches dim N_d, every remaining pair of degree d
    reduces to zero.  Exact only for homogeneous a and b.
    """

    def __init__(self, nvars, leads_a, leads_b):
        """`leads_a` and `leads_b` are the packed leading monomials of G_a
        and G_b."""
        self.x_degree = _degree_func(nvars)
        self.targets = (_DegreeCounter(nvars, leads_a),
                        _DegreeCounter(nvars, leads_b))
        self.t_part = _DegreeCounter(nvars)
        self.free_part = _DegreeCounter(nvars)
        self.dropped = 0

    def degree(self, w):
        """The x-degree of a packed monomial of the extended ring: t is the
        lowest field."""
        return self.x_degree(w >> WIDTH)

    def note(self, w):
        """Record the packed leading monomial `w` of a new basis element."""
        t_exp = w & ((1 << WIDTH) - 1)
        if t_exp > 1:
            raise InvariantError("a leading term of t-degree above 1 in an "
                                 "intersection")
        x = w >> WIDTH
        d = self.x_degree(x)
        self.t_part.add(x, d)
        if not t_exp:
            self.free_part.add(x, d)

    def full(self, d):
        """Whether the leading terms fill the degree-d part of N."""
        have = self.t_part.count(d) + self.free_part.count(d)
        want = sum(target.count(d) for target in self.targets)
        if have > want:
            raise InvariantError(f"leading terms span {have} dimensions in "
                                 f"degree {d}, above the Hilbert function {want}")
        return have == want


def _top_lead_degree(basis, degree_of):
    return max(degree_of(terms[0][1]) for terms in basis)


def _is_homogeneous(basis, degree_of):
    """Whether every element of an internal grevlex basis is homogeneous:
    grevlex sorts by degree first, so its first and last terms tell."""
    return all(degree_of(terms[0][1]) == degree_of(terms[-1][1])
               for terms in basis)


def _intersect_bases(ring, pa, pb):
    """The internal reduced grevlex basis of a ∩ b, from those of a and b.

    The elimination starts from t * G_a and (1 - t) * G_b, fed as two
    blocks.  The basis whose highest leading degree is lower goes into
    the t-block (the first one on a tie): the answer is the same, but its
    reductions subtract fewer terms.  For homogeneous inputs a
    `_HilbertDrive` drops the pairs that the inputs' Hilbert functions
    prove redundant.  Only the t-free part of the elimination basis is
    finished: it is the reduced grevlex basis of the intersection.  Both
    inputs must be proper and nonzero.
    """
    degree_of = _degree_func(ring.nvars)
    if _top_lead_degree(pb, degree_of) < _top_lead_degree(pa, degree_of):
        pa, pb = pb, pa
    ext, _ = _extend_ring(ring)
    engine = _Engine(ext, elimination_order(1))
    # t comes first in the elimination order and is the lowest packed
    # field: the elimination key of a t-free monomial is its grevlex key in
    # `ring`, and t * m has key key(t) + key(m), above every t-free key
    t_key = engine.keyf((1,) + (0,) * ring.nvars)
    neg = ring.field.neg
    t_block = [[(k + t_key, (w << WIDTH) | 1, c) for k, w, c in terms]
               for terms in pa]
    one_minus_t_block = [
        [(k + t_key, (w << WIDTH) | 1, neg(c)) for k, w, c in terms]
        + [(k, w << WIDTH, c) for k, w, c in terms]
        for terms in pb]
    drive = None
    if _is_homogeneous(pa, degree_of) and _is_homogeneous(pb, degree_of):
        drive = _HilbertDrive(ring.nvars, [t[0][1] for t in pa],
                              [t[0][1] for t in pb])
    # an element with a t-free leading term is t-free
    t_mask = (1 << WIDTH) - 1
    basis = engine.buchberger([], blocks=(t_block, one_minus_t_block),
                              drive=drive, eliminate=t_mask)
    return [[(k, w >> WIDTH, c) for k, w, c in terms] for terms in basis]


def _check_minimal(basis, nvars):
    """Raise `InvariantError` if a leading word of an internal basis
    divides another: a reduced basis has minimal leading terms."""
    guard = _guard(nvars)
    leads = [terms[0][1] for terms in basis]
    for i, u in enumerate(leads):
        for j, v in enumerate(leads):
            if i != j and _divides(u, v, guard):
                raise InvariantError("an intersection basis has a leading "
                                     "term that divides another")


def _ideal_from_basis(ring, internal):
    """The public ideal generated by, and caching, an internal reduced
    grevlex basis."""
    out = [_from_internal(terms, ring) for terms in internal]
    result = Ideal(ring, out,
                   allow_inhomogeneous=not all(g.is_homogeneous() for g in out))
    result._keep(GroebnerBasis(ring, GREVLEX, internal, out))
    return result


def intersect(a, b):
    """Ideal intersection via elimination of one auxiliary variable: the
    two-ideal case of `intersect_many`."""
    return intersect_many((a, b))


def intersect_many(ideals):
    """Balanced pairwise intersection of a nonempty list of ideals.

    A single ideal comes back as it is; a zero ideal makes the answer
    zero, and unit ideals are dropped.  The tree is folded on internal
    bases: a pair leaves the fold as soon as it is intersected, and each
    intermediate basis only has its leading terms checked for
    minimality; the answer alone becomes a public `Ideal`.
    """
    items = list(ideals)
    if not items:
        raise ValidationError("empty intersection")
    if len(items) == 1:
        return items[0]
    ring = items[0].ring
    if any(ideal.ring != ring for ideal in items):
        raise RingContextError("ideals in different rings")
    if any(ideal.is_zero() for ideal in items):
        return Ideal(ring, ())
    proper = [ideal for ideal in items if not ideal.is_unit()]
    if len(proper) < 2:
        return Ideal(ring, (proper or items)[0].gens)
    level = [ideal.groebner()._polys for ideal in proper]
    while len(level) > 1:
        level.reverse()  # pop the pairs in list order
        nxt = []
        while len(level) > 1:
            basis = _intersect_bases(ring, level.pop(), level.pop())
            _check_minimal(basis, ring.nvars)
            nxt.append(basis)
        level = nxt + level
    return _ideal_from_basis(ring, level[0])


def _shift_last(terms, coeffs, engine):
    """Internal terms with the last variable x_n replaced by
    x_n + sum(coeffs[i] * x_i), by Horner's rule in x_n: keys and words add
    under multiplication."""
    nvars = engine.ring.nvars
    shift = WIDTH * (nvars - 1)
    steps = [(engine.keyf(tuple(int(j == i) for j in range(nvars))),
              1 << (WIDTH * i), c)
             for i, c in enumerate(coeffs + [1]) if c]
    by_power = {}
    for k, w, c in terms:
        e = w >> shift
        by_power.setdefault(e, []).append((k - e * steps[-1][0],
                                           w - (e << shift), c))
    p = engine.p
    words = {}
    acc = {}
    for e in range(max(by_power), -1, -1):
        nxt = {}
        for k, c in acc.items():
            w = words[k]
            for sk, sw, a in steps:
                nxt[k + sk] = nxt.get(k + sk, 0) + a * c
                words[k + sk] = w + sw
        for k, w, c in by_power.get(e, ()):
            nxt[k] = nxt.get(k, 0) + c
            words[k] = w
        acc = {k: c % p for k, c in nxt.items()} if p else nxt
    return sorted(((k, words[k], c) for k, c in acc.items() if c),
                  reverse=True)


def saturate_irrelevant(a):
    """a : m^infinity for the irrelevant maximal ideal m = (x_0..x_n).

    Saturates by one linear form l = x_n - sum c_i * x_i with seeded
    random c_i (Bayer and Stillman 1987, "A criterion for detecting
    m-regularity").  The substitution phi: x_n -> x_n + sum c_i * x_i sends
    l to x_n, and dividing each element of the grevlex basis of phi(a) by
    its largest power of x_n gives a basis of phi(a) : x_n^infinity; the
    elements with minimal leading terms are mapped back by phi^-1 to
    generate a : l^infinity.  Always a <= a^sat <= a : l^infinity with the
    last two saturated, so equal Hilbert polynomials prove
    a : l^infinity = a^sat; otherwise l lies in an associated prime, and
    new coefficients are drawn, up to `_SATURATION_RETRIES` times.  The
    generators of the answer are its reduced grevlex basis.
    """
    if not all(g.is_homogeneous() for g in a.gens):
        raise ValidationError("saturation needs homogeneous generators")
    if a.is_zero() or a.is_unit():
        return a
    from .homology import hilbert
    target = hilbert(a).hp_coeffs
    ring = a.ring
    engine = _Engine(ring, GREVLEX)
    last = ring.nvars - 1
    shift = WIDTH * last
    x_key = engine.keyf((0,) * last + (1,))
    gens = [_to_internal(g, engine.keyf) for g in a.gens]
    rng = random.Random(0)
    for _ in range(_SATURATION_RETRIES):
        coeffs = [rng.randint(-30, 30) for _ in range(last)]
        basis = engine.buchberger([_shift_last(g, coeffs, engine)
                                   for g in gens])
        divided = []
        for terms in basis:
            k = min(w >> shift for _, w, _ in terms)
            divided.append([(key - k * x_key, w - (k << shift), c)
                            for key, w, c in terms])
        # a proper divisor of a grevlex leading term has a smaller key
        divided.sort(key=lambda t: t[0][0])
        kept_ws = []
        back = []
        for terms in divided:
            w = terms[0][1]
            if not any(_divides(kw, w, engine.guard) for kw in kept_ws):
                kept_ws.append(w)
                back.append(_shift_last(terms, [-c for c in coeffs], engine))
        result = _ideal_from_basis(ring, engine.buchberger(back))
        if hilbert(result).hp_coeffs == target:
            return result
    raise InternalLimitError(
        "saturation by a generic linear form failed its Hilbert check "
        f"{_SATURATION_RETRIES} times")


def radical_membership(f, a):
    """Whether f lies in the radical of a (auxiliary-variable trick)."""
    if f.ring != a.ring:
        raise RingContextError("polynomial from a different ring")
    if f.is_zero():
        return True
    ext, _ = _extend_ring(a.ring, "s0")
    t = ext.variable(0)
    gens = [_lift(g, ext) for g in a.gens]
    gens.append(ext.one() - t * _lift(f, ext))
    engine = _Engine(ext, GREVLEX)
    basis = engine.buchberger([_to_internal(g, engine.keyf) for g in gens])
    return len(basis) == 1 and basis[0][0][1] == 0

