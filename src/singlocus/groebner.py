"""Reduced Groebner bases and the ideal-theoretic toolbox.

The engine keeps polynomials as lists of (order_key, packed_exps, coeff)
triples sorted by descending order key.  The key is computed from the
packed word alone: grevlex (`polyring._grevlex_key`) everywhere except
in the elimination of `_intersect_bases`, which owns its key
(`_elimination_key`).  Both encodings are additive under monomial
multiplication, so the inner reduction loop is pure integer arithmetic:
no exponent tuples are touched until conversion back to the public
Polynomial type.  A `GroebnerBasis` holds its basis once, in this form:
its length, membership, equality and the generators' check work on the
terms lists, and the public polynomials are built when first read.

A polynomial under reduction lives in a `_Dividend`: a dict from order
key to coefficient, a dict from order key to packed exponents and a heap
of the keys.  Subtracting c * x^m * g touches only the terms of g, so a
reduction step costs O(len(g) log n) however long the dividend is; the
goal is that of Yan's geobuckets (1998, "The geobucket data structure
for polynomials"), with a heap in place of the buckets.  A popped term
whose exponents reach a guard bit raises `InternalLimitError`.  Over Q
the dividend holds each coefficient as an int pair (numerator,
denominator), reduced by a gcd only when its denominator outgrows the
products that reach it, and it subtracts reducers in integer form: the
numerators over one common denominator, built on first use and kept with
the basis (`_IntForms`, `_Engine.reducers`).  So a subtraction builds no
`Fraction` and takes one gcd per call, not per term; the terms it pops,
and everything else in the engine, carry `Fraction`s.

`_Engine.first_divisor` is the one divisor search.  `_Engine.reduce`
runs normal forms and S-polynomials through it, over F_p and over Q
alike, and the Schreyer syzygy step except on the ring level over F_p
(`homology._ring_rows`); an optional sink records each step's quotient.
A module term carries its component above the exponent fields; the
divisor test masks those bits in, so it fails across components and is
unchanged for ring terms.  An engine built with `twists` owns the term
format of a graded free module, its key (term over position) and its
degree, and `_Engine.buchberger` completes vectors there as it does
polynomials: the Ext^3 reader's module basis
(`homology._dual_cokernel_numerator`) is one such run.

Buchberger completion uses the Gebauer-Moller pair criteria and takes
one degree at a time, as F4 and the normal strategy of Giovini et al.
(1991, "One sugar cube, please") do: the generators of that degree join
by their normal forms, and then the pairs of that degree leave the heap
together.  A pair's degree is that of its lcm, or a drive's degree of it
(below), with ties by the key of the lcm.  On homogeneous input, which
every library run's is, that is the degree of the S-polynomial itself.
The pair bookkeeping never unpacks an exponent tuple: the lcm, the
divisibility tests of the M, F and B criteria, the coprimality test and
the lcm degrees are guard-bit arithmetic on the packed words (`_lcm`,
`_degree_func`), and the pairs wait in a heap.  One kernel, `_minimal`,
keeps the words that no earlier kept word divides: `_minimal_lcms`
applies the M and F criteria through it, for Buchberger and for the
Schreyer step alike, and it also minimalizes a finished basis, the
divided basis of `saturate_irrelevant`, the check of `_check_minimal`
and the monomial ideals of the Hilbert series recursion
(`homology._series_numerator`).
Within one completion the basis only grows by appending, so each
monomial's first divisor is remembered (or how far the scan got without
one) and never searched twice.  Each element but a block's joins with
its tail reduced against the whole basis before it, and on homogeneous
input the elements join in nondecreasing degree.  So a kept leading word
can sit in a kept tail only as an equal word of a later element of the
same degree, and the final tail reduction (`_Engine.tail_reduce`)
normal-forms only the kept elements with such a tail word, and the
forced ones: the block elements, and every element of a run in which an
element joined below the degree being joined, which only inhomogeneous
input does.  The rest are returned as they are, and the basis is not
copied.  Inputs that are already Groebner bases can be fed as blocks,
whose internal pairs are never formed.
`_intersect_bases` maps two internal reduced grevlex bases to that of
their intersection: it builds t*G_a and (1+t)*G_b this way, with G_a the
basis whose highest leading degree is lower (the first on a tie), since
that orientation subtracts fewer terms for the same answer.  `intersect`
is the two-ideal case of `intersect_many`, which folds its balanced tree
on internal bases, drops each pair as soon as it is intersected, checks
only that each intermediate basis has minimal leading terms, and builds
one public `Ideal` at the end (`_ideal_from_basis`).  Such an ideal
holds its basis once: its generators are the basis, made public when
first read, and its zero and unit tests read the basis.

Every `Ideal` is homogeneous, so the intersection is Hilbert-driven
(Traverso 1996, "Hilbert functions and the Buchberger algorithm"): with
t of weight 0, the elimination works in a graded module whose degree-d
dimension is dim a_d + dim b_d, known from the inputs' leading monomials
before any pair is reduced.  Pairs are taken by the degree of their lcm,
and once the leading terms in degree d fill that dimension, the remaining
pairs of degree d are dropped unreduced.  Only the t-free elements, the
answer, are minimalized and tail-reduced.  `Ideal.groebner` takes the
same drive when the code that built the ideal knows an upper bound for
its Hilbert function: `Ideal._target`, a plain function of the degree,
which `liaison.py` sets on the ideals it builds.

The field alone picks how the pairs of a degree are reduced.  Over F_p
every run, driven or not, reduces them as rows of one matrix (Faugere
1999, "A new efficient algorithm for computing Groebner bases (F4)"):
`_Engine.reduce_batch` makes each product (basis element, multiplier) of
the pairs once, gives every column that a basis leading term divides
one pivot row (the product of its first divisor), and packs each row
into one int with a slot per column in key order.  A slot is
2 * bitlen(p) + bitlen(columns) + 1 bits or more, rounded up to whole
bytes: a row starts with coefficients below p and takes at most one
product below p^2 per pivot column, so no slot carries into the next.
The S-rows are reduced in the order their pairs left the heap; each
nonzero remainder is scaled to lead with 1 as it is read back, so no
element is copied to make it monic, and joins the basis as a pivot at
once; a driven batch stops when the degree is full.  The batch then
back-substitutes its new elements, from the last to the first, so that
no tail keeps the leading word of a later one: every F_p element leaves
its batch reduced against every other element of the run so far, and
the tail reduction finds almost nothing left to do.  Over Q,
`_Engine.reduce_pairs` reduces the pairs one by one on `_Dividend`s, as
normal forms and the tail reduction do over both fields.
"""

from __future__ import annotations

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import islice
from math import gcd, lcm

from .errors import (InternalLimitError, InvariantError, RingContextError,
                     ValidationError)
from .polyring import (GREVLEX, MAX_DEGREE, WIDTH, PolyRing, Polynomial,
                       _degree_func, _grevlex_key, _pack_plain, _slot_bytes,
                       _unpack_plain)

_SATURATION_RETRIES = 8

#: a module term's key, a module engine's or a Schreyer level's above
#: the ring basis (`homology`), holds _CMAX - c, for its component c, in
#: its lowest _CB bits
_CB = 20
_CMAX = (1 << _CB) - 1


# ---------------------------------------------------------------------------
# packed helpers

def _guard(nvars):
    g = 0
    for i in range(nvars):
        g |= (1 << (WIDTH - 1)) << (i * WIDTH)
    return g


def _lcm(a, b, guard):
    """lcm of two guard-free packed monomials: the larger field of each."""
    m = ((((a | guard) - b) & guard) >> (WIDTH - 1)) * ((1 << WIDTH) - 1)
    return (a & m) | (b & ~m)


def _minimal(words, guard, mask):
    """The positions of the words that no earlier kept word divides.

    The words are guard-free; `mask` is `guard`, with the bits above the
    exponent fields set as well when the words carry module components,
    so that the test fails across components.  A caller that passes the
    words in an order where every proper divisor comes first (ascending
    packed int, or a degree-first key) gets the minimal words, and of
    equal words the first.
    """
    kept = []
    out = []
    for n, w in enumerate(words):
        wg = w | guard
        for k in kept:
            if (wg - k) & mask == guard:
                break
        else:
            kept.append(w)
            out.append(n)
    return out


def _minimal_lcms(lt_ws, w_new, guard):
    """The pairs of `w_new` that survive the Gebauer-Moller M and F criteria.

    Returns the lcm of `w_new` with each of `lt_ws`, and a dict from each
    minimal lcm (properly divided by no other) to the first index that
    has it.  The words may carry a module component above the exponent
    fields as long as they all carry the same one.
    """
    lcms = [_lcm(w, w_new, guard) for w in lt_ws]
    # a proper divisor is also a smaller packed integer
    distinct = sorted(set(lcms))
    minimal = {distinct[n] for n in _minimal(distinct, guard, guard)}
    first = {}
    for i, lcm in enumerate(lcms):
        if lcm in minimal:
            first.setdefault(lcm, i)
    return lcms, first


# ---------------------------------------------------------------------------
# internal polynomial representation


def _to_internal(poly, key):
    """Engine terms of `poly`, with `key` applied to the packed words."""
    if poly.terms and max(map(sum, poly.terms)) > MAX_DEGREE:
        raise InternalLimitError(
            f"a term of degree above {MAX_DEGREE} does not fit the packed "
            "exponent fields")
    packed = [(_pack_plain(e), c) for e, c in poly.terms.items()]
    items = [(key(w), w, c) for w, c in packed]
    items.sort(reverse=True)
    return items


def _from_internal(terms, ring):
    return Polynomial(ring, {_unpack_plain(w, ring.nvars): c for _, w, c in terms})


class _IntForm(list):
    """The integer form of a monic polynomial over Q: its terms list, with
    `nums`, each coefficient times D, the lcm of its denominators.  The
    leading coefficient is 1, so nums[0] is D itself.  The terms are
    shared with the polynomial, so a form costs an int and two pointers
    per term, not a new (key, word, int) triple: a basis is held in both
    forms while it reduces."""

    __slots__ = ("nums",)


class _IntForms(dict):
    """The integer forms (`_IntForm`) of a list of monic polynomials over
    Q, by index, each built on first use.

    Like the first-divisor memo, they stay exact while the list only
    grows by appending, so they are kept with the basis they belong to
    and live as long as that memo.
    """

    __slots__ = ("polys",)

    def __init__(self, polys):
        super().__init__()
        self.polys = polys

    def __missing__(self, idx):
        g = self.polys[idx]
        d = lcm(*[c.denominator for _, _, c in g])
        form = self[idx] = _IntForm(g)
        form.nums = [c.numerator * (d // c.denominator) for _, _, c in g]
        return form


class _Dividend:
    """A polynomial under reduction, in descending key order on demand.

    `coeffs` maps key -> coefficient, `exps` maps key -> packed exponents
    and `heap` holds each live key once, negated.  Over F_p coefficients
    are left unreduced until their term is popped.  A coefficient that
    cancels stays until its key leaves the heap and is then skipped.

    Over Q a coefficient is an int pair (numerator, denominator) with a
    positive denominator, not kept in lowest terms; `pop` turns a nonzero
    pair into a `Fraction`, in lowest terms, so callers see `Fraction`s
    only.  `sub` takes the reducer g in integer form (`_IntForms`),
    numerators G_k over one denominator D, so the product c * g_k is
    (c_n / h * G_k, c_d * D / h) with h = gcd(c_n, D): one gcd per call,
    none per term.  A product of denominator pd updates a term thus:

    - a new term stores the product's pair as it is;
    - a stored denominator equal to pd, or a multiple of it, stays, and
      no gcd is taken;
    - otherwise the pair moves to the lcm of the two denominators, and is
      reduced by one gcd only when that lcm is longer than
      2 * bitlen(pd) + 64 bits.

    Growth stays bounded: after every update the stored denominator is
    the one it had, a product denominator, an lcm within that bound, or
    the value's own denominator in lowest terms.  So it never outgrows
    both 2^64 times the square of the products' denominators that reached
    it and the denominator a `Fraction` would hold, and the numerator is
    the value times it.  Without the bound, with every lcm left for `pop`
    to reduce, the denominators can multiply up instead.  The terms of one
    call mostly share their stored denominators, so the step from each
    stored denominator is worked out once per call.

    Every popped term is checked against the guard bits: the reducers'
    fields are guard-free, so one subtraction can set a guard bit but not
    carry past it, and a degree above MAX_DEGREE raises instead of
    wrapping around (an elimination order can raise degrees).
    """

    __slots__ = ("coeffs", "exps", "heap", "p", "guard")

    def __init__(self, terms, p, guard):
        """`terms` is sorted by descending key, so the negated keys form a heap."""
        if p:
            self.coeffs = {k: c for k, _, c in terms}
        else:
            self.coeffs = {k: (c.numerator, c.denominator)
                           for k, _, c in terms}
        self.exps = {k: w for k, w, _ in terms}
        self.heap = [-k for k, _, _ in terms]
        self.p = p
        self.guard = guard

    def sub(self, g, c, mk, mw):
        """Subtract c * x^m * g without its leading term.

        `g` is a monic terms list over F_p and its integer form over Q
        (`_Engine.reducers`).  The caller has already removed the term that
        c * x^m * g[0] cancels (a popped leading term, or the other half of
        an S-polynomial).
        """
        coeffs = self.coeffs
        exps = self.exps
        heap = self.heap
        if not self.p:
            # g is an integer form: numerators over d = g.nums[0]
            nums = g.nums
            d = nums[0]
            cn = c.numerator
            h = gcd(cn, d)
            if h != 1:
                cn //= h
                d //= h
            pd = c.denominator * d
            bound = 2 * pd.bit_length() + 64
            # stored denominator -> (new denominator, its factors on the
            # stored and on the product numerator, whether it is past the
            # bound); many terms share a stored denominator
            steps = {}
            for (gk, gw, _), gn in zip(islice(g, 1, None),
                                       islice(nums, 1, None)):
                k = gk + mk
                pn = cn * gn
                v = coeffs.get(k)
                if v is None:
                    coeffs[k] = (-pn, pd)
                    exps[k] = gw + mw
                    heappush(heap, -k)
                    continue
                vn, vd = v
                if vd == pd:
                    coeffs[k] = (vn - pn, vd)
                    continue
                step = steps.get(vd)
                if step is None:
                    q, r = divmod(vd, pd)
                    if not r:
                        step = steps[vd] = (vd, 1, q, False)
                    else:
                        e = gcd(vd, pd)
                        q = vd // e
                        den = q * pd
                        step = steps[vd] = (den, pd // e, q,
                                            den.bit_length() > bound)
                den, a, b, past = step
                n = vn * a - pn * b
                if past:
                    e = gcd(n, den)
                    coeffs[k] = (n // e, den // e)
                else:
                    coeffs[k] = (n, den)
            return
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
            elif c[0]:
                return k, w, Fraction(*c)
        return None


def _pack_row(terms, mk, start, col, nbytes):
    """terms[start:], each key shifted by mk, as one int with an
    nbytes-wide slot per column (`col` maps keys to columns) from its
    lowest column up, and that column's bit shift.

    The terms come in descending key order, so the row is written high
    slot first, as big-endian bytes, with zero runs over the columns that
    it skips.
    """
    if len(terms) <= start:
        return 0, 0
    zero = bytes(nbytes)
    chunks = []
    last = col[terms[start][0] + mk] + 1
    for gk, _, gc in islice(terms, start, None):
        c = col[gk + mk]
        if last - c > 1:
            chunks.append(zero * (last - c - 1))
        chunks.append(gc.to_bytes(nbytes, "big"))
        last = c
    return int.from_bytes(b"".join(chunks), "big"), last * 8 * nbytes


class _Engine:
    """Groebner kernel bound to one ring and one monomial key.

    `key` maps a packed monomial to its sort key and adds under
    multiplication; it defaults to grevlex, and `degree` maps it to its
    degree.  With `twists`, the engine works in the free module whose
    generator e_c has degree twists[c]: the word of m*e_c is
    (c << WIDTH*nvars) | packed(m), its key (grevlex(m) << _CB) | (_CMAX - c)
    (term over position) and its degree deg m + twists[c].  Keys of one
    component differ by a multiplier's grevlex key shifted by _CB, so
    they add under multiplication there, which is all that the pairs and
    the reductions of a component use.
    """

    def __init__(self, ring, key=None, twists=None):
        self.ring = ring
        self.guard = _guard(ring.nvars)
        # the bits above the exponent fields hold a module component:
        # (w | guard) - lt keeps their difference there, so a divisor test
        # through this mask fails across components and is unchanged for
        # ring terms
        shift = WIDTH * ring.nvars
        self.mask = self.guard | (-1 << shift)
        self.p = ring.field.p
        self.twists = twists
        degree_of = _degree_func(ring.nvars)
        if twists is None:
            self.key = _grevlex_key(ring.nvars) if key is None else key
            self.degree = degree_of
            return
        grevlex = _grevlex_key(ring.nvars)
        low = (1 << shift) - 1

        def module_key(w):
            return (grevlex(w & low) << _CB) | (_CMAX - (w >> shift))

        def module_degree(w):
            return degree_of(w & low) + twists[w >> shift]

        self.key = module_key
        self.degree = module_degree

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

    def reducers(self, polys):
        """What `_Dividend.sub` takes for each of the monic `polys`, by
        index: `polys` itself over F_p, their `_IntForms` over Q."""
        return polys if self.p else _IntForms(polys)

    def s_dividend(self, gi, gj, lcm_key, lcm_w):
        """The S-polynomial of two monic polynomials, given as `reducers`
        entries, as a dividend."""
        mik = lcm_key - gi[0][0]
        miw = lcm_w - gi[0][1]
        one = self.ring.field.one
        if self.p:
            acc = _Dividend([(k + mik, w + miw, c)
                             for k, w, c in islice(gi, 1, None)],
                            self.p, self.guard)
        else:
            acc = _Dividend((), None, self.guard)
            acc.sub(gi, -one, mik, miw)
        acc.sub(gj, one, lcm_key - gj[0][0], lcm_w - gj[0][1])
        return acc

    def first_divisor(self, w, lt_ws, memo, known=None):
        """The index of the first leading word that divides `w` in the same
        module component, or ~len(lt_ws) when none does.

        `memo`, when given, maps packed exponents to the index of their
        first divisor, or to ~n for "no divisor among the first n"; it
        stays exact while the basis only grows by appending, so the scan
        resumes at `known`, the negative entry the caller read from it.
        """
        guard = self.guard
        mask = self.mask
        wg = w | guard
        nbasis = len(lt_ws)
        for idx in range(0 if known is None else ~known, nbasis):
            if (wg - lt_ws[idx]) & mask == guard:
                break
        else:
            idx = ~nbasis
        if memo is not None:
            memo[w] = idx
        return idx

    def reduce(self, acc, lt_ws, lt_keys, reducers, memo=None, quotients=None):
        """Full normal form of a dividend against a list of monic polys.

        Each leading term is reduced by the first basis element whose
        leading term divides it in the same module component
        (`first_divisor`, through `memo` when given); irreducible terms
        are emitted in descending key order.  `reducers[i]` is the i-th
        element as `acc.sub` takes it (`reducers`).  `quotients`, when
        given, receives (index, multiplier key, multiplier word,
        coefficient) for each reduction step.
        """
        out = []
        while (term := acc.pop()) is not None:
            k, w, c = term
            idx = None if memo is None else memo.get(w)
            if idx is None or idx < 0:
                idx = self.first_divisor(w, lt_ws, memo, idx)
                if idx < 0:
                    out.append(term)
                    continue
            mk = k - lt_keys[idx]
            mw = w - lt_ws[idx]
            acc.sub(reducers[idx], c, mk, mw)
            if quotients is not None:
                quotients.append((idx, mk, mw, c))
        return out

    def normal_form(self, terms, lt_ws, lt_keys, reducers, memo=None):
        return self.reduce(_Dividend(terms, self.p, self.guard), lt_ws, lt_keys,
                           reducers, memo)

    # -- one degree of a Buchberger run ------------------------------------
    def reduce_pairs(self, batch, reducers, lt_keys, lt_ws, memo, add, drive):
        """Reduce the pairs of one degree one by one on dividends, in heap
        order; with a `drive`, those left once it is full are dropped."""
        for n, (degree, lcm_key, i, j, lcm_w) in enumerate(batch):
            if drive is not None and drive.full(degree):
                drive.dropped += len(batch) - n
                return
            acc = self.s_dividend(reducers[i], reducers[j], lcm_key, lcm_w)
            if nf := self.reduce(acc, lt_ws, lt_keys, reducers, memo):
                add(nf)

    def reduce_batch(self, batch, polys, lt_keys, lt_ws, memo, add, drive):
        """Reduce the pairs of one degree as rows of one matrix (F4).

        Over F_p only, where the reducers (`reducers`) are `polys` itself.
        `batch` holds the popped pairs of that degree in heap order.  Each
        pair gives two products (index, multiplier), made once each.
        Symbolic preprocessing gives every column that a basis
        leading term divides one pivot: the product of its first divisor
        (`first_divisor`, through `memo`, after `drive.divisible` when
        driven); a column with no divisor has no pivot.  Every product that
        is not the pivot of its own leading column is an S-row.  A row is
        one int, with one slot per column in key order, so the leading term
        sits in the highest slot; a pivot's tail is kept from its lowest
        column up, with that column's shift.  The S-rows are reduced in heap
        order.  Each nonzero remainder is read back with its values scaled
        to lead with 1, so that `monic` keeps the list; it joins the basis
        through `add` and becomes the pivot of its leading column at once.
        With a `drive`, the batch stops as soon as `drive.full` holds for
        its degree, and the S-rows it skips count as dropped.

        Each new element's tail then misses every column with a pivot, so
        the leading words of the new elements before it, but may hold
        those of the ones after it.  Back-substitution clears them, from
        the last new element to the first: where the packed tail's slot
        at a later element's leading column holds v, it adds p - v times
        that element's tail, already clean, and the element and its
        packed tail are replaced.  A clean tail holds no new leading
        column, so the slots read are the element's own coefficients, and
        a slot takes at most one product below p^2 per later element.
        """
        degree = batch[0][0]
        if drive is not None:
            if drive.full(degree):
                drive.dropped += len(batch)
                return
            drive.batches += 1
        made = {}  # (index, multiplier word) -> multiplier key
        for _, lcm_key, i, j, lcm_w in batch:
            for idx in (i, j):
                made.setdefault((idx, lcm_w - lt_ws[idx]),
                                lcm_key - lt_keys[idx])
        srows = list(made.items())
        words = {}  # column key -> packed exponents
        todo = []
        for (idx, mw), mk in srows:
            for gk, gw, _ in polys[idx]:
                k = gk + mk
                if k not in words:
                    words[k] = gw + mw
                    todo.append(k)
        # symbolic preprocessing: columns reached by a pivot join in turn
        guard = self.guard
        pivot_of = {}  # column key -> (index, multiplier key)
        while todo:
            k = todo.pop()
            w = words[k]
            if w & guard:
                raise InternalLimitError(
                    f"a reduction reached a degree above {MAX_DEGREE}, which "
                    "does not fit the packed exponent fields")
            idx = memo.get(w)
            if idx is None or idx < 0:
                if drive is not None and not drive.divisible(w, degree):
                    continue
                idx = self.first_divisor(w, lt_ws, memo, idx)
                if idx < 0:
                    if drive is None:
                        continue
                    raise InvariantError("the Hilbert drive admitted a column "
                                         "that no leading term divides")
            mk = k - lt_keys[idx]
            mw = w - lt_ws[idx]
            pivot_of[k] = (idx, mk)
            if (idx, mw) not in made:
                made[idx, mw] = mk
                for gk, gw, _ in islice(polys[idx], 1, None):
                    kk = gk + mk
                    if kk not in words:
                        words[kk] = gw + mw
                        todo.append(kk)
        keys = sorted(words)
        col = {k: c for c, k in enumerate(keys)}
        p = self.p
        # a slot holds a coefficient below p plus at most one product below
        # p^2 per pivot column
        nbytes = _slot_bytes(p, len(keys))
        slot = 8 * nbytes
        tails = {}  # column -> its pivot's tail, packed on first use
        pending = {col[k]: pv for k, pv in pivot_of.items()}
        new = []  # (index, leading column) of each new element, in order
        filled = False
        for (idx, _), mk in srows:
            if pivot_of[lt_keys[idx] + mk] == (idx, mk):
                continue  # the pivot of its own column
            if filled:
                drive.dropped += 1
                continue
            row, off = _pack_row(polys[idx], mk, 0, col, nbytes)
            row <<= off
            out = []
            while row:
                c = (row.bit_length() - 1) // slot
                shift = c * slot
                top = row >> shift
                row -= top << shift
                v = top % p
                if not v:
                    continue
                tail = tails.get(c)
                if tail is None:
                    pv = pending.get(c)
                    if pv is None:
                        out.append((c, v))
                        continue
                    tail = tails[c] = _pack_row(polys[pv[0]], pv[1], 1,
                                                col, nbytes)
                t, off = tail
                row += ((p - v) * t) << off
            if drive is not None:
                drive.rows += 1
                drive.zero_rows += not out
            if not out:
                continue
            # monic as built, so that `add` keeps this list
            inv = self.ring.field.inv(out[0][1])
            add([(keys[c], words[keys[c]], v * inv % p) for c, v in out])
            tails[out[0][0]] = _pack_row(polys[-1], 0, 1, col, nbytes)
            new.append((len(polys) - 1, out[0][0]))
            filled = drive is not None and drive.full(degree)
        # back-substitution, from the last new element to the first: each
        # tail already misses the leading columns of the new elements
        # before it, so clearing those of the ones after it, whose tails
        # are clean by then, changes no other leading column
        for n in range(len(new) - 2, -1, -1):
            i, c = new[n]
            t, off = tails[c]
            low = off // slot  # the tail's lowest column
            data = t.to_bytes((c - low) * nbytes, "little")
            row = None
            reach = low  # the lowest column that the added tails reach
            for _, cj in islice(new, n + 1, None):
                if not low <= cj < c:
                    continue
                at = (cj - low) * nbytes
                v = int.from_bytes(data[at:at + nbytes], "little")
                if v:
                    if row is None:
                        row = t << off
                    tj, offj = tails[cj]
                    row += ((p - v) * tj << offj) - (v << cj * slot)
                    reach = min(reach, offj // slot)
            if row is None:
                continue
            data = (row >> reach * slot).to_bytes((c - reach) * nbytes, "little")
            terms = polys[i][:1]
            for cc in range(c - 1, reach - 1, -1):
                at = (cc - reach) * nbytes
                if v := int.from_bytes(data[at:at + nbytes], "little") % p:
                    terms.append((keys[cc], words[keys[cc]], v))
            polys[i] = terms
            tails[c] = _pack_row(terms, 0, 1, col, nbytes)

    # -- Buchberger --------------------------------------------------------
    def buchberger(self, gens_internal, blocks=(), drive=None, eliminate=0):
        """Reduced Groebner basis of the generators and blocks.

        Each block must already be a Groebner basis of the ideal it
        generates, under this engine's key; its elements join first, as
        they are, and no pair inside one block is formed: its
        S-polynomial already has a standard representation in the block.

        The loop then takes one degree at a time, the lowest that a
        waiting generator or pair has.  The generators of that degree,
        in key order, join by their normal forms against the basis so
        far; then the pairs of that degree (that of their lcm, or with a
        `drive`, a `_HilbertDrive`, the degree it gives their lcm) leave
        the heap together, for `reduce_batch` over F_p and `reduce_pairs`
        over Q; once `drive.full(d)` holds, the rest of degree d are
        dropped unreduced.  `eliminate` is a packed mask of variables that
        the engine's key eliminates: elements whose leading monomial meets
        it are left out of the result, and out of its minimalization and
        tail reduction (they can neither divide nor reduce a monomial that
        avoids the mask).

        Every element but a block's joins with its tail reduced against
        the basis before it: a generator by its normal form, a pair's
        element by `reduce_pairs` or by a batch of `reduce_batch`, which
        also clears the leading words of its own later elements.  On
        homogeneous input the elements join in nondecreasing degree, so
        a kept leading word can sit in a kept tail only as an equal word
        of a later element of the same degree, and the final tail
        reduction (`tail_reduce`) normal-forms only the elements with
        such a word, and the forced ones: the block elements, and every
        element once one joins below the degree being joined, which only
        inhomogeneous input does.

        On a module engine (one built with `twists`) the input is vectors,
        homogeneous in the twisted degree `self.degree`.  Pairs are formed
        only within a component, each with its own leading words for
        `_minimal_lcms`, and the B and minimalization tests divide
        through `self.mask`, which fails across components.  The product
        criterion (B1) is skipped: x*e_0 + z*e_1 and y*e_0 + w*e_1 lead
        with the coprime x*e_0 and y*e_0, yet their S-vector
        y*z*e_1 - x*w*e_1 is not zero.  A ring has one component, with
        bits zero, so none of this changes a ring run.
        """
        polys = []
        lt_keys = []
        lt_ws = []
        block_of = []
        pairs = []  # a heap of (degree, lcm_key, i, j, lcm_w)
        memo = {}
        reducers = self.reducers(polys)  # exact, as the memo is
        key = self.key
        guard = self.guard
        mask = self.mask
        shift = WIDTH * self.ring.nvars
        low = (1 << shift) - 1  # the exponent fields of a word
        degree_of = _degree_func(self.ring.nvars)
        pair_degree = self.degree if drive is None else drive.degree
        vectors = self.twists is not None
        comps = {}  # component -> (indices, leading words) of its elements
        pos = []  # each element's index within its component
        degree = None  # the degree being joined, once the loop runs
        mixed = False  # an element joined below it

        def add(terms, block=None):
            nonlocal mixed
            terms = self.monic(terms)
            t = len(polys)
            w_new = terms[0][1]
            if block is None and pair_degree(w_new) < degree:
                mixed = True
            idxs, ws = comps.setdefault(w_new >> shift, ([], []))
            lcms, first = _minimal_lcms(ws, w_new, guard)
            # B1: an lcm that some pair reaches with coprime lts is dropped;
            # it fails for vectors
            coprime = () if vectors else {lcm for lcm, w in zip(lcms, ws)
                                          if lcm == w + w_new}
            new_pairs = []
            for lcm, n in first.items():
                if lcm in coprime:
                    continue
                i = idxs[n]
                if block is not None and block_of[i] == block:
                    continue  # standard representation inside the block
                new_pairs.append((pair_degree(lcm), key(lcm), i, t, lcm))
            # B criterion on old pairs: lcms[pos[i]] is lcm(lt_i, lt_new)
            # when lt_new divides the pair's lcm, which puts them in one
            # component
            kept_old = [pr for pr in pairs
                        if ((pr[4] | guard) - w_new) & mask != guard
                        or lcms[pos[pr[2]]] == pr[4]
                        or lcms[pos[pr[3]]] == pr[4]]
            if len(kept_old) < len(pairs):
                pairs[:] = kept_old
                heapify(pairs)
            for pr in new_pairs:
                heappush(pairs, pr)
            pos.append(len(idxs))
            idxs.append(t)
            ws.append(w_new)
            polys.append(terms)
            lt_keys.append(terms[0][0])
            lt_ws.append(w_new)
            block_of.append(block)
            if drive is not None:
                drive.note(w_new)

        for b, block in enumerate(blocks):
            for terms in block:
                if max(degree_of(w & low) for _, w, _ in terms) > MAX_DEGREE:
                    raise InternalLimitError(
                        f"a term of degree above {MAX_DEGREE} does not fit the "
                        "packed exponent fields")
                add(terms, b)

        gens = sorted(((pair_degree(terms[0][1]), terms)
                       for terms in gens_internal if terms),
                      key=lambda item: (item[0], item[1][0][0]))
        g = 0  # the next generator to join
        reducer = self.reduce_batch if self.p else self.reduce_pairs
        while g < len(gens) or pairs:
            if pairs and (g == len(gens) or pairs[0][0] <= gens[g][0]):
                degree = pairs[0][0]
            else:
                degree = gens[g][0]
            while g < len(gens) and gens[g][0] == degree:
                if nf := self.normal_form(gens[g][1], lt_ws, lt_keys,
                                          reducers, memo):
                    add(nf)
                g += 1
            batch = []
            while pairs and pairs[0][0] == degree:
                batch.append(heappop(pairs))
            if not batch:
                continue
            if max(degree_of(pr[4] & low) for pr in batch) > MAX_DEGREE:
                # no term of x^m * g or of its reductions lies above the
                # lcm's degree: grevlex orders by degree first, and in an
                # elimination each element is A * t + B, with A and B
                # x-homogeneous of one degree
                raise InternalLimitError(
                    f"an S-pair whose lcm has degree above {MAX_DEGREE} does "
                    "not fit the packed exponent fields")
            reducer(batch, reducers, lt_keys, lt_ws, memo, add, drive)

        # minimalize: drop elements whose lt is divisible by another kept lt
        order_ix = sorted((ix for ix in range(len(polys))
                           if not lt_ws[ix] & eliminate),
                          key=lambda ix: lt_keys[ix])
        kept_ix = [order_ix[n] for n in _minimal([lt_ws[ix] for ix in order_ix],
                                                 guard, mask)]
        return self.tail_reduce([polys[ix] for ix in kept_ix],
                                [mixed or block_of[ix] is not None
                                 for ix in kept_ix])

    def tail_reduce(self, kept, forced):
        """The reduced basis of a minimal one: each element of `kept` with
        its tail reduced against all of them, the elements that need no
        reduction returned as they are, not copied.

        `forced[n]` says that `kept[n]` must be normal-formed.  Every
        other element joined its run with its tail reduced against every
        element before it, in nondecreasing degree.  A tail term is below
        the leading term, so of at most its degree in a degree-first order
        (in an elimination the kept elements are t-free, in grevlex).  So
        a kept leading term can divide a tail term of such an element only
        as an equal word of a later element of the same degree, and only
        the elements with a tail word equal to a kept leading word are
        normal-formed beside the forced ones.  The normal forms share one
        memo: every term met is below the element's own leading term,
        which therefore divides none of them.
        """
        kept_ws = [terms[0][1] for terms in kept]
        kept_keys = [terms[0][0] for terms in kept]
        leads = set(kept_ws)
        memo = {}
        reducers = self.reducers(kept)
        out = list(kept)
        for n, terms in enumerate(kept):
            if forced[n] or any(w in leads
                                for _, w, _ in islice(terms, 1, None)):
                out[n] = terms[:1] + self.normal_form(
                    terms[1:], kept_ws, kept_keys, reducers, memo)
        return out


class GroebnerBasis:
    """Reduced grevlex Groebner basis of an ideal, held once, in engine form.

    `_polys` is the engine's terms lists, and everything the library asks
    of a basis (its length, normal forms, membership, leading words) is
    answered from them.  The public `Polynomial`s of `polys` are built
    when first read and then kept.
    """

    def __init__(self, ring, internal):
        self.ring = ring
        self._engine = _Engine(ring)
        self._polys = internal
        self._lt_keys = [t[0][0] for t in internal]
        self._lt_ws = [t[0][1] for t in internal]
        # first divisors of the words met so far, and the reducers' forms:
        # exact, the basis is fixed
        self._memo = {}
        self._reducers = self._engine.reducers(internal)
        self._public = None

    @property
    def polys(self):
        if self._public is None:
            self._public = tuple(_from_internal(t, self.ring)
                                 for t in self._polys)
        return self._public

    def __len__(self):
        return len(self._polys)

    def __iter__(self):
        return iter(self.polys)

    def leading_exponents(self):
        return [_unpack_plain(w, self.ring.nvars) for w in self._lt_ws]

    def _remainder(self, terms):
        """The engine normal form of the engine terms `terms`."""
        return self._engine.normal_form(terms, self._lt_ws, self._lt_keys,
                                        self._reducers, self._memo)

    def _internal(self, f):
        if f.ring != self.ring:
            raise RingContextError("polynomial from a different ring")
        return _to_internal(f, self._engine.key)

    def normal_form(self, f):
        return _from_internal(self._remainder(self._internal(f)), self.ring)

    def contains(self, f):
        return not self._remainder(self._internal(f))


# ---------------------------------------------------------------------------
# the public Ideal type


class Ideal:
    """Homogeneous ideal with its cached reduced grevlex basis.

    `_target` is None, or a function d -> (an upper bound for dim I_d),
    set by the code that built the ideal; `groebner` then drives the
    basis with a `_HilbertDrive` that asks it for each degree in
    increasing order.  An ideal made from a basis (`_ideal_from_basis`)
    has no generators of its own until `gens` is first read: then they
    are its basis's public polynomials, `gens is groebner().polys`.
    """

    def __init__(self, ring, gens):
        gens = tuple(g for g in gens if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise RingContextError("generator from a different ring")
            if not g.is_homogeneous():
                raise ValidationError(f"inhomogeneous generator: {g}")
        self.ring = ring
        self._gens = gens
        self._target = None
        self._cache = {}

    @property
    def gens(self):
        if self._gens is None:
            self._gens = self.groebner().polys
        return self._gens

    # -- Groebner machinery -------------------------------------------------
    def groebner(self, order=GREVLEX):
        """The cached reduced grevlex basis, driven by `_target` when it
        is set.  `order` is only ever `GREVLEX`; it and the cache's `tag`
        key stay because `perfbench/layertrace.py` reads them."""
        gb = self._cache.get(order.tag)
        if gb is None:
            engine = _Engine(self.ring)
            drive = (None if self._target is None else
                     _HilbertDrive(self.ring.nvars, self._target))
            gens = [_to_internal(g, engine.key) for g in self.gens]
            internal = engine.buchberger(gens, drive=drive)
            gb = self._keep(GroebnerBasis(self.ring, internal), gens)
        return gb

    def _keep(self, gb, gens):
        """Cache a basis once every generator reduces to zero against it;
        `gens` are the generators in engine form."""
        for terms in gens:
            if gb._remainder(terms):
                raise InvariantError(
                    "Groebner cache verification failed: generator does not "
                    "reduce to zero against its own basis")
        self._cache[GREVLEX.tag] = gb
        return gb

    def normal_form(self, f):
        return self.groebner().normal_form(f)

    def contains(self, f):
        return self.groebner().contains(f)

    def is_zero(self):
        if self._gens is None:
            return not len(self.groebner())
        return not self._gens

    def is_unit(self):
        """A graded ideal's degree-0 part is spanned by its constant
        generators: it is the unit ideal exactly when one is nonzero.
        Before its generators are read, an ideal made from a basis is
        the unit ideal when a leading word is 0, the word of 1."""
        if self._gens is None:
            return 0 in self.groebner()._lt_ws
        return any(g.is_constant() for g in self._gens)

    def equals(self, other):
        if self.ring != other.ring:
            raise RingContextError("ideals in different rings")
        return self.groebner()._polys == other.groebner()._polys

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
    """Traverso's stopping rule for a homogeneous Buchberger run.

    `target(d)` bounds from above the dimension of the degree-d part of
    the graded space that the run's elements span; it is known before any
    pair is reduced.  The leading terms of the basis so far span `have`
    dimensions of it, and have <= dim <= target(d), so once `have`
    reaches the target every remaining pair of degree d reduces to zero
    and can be dropped.  A count above the target proves the target
    wrong and raises `InvariantError`.  Two runs are driven:

    - `Ideal.groebner` of an ideal whose Hilbert function is known from
      how it was built: the target is its `_target`, which `liaison.py`
      sets on the outputs of `liaison_addition` and `basic_double_link`
      and on the complete intersection of a regular-sequence check.
      `have` counts the monomials of degree d divisible by a leading
      monomial.
    - the elimination in `intersect` (`eliminate=True`).  Give t weight
      0.  Every element met while eliminating t from
      t * G_a + (1 + t) * G_b has the form A * t + B: t * alpha +
      (1 + t) * beta, with alpha in a and beta in b, has A = alpha + beta
      and B = beta.  So these elements form the graded module
      N = {A * t + B : B in b, A - B in a}, which is isomorphic to a + b
      as a vector space in each degree (A * t + B -> (A - B, B)):
      dim N_d = dim a_d + dim b_d, the target, which two
      `_DegreeCounter`s count from the inputs' leading monomials.  The
      leading terms of the basis so far span t * T_d + O_d, where T is
      generated by the x-parts of all leading monomials (t * B lies in N
      when B is t-free) and O by those of the t-free elements; `have` is
      |T_d| + |O_d|.
    """

    def __init__(self, nvars, target, eliminate=False):
        """`target` is a function of the degree, asked in increasing
        order; with `eliminate`, t is the lowest packed field."""
        self.target = target
        self.shift = WIDTH if eliminate else 0
        self.x_degree = _degree_func(nvars)
        # the x-parts of all leading monomials, and of the t-free ones
        self.leads = _DegreeCounter(nvars)
        self.free_leads = _DegreeCounter(nvars) if eliminate else None
        self.dropped = 0
        self.batches = 0  # its degree batches reduced as rows (over F_p)
        self.rows = 0  # S-rows reduced in those batches
        self.zero_rows = 0  # S-rows that reduced to zero

    def degree(self, w):
        """The x-degree of a packed monomial."""
        return self.x_degree(w >> self.shift)

    def note(self, w):
        """Record the packed leading monomial `w` of a new basis element."""
        x = w >> self.shift
        d = self.x_degree(x)
        self.leads.add(x, d)
        if self.free_leads is not None:
            t_exp = w & ((1 << WIDTH) - 1)
            if t_exp > 1:
                raise InvariantError("a leading term of t-degree above 1 in "
                                     "an intersection")
            if not t_exp:
                self.free_leads.add(x, d)

    def divisible(self, w, d):
        """Whether a leading monomial noted so far divides `w`, a packed
        monomial of x-degree `d`.  In an elimination, t * x has a divisor
        when x lies in T, and a t-free x when it lies in O."""
        counter = self.leads
        if self.free_leads is not None and not w & ((1 << WIDTH) - 1):
            counter = self.free_leads
        counter.count(d)
        return w >> self.shift in counter.part

    def full(self, d):
        """Whether the leading terms fill the degree-d part."""
        have = self.leads.count(d)
        if self.free_leads is not None:
            have += self.free_leads.count(d)
        want = self.target(d)
        if have > want:
            raise InvariantError(f"leading terms span {have} dimensions in "
                                 f"degree {d}, above the Hilbert function {want}")
        return have == want


def _top_lead_degree(basis, degree_of):
    return max(degree_of(terms[0][1]) for terms in basis)


def _elimination_key(nvars):
    """The key of the order that eliminates t from a ring of `nvars`
    variables extended by t as its lowest packed field: the t-degree
    first, then grevlex on the rest.  Additive, as the grevlex key is."""
    grevlex = _grevlex_key(nvars)
    t_mask = (1 << WIDTH) - 1
    shift = (nvars + 1) * WIDTH + 4

    def key(w):
        return ((w & t_mask) << shift) | grevlex(w >> WIDTH)

    return key


def _intersect_bases(ring, pa, pb):
    """The internal reduced grevlex basis of a ∩ b, from those of a and b.

    The elimination starts from t * G_a and (1 + t) * G_b, fed as two
    blocks.  Both lead with coefficient 1 (t times a monic leading
    term), so `_Engine.monic` keeps their lists as built.  The t-free
    part of the ideal they generate is a ∩ b: with u = -t and v = 1 + t,
    u + v = 1, and the ideal is u * a + v * b.  If f in k[x] lies in it,
    setting t = -1 (u = 1, v = 0) puts f in a, and setting t = 0 (u = 0,
    v = 1) puts f in b; conversely f = u * f + v * f for f in a ∩ b.
    The basis whose highest leading degree is lower goes into
    the t-block (the first one on a tie): the answer is the same, but its
    reductions subtract fewer terms.  A `_HilbertDrive` drops the pairs
    that the inputs' Hilbert functions prove redundant.  Only the t-free
    part of the elimination basis is finished: it is the reduced grevlex
    basis of the intersection.  Both inputs must be proper and nonzero.
    """
    degree_of = _degree_func(ring.nvars)
    if _top_lead_degree(pb, degree_of) < _top_lead_degree(pa, degree_of):
        pa, pb = pb, pa
    ext, _ = _extend_ring(ring)
    engine = _Engine(ext, _elimination_key(ring.nvars))
    # t is the lowest packed field: the elimination key of a t-free
    # monomial is its grevlex key in `ring`, and t * m has key
    # key(t) + key(m), above every t-free key
    t_key = engine.key(1)
    t_block = [[(k + t_key, (w << WIDTH) | 1, c) for k, w, c in terms]
               for terms in pa]
    one_plus_t_block = [
        [(k + t_key, (w << WIDTH) | 1, c) for k, w, c in terms]
        + [(k, w << WIDTH, c) for k, w, c in terms]
        for terms in pb]
    # dim N_d = dim a_d + dim b_d
    ca = _DegreeCounter(ring.nvars, [terms[0][1] for terms in pa])
    cb = _DegreeCounter(ring.nvars, [terms[0][1] for terms in pb])
    drive = _HilbertDrive(ring.nvars, lambda d: ca.count(d) + cb.count(d),
                          eliminate=True)
    # an element with a t-free leading term is t-free
    t_mask = (1 << WIDTH) - 1
    basis = engine.buchberger([], blocks=(t_block, one_plus_t_block),
                              drive=drive, eliminate=t_mask)
    return [[(k, w >> WIDTH, c) for k, w, c in terms] for terms in basis]


def _check_minimal(basis, nvars):
    """Raise `InvariantError` if a leading word of an internal basis
    divides another: a reduced basis has minimal leading terms."""
    guard = _guard(nvars)
    leads = sorted(terms[0][1] for terms in basis)
    if len(_minimal(leads, guard, guard)) < len(leads):
        raise InvariantError("an intersection basis has a leading term that "
                             "divides another")


def _ideal_from_basis(gb):
    """The public ideal generated by, and caching, `gb`, a reduced
    grevlex `GroebnerBasis`.

    It builds no polynomial: its `gens` are read from `gb` when first
    asked for.  The basis is cached without `Ideal._keep`'s check, which
    would only reduce each generator, a basis element, against the
    basis: no other leading term divides its own, which is therefore its
    first divisor, and the monic element goes to zero in one step."""
    result = Ideal(gb.ring, ())
    result._gens = None
    result._cache[GREVLEX.tag] = gb
    return result


def intersect(a, b):
    """Ideal intersection via elimination of one auxiliary variable: the
    two-ideal case of `intersect_many`."""
    return intersect_many((a, b))


def intersect_many(ideals):
    """Balanced pairwise intersection of a nonempty list of ideals.

    A single ideal comes back as it is, as does the one ideal left once
    unit ideals are dropped; a zero ideal makes the answer zero.  The tree is folded on internal
    bases: a pair leaves the fold as soon as it is intersected, and each
    intermediate basis only has its leading terms checked for
    minimality; the answer alone becomes a public `Ideal`, made from
    its basis (`_ideal_from_basis`).
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
        return (proper or items)[0]
    level = [ideal.groebner()._polys for ideal in proper]
    while len(level) > 1:
        level.reverse()  # pop the pairs in list order
        nxt = []
        while len(level) > 1:
            basis = _intersect_bases(ring, level.pop(), level.pop())
            _check_minimal(basis, ring.nvars)
            nxt.append(basis)
        level = nxt + level
    return _ideal_from_basis(GroebnerBasis(ring, level[0]))


def _shift_last(terms, coeffs, engine):
    """Internal terms with the last variable x_n replaced by
    x_n + sum(coeffs[i] * x_i), by Horner's rule in x_n: keys and words add
    under multiplication."""
    shift = WIDTH * (engine.ring.nvars - 1)
    steps = [(engine.key(1 << (WIDTH * i)), 1 << (WIDTH * i), c)
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
    if a.is_zero() or a.is_unit():
        return a
    from .homology import hilbert
    target = hilbert(a).hp_coeffs
    ring = a.ring
    engine = _Engine(ring)
    last = ring.nvars - 1
    shift = WIDTH * last
    x_key = engine.key(1 << shift)
    gens = [_to_internal(g, engine.key) for g in a.gens]
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
        back = [_shift_last(divided[n], [-c for c in coeffs], engine)
                for n in _minimal([t[0][1] for t in divided], engine.guard,
                                  engine.guard)]
        result = _ideal_from_basis(GroebnerBasis(ring,
                                                 engine.buchberger(back)))
        if hilbert(result).hp_coeffs == target:
            return result
    raise InternalLimitError(
        "saturation by a generic linear form failed its Hilbert check "
        f"{_SATURATION_RETRIES} times")

