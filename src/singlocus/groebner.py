"""Reduced Groebner bases and the ideal-theoretic toolbox.

The engine keeps polynomials as lists of (order_key, packed_exps, coeff)
triples sorted by descending order key.  The key is computed from the
packed word alone: grevlex (`polyring._grevlex_key`) everywhere except
in the elimination of `_intersect_bases`, which owns its key
(`_elimination_key`).  Both encodings are additive under monomial
multiplication, so the inner reduction loop is pure integer arithmetic:
no exponent tuples are touched until conversion back to the public
Polynomial type.

A polynomial under reduction lives in a `_Dividend`: a dict from order
key to coefficient, a dict from order key to packed exponents and a heap
of the keys.  Subtracting c * x^m * g touches only the terms of g, so a
reduction step costs O(len(g) log n) however long the dividend is; the
goal is that of Yan's geobuckets (1998, "The geobucket data structure
for polynomials"), with a heap in place of the buckets.  A popped term
whose exponents reach a guard bit raises `InternalLimitError`.  Over Q
the dividend holds each coefficient as an int pair (numerator,
denominator) in lowest terms, so a subtraction builds no `Fraction`;
the terms it pops, and everything else in the engine, carry `Fraction`s.

`_Engine.first_divisor` is the one divisor search.  `_Engine.reduce`
runs normal forms, S-polynomials and the Schreyer syzygy step through
it, over F_p and over Q alike, and an optional sink records each step's
quotient.  A module term carries its component above the exponent
fields; the divisor test masks those bits in, so it fails across
components and is unchanged for ring terms.

Buchberger completion uses the Gebauer-Moller pair criteria with
sugar-degree selection (ties by the key of the pair lcm), which is
enough to keep every corpus computation within its budget.
The pair bookkeeping never unpacks an exponent tuple: the lcm, the
divisibility tests of the M, F and B criteria, the coprimality test and
the degrees behind the sugar are guard-bit arithmetic on the packed
words (`_lcm`, `_divides`, `_degree_func`), and the pairs wait in a heap.
`_minimal_lcms` applies the M and F criteria, for Buchberger and for the
Schreyer step alike.
Within one completion the basis only grows by appending, so each
monomial's first divisor is remembered (or how far the scan got without
one) and never searched twice; the final tail reduction shares one
memo too, reducing each kept element's tail against all of them.  Inputs
that are already Groebner bases can be fed as blocks, whose internal
pairs are never formed.
`_intersect_bases` maps two internal reduced grevlex bases to that of
their intersection: it builds t*G_a and (1-t)*G_b this way, with G_a the
basis whose highest leading degree is lower (the first on a tie), since
that orientation subtracts fewer terms for the same answer.  `intersect`
is the two-ideal case of `intersect_many`, which folds its balanced tree
on internal bases, drops each pair as soon as it is intersected, checks
only that each intermediate basis has minimal leading terms, and builds
one public `Ideal`, checked against its basis, at the end.

Every `Ideal` is homogeneous, so the intersection is Hilbert-driven
(Traverso 1996, "Hilbert functions and the Buchberger algorithm"): with
t of weight 0, the elimination works in a graded module whose degree-d
dimension is dim a_d + dim b_d, known from the inputs' leading monomials
before any pair is reduced.  Pairs are taken by the degree of their lcm,
and once the leading terms in degree d fill that dimension, the remaining
pairs of degree d are dropped unreduced.  Only the t-free elements, the
answer, are minimalized and tail-reduced.  `Ideal.groebner` takes the
same drive when the code that built the ideal knows an upper bound for
its Hilbert function (`Ideal._target`): a liaison addition
F2 * I1 + F1 * I2 has
dim I_t = dim (I1)_{t-d2} + dim (I2)_{t-d1} - dim R_{t-d1-d2}
(Geramita and Migliore 1994, "A generalized liaison addition"), and two
forms of degrees d1 and d2 span at most
dim R_{t-d1} + dim R_{t-d2} - dim R_{t-d1-d2} dimensions in degree t.

Over F_p a driven run reduces all the pairs of one degree together, as
rows of one matrix (Faugere 1999, "A new efficient algorithm for
computing Groebner bases (F4)"): `_Engine.reduce_batch` makes each
product (basis element, multiplier) of the pairs once, gives every
column that a basis leading term divides one pivot row (the product of
its first divisor), and packs each row into one int with a slot per
column in key order.  A slot is 2 * bitlen(p) + bitlen(columns) + 1 bits
or more, rounded up to whole bytes: a row starts with coefficients below
p and takes at most one product below p^2 per pivot column, so no slot
carries into the next.  The S-rows are reduced in the order their pairs
left the heap; each nonzero remainder joins the basis and becomes a
pivot at once, and the batch stops when the drive says the degree is
full.  Every other run keeps the pair-by-pair loop on `_Dividend`s: every
run over Q and every run without a drive (`Ideal.groebner` of an ideal
without a target, `saturate_irrelevant`, `radical_membership`).  Normal
forms, the tail reduction and the Schreyer step reduce on `_Dividend`s
too.
"""

from __future__ import annotations

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import islice
from math import comb, gcd

from .errors import (InternalLimitError, InvariantError, RingContextError,
                     ValidationError)
from .polyring import (GREVLEX, MAX_DEGREE, WIDTH, PolyRing, Polynomial,
                       _degree_func, _grevlex_key, _pack_plain, _unpack_plain)

_SATURATION_RETRIES = 8


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


def _divides(a, b, guard):
    """Whether the packed monomial a divides b (both guard-free)."""
    return ((b | guard) - a) & guard == guard


def _slot_bytes(p, count):
    """The width in bytes of a packed slot that sums `count` products of
    residues mod p: each is below p^2, so 2 * bitlen(p) + bitlen(count)
    + 1 bits never carry into the next slot."""
    return (2 * p.bit_length() + count.bit_length() + 8) // 8


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


class _Dividend:
    """A polynomial under reduction, in descending key order on demand.

    `coeffs` maps key -> coefficient, `exps` maps key -> packed exponents
    and `heap` holds each live key once, negated.  Over F_p coefficients
    are left unreduced until their term is popped.  Over Q a coefficient
    is an int pair (numerator, denominator) in lowest terms, with a
    positive denominator: `sub` runs the gcd steps of `Fraction`'s product
    and difference on the ints, without building a `Fraction` per term,
    and `pop` turns a nonzero pair back into a `Fraction`, so callers see
    `Fraction`s only.  The gcds are taken at every step on the small
    factors, as `Fraction` takes them: one gcd of the full cross products
    works on longer ints, and on a basis with 840-bit coefficients it
    reduced 1.5 times slower than `Fraction`.  A coefficient that cancels
    stays until its key leaves the heap and is then skipped.

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

        The caller has already removed the term that c * x^m * g[0]
        cancels (a popped leading term, or the other half of an
        S-polynomial).
        """
        coeffs = self.coeffs
        exps = self.exps
        heap = self.heap
        if not self.p:
            # c * gc: cancel across the cross terms; v - c * gc: the
            # denominators' gcd d, then gcd(t, d) cancels the difference
            cn = c.numerator
            cd = c.denominator
            for gk, gw, gc in islice(g, 1, None):
                k = gk + mk
                gn = gc.numerator
                gd = gc.denominator
                g1 = gcd(cn, gd)
                g2 = gcd(gn, cd)
                pn = (cn // g1) * (gn // g2)
                pd = (cd // g2) * (gd // g1)
                v = coeffs.get(k)
                if v is None:
                    coeffs[k] = (-pn, pd)
                    exps[k] = gw + mw
                    heappush(heap, -k)
                    continue
                vn, vd = v
                d = gcd(vd, pd)
                if d == 1:
                    coeffs[k] = (vn * pd - pn * vd, vd * pd)
                else:
                    s = vd // d
                    t = vn * (pd // d) - pn * s
                    d2 = gcd(t, d)
                    coeffs[k] = (t // d2, s * (pd // d2))
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


class _Engine:
    """Groebner kernel bound to one ring and one monomial key.

    `key` maps a packed monomial to its sort key and adds under
    multiplication; it defaults to grevlex.
    """

    def __init__(self, ring, key=None):
        self.ring = ring
        self.key = _grevlex_key(ring.nvars) if key is None else key
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

    def reduce(self, acc, lt_ws, lt_keys, polys, memo=None, quotients=None):
        """Full normal form of a dividend against a list of monic polys.

        Each leading term is reduced by the first basis element whose
        leading term divides it in the same module component
        (`first_divisor`, through `memo` when given); irreducible terms
        are emitted in descending key order.  `quotients`, when given,
        receives (index, multiplier key, multiplier word, coefficient) for
        each reduction step.
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
            acc.sub(polys[idx], c, mk, mw)
            if quotients is not None:
                quotients.append((idx, mk, mw, c))
        return out

    def normal_form(self, terms, lt_ws, lt_keys, polys, memo=None):
        return self.reduce(_Dividend(terms, self.p, self.guard), lt_ws, lt_keys,
                           polys, memo)

    # -- one degree of a Hilbert-driven run (F4) ----------------------------
    def reduce_batch(self, batch, polys, lt_keys, lt_ws, memo, add, drive):
        """Reduce the pairs of one drive degree as rows of one matrix.

        Over F_p only.  `batch` holds the popped pairs of that degree in
        heap order.  Each pair gives two products (index, multiplier),
        made once each.  Symbolic preprocessing gives every column that a
        basis leading term divides one pivot: the product of its first
        divisor (`first_divisor`, through `memo`).  Every product that is
        not the pivot of its own leading column is an S-row.  A row is
        one int, with one slot per column in key order, so the leading
        term sits in the highest slot; a pivot's tail is kept from its
        lowest column up, with that column's shift.  The S-rows are
        reduced in heap order, and each nonzero remainder joins the basis
        through `add` and becomes the pivot of its leading column at
        once.  The batch stops as soon as `drive.full` holds for its
        degree; the S-rows it skips count as dropped.
        """
        degree = batch[0][0]
        if drive.full(degree):
            drive.dropped += len(batch)
            return
        drive.batches += 1
        made = {}  # (index, multiplier word) -> (multiplier key, sugar)
        for _, sugar, lcm_key, i, j, lcm_w in batch:
            if sugar > MAX_DEGREE:
                raise InternalLimitError(
                    f"an S-polynomial of degree above {MAX_DEGREE} does not "
                    "fit the packed exponent fields")
            for idx in (i, j):
                made.setdefault((idx, lcm_w - lt_ws[idx]),
                                (lcm_key - lt_keys[idx], sugar))
        srows = list(made.items())
        words = {}  # column key -> packed exponents
        todo = []
        for (idx, mw), (mk, _) in srows:
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
                if not drive.divisible(w, degree):
                    continue
                idx = self.first_divisor(w, lt_ws, memo, idx)
            mk = k - lt_keys[idx]
            mw = w - lt_ws[idx]
            pivot_of[k] = (idx, mk)
            if (idx, mw) not in made:
                made[idx, mw] = (mk, None)
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

        def pack(terms, mk, start):
            """terms[start:], each key shifted by mk, as an int over the
            slots from its lowest column up, and that column's shift."""
            if len(terms) <= start:
                return 0, 0
            low = col[terms[-1][0] + mk]
            buf = bytearray(nbytes * (col[terms[start][0] + mk] + 1 - low))
            for gk, _, gc in islice(terms, start, None):
                at = (col[gk + mk] - low) * nbytes
                buf[at:at + nbytes] = gc.to_bytes(nbytes, "little")
            return int.from_bytes(buf, "little"), low * slot

        tails = {}  # column -> its pivot's tail, packed on first use
        pending = {col[k]: pv for k, pv in pivot_of.items()}
        filled = False
        for (idx, _), (mk, sugar) in srows:
            if pivot_of[lt_keys[idx] + mk] == (idx, mk):
                continue  # the pivot of its own column
            if filled:
                drive.dropped += 1
                continue
            drive.rows += 1
            row, off = pack(polys[idx], mk, 0)
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
                    tail = tails[c] = pack(polys[pv[0]], pv[1], 1)
                t, off = tail
                row += ((p - v) * t) << off
            if not out:
                drive.zero_rows += 1
                continue
            add([(keys[c], words[keys[c]], v) for c, v in out], sugar)
            tails[out[0][0]] = pack(polys[-1], 0, 1)
            filled = drive.full(degree)

    # -- Buchberger --------------------------------------------------------
    def buchberger(self, gens_internal, blocks=(), drive=None, eliminate=0):
        """Reduced Groebner basis of the generators and blocks.

        Each generator is reduced against the basis so far before it
        joins.  Each block must already be a Groebner basis of the ideal
        it generates, under this engine's key; its elements join as they
        are, and no pair inside one block is formed: its S-polynomial
        already has a standard representation in the block.

        With a `drive` (a `_HilbertDrive`), pairs are taken by the degree
        the drive gives their lcm, and once `drive.full(d)` holds, the
        remaining pairs of degree d are dropped unreduced.  Over F_p the
        pairs of each degree are then reduced together by
        `reduce_batch`; otherwise one by one.  `eliminate` is a packed
        mask of variables that the engine's key eliminates: elements
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
        key = self.key
        guard = self.guard
        degree_of = _degree_func(self.ring.nvars)

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
                new_pairs.append((degree, s, key(lcm), i, t, lcm))
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

        if drive is not None and self.p:
            # one degree at a time; the pair loop below then finds no pairs
            while pairs:
                degree = pairs[0][0]
                batch = []
                while pairs and pairs[0][0] == degree:
                    batch.append(heappop(pairs))
                self.reduce_batch(batch, polys, lt_keys, lt_ws, memo, add,
                                  drive)
        full = None  # the degree that the drive last found full
        while pairs:
            degree, sugar, lcm_key, i, j, lcm_w = heappop(pairs)
            if degree != full and drive is not None and drive.full(degree):
                full = degree
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

        # minimalize: drop elements whose lt is divisible by another kept lt
        order_ix = sorted((ix for ix in range(len(polys))
                           if not lt_ws[ix] & eliminate),
                          key=lambda ix: lt_keys[ix])
        kept = []
        kept_ws = []
        for ix in order_ix:
            if any(_divides(kw, lt_ws[ix], guard) for kw in kept_ws):
                continue
            kept.append(polys[ix])
            kept_ws.append(lt_ws[ix])
        # tail-reduce each kept element against all of them, through one
        # memo: every term met is below the element's own leading term,
        # which therefore divides none of them
        kept_keys = [terms[0][0] for terms in kept]
        memo = {}
        return [terms[:1] + self.normal_form(terms[1:], kept_ws, kept_keys,
                                             kept, memo)
                for terms in kept]


class GroebnerBasis:
    """Reduced grevlex Groebner basis of an ideal."""

    def __init__(self, ring, internal, polys=None):
        """`polys`, when given, are the public forms of `internal`."""
        self.ring = ring
        self._engine = _Engine(ring)
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
        terms = _to_internal(f, self._engine.key)
        nf = self._engine.normal_form(terms, self._lt_ws, self._lt_keys, self._polys)
        return _from_internal(nf, self.ring)

    def contains(self, f):
        return self.normal_form(f).is_zero()


# ---------------------------------------------------------------------------
# the public Ideal type


class Ideal:
    """Homogeneous ideal with its cached reduced grevlex basis.

    `_target` is None, or the parts (see `_hilbert_target`) of a function
    that bounds dim I_d from above, set by the code that built the ideal;
    `groebner` then drives the basis with a `_HilbertDrive`.
    """

    def __init__(self, ring, gens):
        gens = tuple(g for g in gens if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise RingContextError("generator from a different ring")
            if not g.is_homogeneous():
                raise ValidationError(f"inhomogeneous generator: {g}")
        self.ring = ring
        self.gens = gens
        self._target = None
        self._cache = {}

    # -- Groebner machinery -------------------------------------------------
    def groebner(self, order=GREVLEX):
        """The cached reduced grevlex basis, driven by `_target` when it
        is set.  `order` is only ever `GREVLEX`; it and the cache's `tag`
        key stay because `perfbench/layertrace.py` reads them."""
        gb = self._cache.get(order.tag)
        if gb is None:
            engine = _Engine(self.ring)
            nvars = self.ring.nvars
            drive = (None if self._target is None else
                     _HilbertDrive(nvars, _hilbert_target(nvars, self._target)))
            internal = engine.buchberger([_to_internal(g, engine.key)
                                          for g in self.gens], drive=drive)
            gb = self._keep(GroebnerBasis(self.ring, internal))
        return gb

    def _keep(self, gb):
        """Cache a basis once every generator reduces to zero against it."""
        for g in self.gens:
            if not gb.contains(g):
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
        return not self.gens

    def is_unit(self):
        """A graded ideal's degree-0 part is spanned by its constant
        generators: it is the unit ideal exactly when one is nonzero."""
        return any(g.is_constant() for g in self.gens)

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


def _hilbert_target(nvars, parts):
    """The function d -> sum of sign * dim M_{d - shift} over `parts`.

    Each part is (sign, shift, leads): M is the monomial ideal that the
    packed words `leads` generate, counted by a `_DegreeCounter`, or the
    whole ring when `leads` is None.  Degrees must be asked for in
    increasing order, as the counters require.
    """
    terms = [(sign, shift,
              None if leads is None else _DegreeCounter(nvars, leads))
             for sign, shift, leads in parts]

    def target(d):
        total = 0
        for sign, shift, counter in terms:
            e = d - shift
            if e >= 0:
                total += sign * (comb(e + nvars - 1, nvars - 1)
                                 if counter is None else counter.count(e))
        return total

    return target


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
      how it was built (`liaison_addition`, `basic_double_link`, the
      complete intersection of a regular-sequence check): `have` counts
      the monomials of degree d divisible by a leading monomial.
    - the elimination in `intersect` (`eliminate=True`).  Give t weight
      0.  Every element met while eliminating t from
      t * G_a + (1 - t) * G_b has the form A * t + B, and these elements
      form the graded module N = {A * t + B : B in b, A + B in a}, which
      is isomorphic to a + b as a vector space in each degree:
      dim N_d = dim a_d + dim b_d, read off the inputs' leading
      monomials.  The leading terms of the basis so far span
      t * T_d + O_d, where T is generated by the x-parts of all leading
      monomials (t * B lies in N when B is t-free) and O by those of the
      t-free elements; `have` is |T_d| + |O_d|.
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
        self.batches = 0  # degree batches reduced as rows (over F_p)
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

    The elimination starts from t * G_a and (1 - t) * G_b, fed as two
    blocks.  The basis whose highest leading degree is lower goes into
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
    neg = ring.field.neg
    t_block = [[(k + t_key, (w << WIDTH) | 1, c) for k, w, c in terms]
               for terms in pa]
    one_minus_t_block = [
        [(k + t_key, (w << WIDTH) | 1, neg(c)) for k, w, c in terms]
        + [(k, w << WIDTH, c) for k, w, c in terms]
        for terms in pb]
    # dim N_d = dim a_d + dim b_d
    leads = ((1, 0, [terms[0][1] for terms in pa]),
             (1, 0, [terms[0][1] for terms in pb]))
    drive = _HilbertDrive(ring.nvars, _hilbert_target(ring.nvars, leads),
                          eliminate=True)
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
    result = Ideal(ring, out)
    result._keep(GroebnerBasis(ring, internal, out))
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
    engine = _Engine(ext)
    basis = engine.buchberger([_to_internal(g, engine.key) for g in gens])
    return len(basis) == 1 and basis[0][0][1] == 0

