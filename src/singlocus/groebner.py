"""Reduced Groebner bases and the ideal-theoretic toolbox.

The engine keeps polynomials as lists of (order_key, packed_exps, coeff)
triples sorted by descending order key.  Both encodings are additive
under monomial multiplication, so the inner reduction loop is pure
integer arithmetic: no exponent tuples are touched until conversion back
to the public Polynomial type.

Buchberger completion uses the Gebauer-Moller pair criteria with
sugar-degree selection (ties by the pair lcm under the ambient order),
which is enough to keep every corpus computation within its budget.
"""

from __future__ import annotations

from functools import partial

from .errors import InternalLimitError, RingContextError, ValidationError
from .polyring import (GREVLEX, WIDTH, MonomialOrder, PolyRing, Polynomial,
                       elimination_order)

_SATURATION_CAP = 64


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


# ---------------------------------------------------------------------------
# internal polynomial representation


def _to_internal(poly, keyf):
    items = [(keyf(e), _pack_plain(e), c) for e, c in poly.terms.items()]
    items.sort(reverse=True)
    return items


def _from_internal(terms, ring):
    return Polynomial(ring, {_unpack_plain(w, ring.nvars): c for _, w, c in terms})


def _merge_sub_p(f, i0, g, c, mk, mw, p):
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


def _merge_sub_q(f, i0, g, c, mk, mw):
    """Rational-coefficient variant of _merge_sub_p."""
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


class _Engine:
    """Groebner kernel bound to one (ring, order) pair."""

    def __init__(self, ring, order):
        self.ring = ring
        self.order = order
        self.keyf = ring.key_func(order)
        self.guard = _guard(ring.nvars)
        self.p = ring.field.p
        # merge_sub(f, i0, g, c, mk, mw) = f[i0:] - c * x^m * g in this field
        self.merge_sub = (_merge_sub_q if self.p is None
                          else partial(_merge_sub_p, p=self.p))

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

    def normal_form(self, terms, lt_ws, lt_keys, polys, full=True):
        """Reduce `terms` against the basis; full tail reduction if `full`."""
        guard = self.guard
        merge_sub = self.merge_sub
        nbasis = len(lt_ws)
        prefix = []
        work = terms
        i0 = 0
        while i0 < len(work):
            k, w, c = work[i0]
            wg = w | guard
            red = -1
            for idx in range(nbasis):
                if (wg - lt_ws[idx]) & guard == guard:
                    red = idx
                    break
            if red < 0:
                if not full:
                    prefix.extend(work[i0:])
                    return prefix
                prefix.append(work[i0])
                i0 += 1
            else:
                # every reducer list is monic: add() and the final pass make it so
                work = merge_sub(work, i0, polys[red], c, k - lt_keys[red],
                                 w - lt_ws[red])
                i0 = 0
        return prefix

    # -- Buchberger --------------------------------------------------------
    def buchberger(self, gens_internal, stop_on_unit=False):
        polys = []
        lt_keys = []
        lt_ws = []
        lt_exps = []
        sugars = []
        pairs = []  # [sugar, lcm_key, i, j, lcm_exps]
        nvars = self.ring.nvars
        keyf = self.keyf
        one = self.ring.field.one
        found_unit = False

        def exps_of_w(w):
            return _unpack_plain(w, nvars)

        def add(terms, sugar):
            nonlocal found_unit
            terms = self.monic(terms)
            t = len(polys)
            e_new = exps_of_w(terms[0][1])
            if sum(e_new) == 0:
                found_unit = True
            # candidate pairs with every existing element
            cand = []
            for i in range(t):
                e_i = lt_exps[i]
                lcm = tuple(a if a > b else b for a, b in zip(e_i, e_new))
                cand.append((i, lcm))
            # M criterion: drop (i, t) when another new lcm properly divides it
            keep = []
            for i, lcm in cand:
                drop = False
                for j, lcm2 in cand:
                    if lcm2 != lcm and all(a <= b for a, b in zip(lcm2, lcm)):
                        drop = True
                        break
                if not drop:
                    keep.append((i, lcm))
            # F criterion: one pair per lcm value, preferring a coprime one
            bylcm = {}
            for i, lcm in keep:
                bylcm.setdefault(lcm, []).append(i)
            new_pairs = []
            for lcm, idxs in bylcm.items():
                coprime = [i for i in idxs
                           if all(min(a, b) == 0 for a, b in zip(lt_exps[i], e_new))]
                if coprime:
                    continue  # B1: the surviving pair has coprime lts, drop it
                i = min(idxs)
                s = max(sugars[i] + sum(lcm) - sum(lt_exps[i]),
                        sugar + sum(lcm) - sum(e_new))
                new_pairs.append([s, keyf(lcm), i, t, lcm])
            # B criterion on old pairs
            kept_old = []
            for pr in pairs:
                lcm = pr[4]
                if all(a <= b for a, b in zip(e_new, lcm)):
                    l1 = tuple(a if a > b else b for a, b in zip(lt_exps[pr[2]], e_new))
                    l2 = tuple(a if a > b else b for a, b in zip(lt_exps[pr[3]], e_new))
                    if l1 != lcm and l2 != lcm:
                        continue
                kept_old.append(pr)
            pairs[:] = kept_old
            pairs.extend(new_pairs)
            polys.append(terms)
            lt_keys.append(terms[0][0])
            lt_ws.append(terms[0][1])
            lt_exps.append(e_new)
            sugars.append(sugar)

        for terms in sorted(gens_internal, key=lambda t: t[0][0]):
            if not terms:
                continue
            sugar = max(sum(exps_of_w(w)) for _, w, _ in terms)
            nf = self.normal_form(terms, lt_ws, lt_keys, polys)
            if nf:
                add(nf, sugar)
            if found_unit and stop_on_unit:
                return self._unit_basis()

        while pairs:
            best = min(range(len(pairs)), key=lambda ix: (pairs[ix][0], pairs[ix][1],
                                                          pairs[ix][2], pairs[ix][3]))
            sugar, lcm_key, i, j, lcm = pairs.pop(best)
            gi, gj = polys[i], polys[j]
            mik = lcm_key - lt_keys[i]
            miw = _pack_plain(lcm) - lt_ws[i]
            sp = [(k + mik, w + miw, c) for k, w, c in gi]
            mjk = lcm_key - lt_keys[j]
            mjw = _pack_plain(lcm) - lt_ws[j]
            sp = self.merge_sub(sp, 0, gj, one, mjk, mjw)
            if not sp:
                continue
            nf = self.normal_form(sp, lt_ws, lt_keys, polys)
            if nf:
                add(nf, sugar)
                if found_unit and stop_on_unit:
                    return self._unit_basis()

        # minimalize: drop elements whose lt is divisible by another kept lt
        order_ix = sorted(range(len(polys)), key=lambda ix: lt_keys[ix])
        kept = []
        kept_ws = []
        guard = self.guard
        for ix in order_ix:
            w = lt_ws[ix] | guard
            if any((w - kw) & guard == guard for kw in kept_ws):
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

    def _unit_basis(self):
        one = self.ring.field.one
        return [[(self.keyf((0,) * self.ring.nvars), 0, one)]]


class GroebnerBasis:
    """Reduced Groebner basis of an ideal for a fixed monomial order."""

    def __init__(self, ring, order, internal):
        self.ring = ring
        self.order = order
        self._engine = _Engine(ring, order)
        self._polys = internal
        self._lt_keys = [t[0][0] for t in internal]
        self._lt_ws = [t[0][1] for t in internal]
        self.polys = tuple(_from_internal(t, ring) for t in internal)

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
        return len(self._polys) == 1 and sum(_unpack_plain(self._polys[0][0][1],
                                                           self.ring.nvars)) == 0


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
        gb = self._cache.get(order.tag)
        if gb is None:
            engine = _Engine(self.ring, order)
            internal = engine.buchberger([_to_internal(g, engine.keyf)
                                          for g in self.gens])
            gb = GroebnerBasis(self.ring, order, internal)
            for g in self.gens:
                if not gb.contains(g):
                    raise AssertionError(
                        "Groebner cache verification failed: generator does not "
                        "reduce to zero against its own basis")
            self._cache[order.tag] = gb
        return gb

    def normal_form(self, f, order=GREVLEX):
        return self.groebner(order).normal_form(f)

    def contains(self, f, order=GREVLEX):
        return self.groebner(order).contains(f)

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return self.groebner().is_unit_ideal()

    def equals(self, other, order=GREVLEX):
        if self.ring != other.ring:
            raise RingContextError("ideals in different rings")
        a = self.groebner(order).polys
        b = other.groebner(order).polys
        return a == b

    # -- constructions -------------------------------------------------------
    def sum(self, other):
        return Ideal(self.ring, self.gens + other.gens)

    def product(self, other):
        return Ideal(self.ring, tuple(a * b for a in self.gens for b in other.gens))

    def power(self, k):
        if k < 0:
            raise ValidationError("negative ideal power")
        if k == 0:
            return Ideal(self.ring, (self.ring.one(),))
        out = self
        for _ in range(k - 1):
            out = out.product(self)
        return out

    def multiply(self, f):
        """The ideal f * I."""
        return Ideal(self.ring, tuple(f * g for g in self.gens))

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens[:6])
        if len(self.gens) > 6:
            inside += ", ..."
        return f"Ideal({inside})"


# ---------------------------------------------------------------------------
# ideal operations


def reduced_groebner(ideal, order=GREVLEX):
    """The unique reduced Groebner basis, as a list of Polynomials."""
    return list(ideal.groebner(order).polys)


def normal_form(f, gb):
    return gb.normal_form(f)


def ideal_equal(a, b):
    return a.equals(b)


def _extend_ring(ring, extra="t0"):
    name = extra
    while name in ring.names:
        name += "_"
    return PolyRing((name,) + ring.names, ring.field), name


def _lift(poly, ext):
    return Polynomial(ext, {(0,) + e: c for e, c in poly.terms.items()})


def _t_var(ext):
    return ext.variable(0)


def homogeneous_components(poly):
    """Split a polynomial into its homogeneous graded pieces."""
    by_deg = {}
    for e, c in poly.terms.items():
        by_deg.setdefault(sum(e), {})[e] = c
    return [Polynomial(poly.ring, t) for _, t in sorted(by_deg.items())]


def intersect(a, b):
    """Ideal intersection via elimination of one auxiliary variable."""
    if a.ring != b.ring:
        raise RingContextError("ideals in different rings")
    if a.is_zero() or b.is_unit():
        return Ideal(a.ring, a.gens)
    if b.is_zero() or a.is_unit():
        return Ideal(a.ring, b.gens)
    ext, _ = _extend_ring(a.ring)
    t = _t_var(ext)
    one = ext.one()
    gens = [t * _lift(g, ext) for g in a.gens]
    gens += [(one - t) * _lift(g, ext) for g in b.gens]
    engine = _Engine(ext, elimination_order(1))
    basis = engine.buchberger([_to_internal(g, engine.keyf) for g in gens])
    out = []
    for terms in basis:
        poly = _from_internal(terms, ext)
        if all(e[0] == 0 for e in poly.terms):
            dropped = Polynomial(a.ring, {e[1:]: c for e, c in poly.terms.items()})
            # elements of the (homogeneous) intersection may come out as sums
            # of graded pieces; each piece lies in the intersection as well
            out.extend(homogeneous_components(dropped))
    return Ideal(a.ring, out)


def intersect_many(ideals):
    """Balanced pairwise intersection of a nonempty list of ideals."""
    items = list(ideals)
    if not items:
        raise ValidationError("empty intersection")
    while len(items) > 1:
        nxt = []
        for i in range(0, len(items) - 1, 2):
            nxt.append(intersect(items[i], items[i + 1]))
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def exact_divide(f, g):
    """Quotient f / g when g divides f exactly."""
    if g.is_zero():
        raise ValidationError("division by the zero polynomial")
    ring = f.ring
    engine = _Engine(ring, GREVLEX)
    keyf = engine.keyf
    gt = _to_internal(g, keyf)
    ft = _to_internal(f, keyf)
    lt_k, lt_w, lt_c = gt[0]
    inv_lc = ring.field.inv(lt_c)
    guard = engine.guard
    q = []
    while ft:
        k, w, c = ft[0]
        if ((w | guard) - lt_w) & guard != guard:
            raise ValidationError("inexact polynomial division")
        cc = ring.field.mul(c, inv_lc)
        ft = engine.merge_sub(ft, 0, gt, cc, k - lt_k, w - lt_w)
        q.append((k - lt_k, w - lt_w, cc))
    return _from_internal(q, ring)


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
    """
    ring = a.ring
    perm = [j for j in range(ring.nvars) if j != i] + [i]
    order = MonomialOrder("grevlex", perm=perm)
    gb = a.groebner(order)
    out = []
    for g in gb.polys:
        k = min(e[i] for e in g.terms)
        if k == 0:
            out.append(g)
        else:
            out.append(Polynomial(ring, {
                e[:i] + (e[i] - k,) + e[i + 1:]: c for e, c in g.terms.items()}))
    return Ideal(ring, out)


def saturate_irrelevant(a):
    """a : m^infinity for the irrelevant maximal ideal m = (x_0..x_n).

    Computed as the intersection over all variables of a : x_i^infinity,
    which equals the m-saturation for any homogeneous ideal.
    """
    parts = [saturate_by_variable(a, i) for i in range(a.ring.nvars)]
    return intersect_many(parts)


def radical_membership(f, a):
    """Whether f lies in the radical of a (auxiliary-variable trick)."""
    if f.ring != a.ring:
        raise RingContextError("polynomial from a different ring")
    if f.is_zero():
        return True
    ext, _ = _extend_ring(a.ring, "s0")
    t = _t_var(ext)
    gens = [_lift(g, ext) for g in a.gens]
    gens.append(ext.one() - t * _lift(f, ext))
    engine = _Engine(ext, GREVLEX)
    basis = engine.buchberger([_to_internal(g, engine.keyf) for g in gens],
                              stop_on_unit=True)
    return (len(basis) == 1
            and sum(_unpack_plain(basis[0][0][1], ext.nvars)) == 0)


def eliminate(a, variables):
    """a intersected with the subring omitting `variables`."""
    ring = a.ring
    to_drop = sorted(set(variables))
    if not to_drop:
        return Ideal(ring, a.gens)
    if any(not 0 <= v < ring.nvars for v in to_drop):
        raise ValidationError(f"variable indices {to_drop} out of range")
    if len(to_drop) == ring.nvars:
        return Ideal(ring, ())

    keep = [j for j in range(ring.nvars) if j not in to_drop]
    order = MonomialOrder("elim", len(to_drop), perm=to_drop + keep)
    gb = a.groebner(order)
    out = [g for g in gb.polys if all(all(e[v] == 0 for v in to_drop)
                                      for e in g.terms)]
    return Ideal(ring, out,
                 allow_inhomogeneous=not all(g.is_homogeneous() for g in out))


# ---------------------------------------------------------------------------
# helpers for tests and invariants


def s_polynomial(f, g, order=GREVLEX):
    ring = f.ring
    ef, cf = f.leading_term(order)
    eg, cg = g.leading_term(order)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    mf = Polynomial(ring, {tuple(l - a for l, a in zip(lcm, ef)): ring.field.inv(cf)})
    mg = Polynomial(ring, {tuple(l - a for l, a in zip(lcm, eg)): ring.field.inv(cg)})
    return mf * f - mg * g


def buchberger_criterion_holds(gb):
    """Every S-polynomial of the basis reduces to zero."""
    polys = gb.polys
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            sp = s_polynomial(polys[i], polys[j], gb.order)
            if not gb.normal_form(sp).is_zero():
                return False
    return True
