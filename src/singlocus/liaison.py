"""Liaison addition, basic double linkage, and curve constructions.

The two named building blocks are small plane arrangements whose
singular-locus curves fail Cohen-Macaulayness in exactly one degree by
exactly one; gluing seeded copies of them with liaison addition and
shifting with basic double links produces, for any r >= 1 and h >= 0, a
curve whose deficiency table is {base + step*(r-1) + h: r}.

Each liaison output carries its Hilbert function, read from its inputs'
bases, as the target that drives its own basis (`Ideal._target`), and
over F_p its generators are multiplied out by Kronecker substitution.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from functools import lru_cache

from .arrangement import (Arrangement, apply_coordinate_change,
                          combinatorial_degrees, radical_comb,
                          random_coordinate_change, random_linear_form,
                          top_comb)
from .corpus import load_arrangement
from .errors import InternalLimitError, ValidationError
from .groebner import Ideal, _slot_bytes
from .homology import hilbert, is_saturated, rao_dimensions
from .polyring import Polynomial, linear_coefficients
from . import linalg

_RESEED_CAP = 32

#: degree of the one-dimensional deficiency module of each building
#: block's curve: the height-two unmixed curve of the 9-plane `top_block`
#: (degree 42) and the radical curve of the 8-plane `radical_block`
TOP_BLOCK_RAO_DEGREE = 8
RADICAL_BLOCK_RAO_DEGREE = 4


def top_block(field=None):
    return load_arrangement("top_block", field)


def radical_block(field=None):
    return load_arrangement("radical_block", field)


# ---------------------------------------------------------------------------
# generators by Kronecker substitution

#: a product goes through Kronecker substitution when its packed size,
#: (deg + 1)^(n - 1) slots of `_slot_bytes` each (the width of the
#: `reduce_batch` rows), is at most this many bytes per term pair that it
#: replaces; measured over F_32003 and F_(2^61 - 1) in 3-8 variables, the
#: two ways cost the same at 20-40
_BYTES_PER_PAIR = 24


@lru_cache(maxsize=64)
def _degree_slots(nvars, degree):
    """The monomials of `degree` in `nvars` variables, by Kronecker slot.

    Returns two parallel lists sorted by slot: the slots and the exponent
    tuples.  The slot of x^e is the sum of e_i * (degree + 1)^(i - 1) over
    the variables x_1..x_{n-1}; e_0 follows from the degree.
    """
    base = degree + 1
    rows = [(0, 0, ())]  # (slot, degree used, exponents of x_1.. so far)
    for i in range(1, nvars):
        step = base ** (i - 1)
        rows = [(k + e * step, used + e, exps + (e,))
                for k, used, exps in rows for e in range(degree - used + 1)]
    rows.sort()
    return ([k for k, _, _ in rows],
            [(degree - used,) + exps for _, used, exps in rows])


def _kronecker_product(a, b):
    """The product of two nonzero forms over F_p by Kronecker substitution.

    Each form becomes one int with a byte-aligned slot per exponent of
    x_1..x_{n-1} in base D + 1, D the degree of the product, from its
    lowest slot up; the slot of a product term is the sum of its factors'
    slots.  A slot takes at most min(len(a), len(b)) products below p^2,
    so `_slot_bytes` never carries.  Only the slots of monomials of
    degree D are read back.
    """
    p = a.ring.field.p
    degree = a.total_degree() + b.total_degree()
    base = degree + 1
    nbytes = _slot_bytes(p, min(len(a.terms), len(b.terms)))

    def pack(f):
        slots = {}
        for e, c in f.terms.items():
            k = 0
            for x in reversed(e[1:]):
                k = k * base + x
            slots[k] = c
        low, high = min(slots), max(slots)
        buf = bytearray(nbytes * (high + 1 - low))
        for k, c in slots.items():
            at = (k - low) * nbytes
            buf[at:at + nbytes] = c.to_bytes(nbytes, "little")
        return int.from_bytes(buf, "little"), low, high

    packed_a, low_a, high_a = pack(a)
    packed_b, low_b, high_b = pack(b)
    low, high = low_a + low_b, high_a + high_b
    buf = (packed_a * packed_b).to_bytes(nbytes * (high + 1 - low), "little")
    slots, exps = _degree_slots(a.ring.nvars, degree)
    out = {}
    for i in range(bisect_left(slots, low), bisect_right(slots, high)):
        at = (slots[i] - low) * nbytes
        c = int.from_bytes(buf[at:at + nbytes], "little") % p
        if c:
            out[exps[i]] = c
    return Polynomial(a.ring, out)


def _product(a, b):
    """a * b: by `_kronecker_product` over F_p when both are nonzero forms
    and their packed size is small against len(a) * len(b), otherwise by
    `Polynomial.__mul__` (over Q, and in rings of many variables)."""
    p = a.ring.field.p
    if (p is None or a.ring != b.ring or a.is_zero() or b.is_zero()
            or not a.is_homogeneous() or not b.is_homogeneous()):
        return a * b
    slots = (a.total_degree() + b.total_degree() + 1) ** (a.ring.nvars - 1)
    count = min(len(a.terms), len(b.terms))
    if slots * _slot_bytes(p, count) > (_BYTES_PER_PAIR * len(a.terms)
                                         * len(b.terms)):
        return a * b
    return _kronecker_product(a, b)


# ---------------------------------------------------------------------------
# the two linkage constructions


class LiaisonStep:
    """Record of one construction step, kept for later verification."""

    def __init__(self, kind, ideal1, form1, ideal2, form2, output):
        self.kind = kind  # 'addition' or 'bdl'
        self.ideal1 = ideal1
        self.form1 = form1
        self.ideal2 = ideal2  # None for a basic double link
        self.form2 = form2
        self.output = output
        self.d1 = form1.total_degree()
        self.d2 = form2.total_degree()

    def __repr__(self):
        return f"LiaisonStep({self.kind}, d1={self.d1}, d2={self.d2})"


def _require_regular_sequence(f1, f2):
    """Raise `ValidationError` unless (f1, f2) has codimension two.

    The basis of (f1, f2) is driven by the Hilbert function of a complete
    intersection, an upper bound for any two forms, so the check stays
    sound when they share a factor.
    """
    if f1.is_zero() or f2.is_zero():
        raise ValidationError("regular sequence check: a form is zero")
    ci = Ideal(f1.ring, (f1, f2))
    d1, d2 = f1.total_degree(), f2.total_degree()
    ci._target = ((1, d1, None), (1, d2, None), (-1, d1 + d2, None))
    h = hilbert(ci)
    codim = f1.ring.nvars - h.dimension
    if codim != 2:
        raise ValidationError(
            f"({f1}, {f2}) is not a regular sequence (codimension {codim})")


def liaison_addition(ideal1, form1, ideal2, form2):
    """The ideal form2 * ideal1 + form1 * ideal2.

    Preconditions are checked individually: form1 must lie in ideal1,
    form2 in ideal2, and (form1, form2) must be a regular sequence.  The
    output is saturated with Hilbert function
    h(CI) + h(V1)(t-d2) + h(V2)(t-d1).  The map
    ideal1(-d2) + ideal2(-d1) -> output, (a, b) -> form2 * a + form1 * b,
    has the kernel R(-d1-d2) spanned by (form1, -form2), so
    dim I_t = dim (I1)_{t-d2} + dim (I2)_{t-d1} - dim R_{t-d1-d2}; the
    output carries this as the target that drives its basis, read from
    the leading monomials of the bases that the containment checks
    build.  The test suite asserts both facts, on a fresh ideal of the
    same generators, and that the driven basis is the undriven one.
    """
    if not ideal1.contains(form1):
        raise ValidationError("liaison addition: the first form is not in "
                              "the first ideal")
    if not ideal2.contains(form2):
        raise ValidationError("liaison addition: the second form is not in "
                              "the second ideal")
    _require_regular_sequence(form1, form2)
    gens = tuple(_product(form2, g) for g in ideal1.gens)
    gens += tuple(_product(form1, g) for g in ideal2.gens)
    return _with_target(ideal1, form1, ideal2, form2, gens)


def basic_double_link(ideal1, form1, form2):
    """The ideal form2 * ideal1 + (form1), with form1 in ideal1: the
    liaison addition with ideal2 the whole ring, and its target."""
    if not ideal1.contains(form1):
        raise ValidationError("basic double link: the pivot form is not in "
                              "the ideal")
    _require_regular_sequence(form1, form2)
    gens = tuple(_product(form2, g) for g in ideal1.gens) + (form1,)
    return _with_target(ideal1, form1, None, form2, gens)


def _with_target(ideal1, form1, ideal2, form2, gens):
    """The ideal of `gens`, form2 * ideal1 + form1 * ideal2 (ideal2 None
    for the whole ring), carrying its Hilbert function as its target."""
    d1, d2 = form1.total_degree(), form2.total_degree()
    out = Ideal(ideal1.ring, gens)
    out._target = ((1, d2, ideal1.groebner()._lt_ws),
                   (1, d1, None if ideal2 is None else ideal2.groebner()._lt_ws),
                   (-1, d1 + d2, None))
    return out


def arrangement_product_hypotheses(arr_a, arr_b):
    """Whether no form of either arrangement sits inside a flat of the other.

    Returns (ok, witnesses); witnesses are ('a'|'b', form_index, flat)
    naming the offending form and the flat whose prime contains it.
    """
    field = arr_a.ring.field
    witnesses = []
    rows_b = arr_b.coefficient_rows()
    for flat in arr_a.flats():
        basis = [list(b) for b in flat.basis]
        for j, row in enumerate(rows_b):
            if linalg.in_span(row, basis, field):
                witnesses.append(("b", j, flat))
    rows_a = arr_a.coefficient_rows()
    for flat in arr_b.flats():
        basis = [list(b) for b in flat.basis]
        for j, row in enumerate(rows_a):
            if linalg.in_span(row, basis, field):
                witnesses.append(("a", j, flat))
    return (not witnesses), witnesses


def merge_arrangements(arr_a, arr_b):
    return Arrangement(arr_a.ring, arr_a.forms + arr_b.forms)


# ---------------------------------------------------------------------------
# prescribed-deficiency constructions


class Construction:
    """Result of an iterated construction, with its predictions."""

    def __init__(self, arrangement, ideal, steps, predicted_rao,
                 predicted_degree, seed, kind):
        self.arrangement = arrangement
        self.ideal = ideal
        self.steps = steps
        self.predicted_rao = dict(predicted_rao)
        self.predicted_degree = predicted_degree
        self.seed = seed
        self.kind = kind  # 'top' or 'radical'

    def __repr__(self):
        return (f"Construction({self.kind}, {self.arrangement.d} planes, "
                f"rao {self.predicted_rao}, degree {self.predicted_degree})")


def _construct(r, h, seed, block, base_rao_degree, curve_of, field):
    if r < 1:
        raise ValidationError("need at least one building block copy")
    if h < 0:
        raise ValidationError("the shift count cannot be negative")
    rng = random.Random(seed)
    base = block(field)
    block_deg = base.d
    steps = []

    acc_arr = base
    acc_ideal = curve_of(base)
    acc_degree = _curve_degree_of_block(base, curve_of)
    block_degree = acc_degree

    for copy in range(1, r):
        new_arr = _fresh_copy(base, acc_arr, rng)
        new_ideal = curve_of(new_arr)
        f_acc = acc_arr.defining_polynomial()
        f_new = new_arr.defining_polynomial()
        out = liaison_addition(acc_ideal, f_acc, new_ideal, f_new)
        steps.append(LiaisonStep("addition", acc_ideal, f_acc, new_ideal,
                                 f_new, out))
        acc_degree = acc_degree + block_degree + f_acc.total_degree() * block_deg
        acc_arr = merge_arrangements(acc_arr, new_arr)
        acc_ideal = out

    for _ in range(h):
        f_acc = acc_arr.defining_polynomial()
        ell = _fresh_linear(acc_arr, rng)
        out = basic_double_link(acc_ideal, f_acc, ell)
        steps.append(LiaisonStep("bdl", acc_ideal, f_acc, None, ell, out))
        acc_degree = acc_degree + f_acc.total_degree()
        acc_arr = Arrangement(acc_arr.ring, acc_arr.forms + (ell,))
        acc_ideal = out

    predicted_rao = {base_rao_degree + block_deg * (r - 1) + h: r}
    return Construction(acc_arr, acc_ideal, steps, predicted_rao, acc_degree,
                        seed, "top" if curve_of is top_comb else "radical")


def _curve_degree_of_block(arr, curve_of):
    deg_red, deg_top = combinatorial_degrees(arr)
    return deg_top if curve_of is top_comb else deg_red


def _fresh_copy(base, acc_arr, rng):
    for _ in range(_RESEED_CAP):
        matrix = random_coordinate_change(rng)
        candidate = apply_coordinate_change(base, matrix)
        try:
            merge_arrangements(acc_arr, candidate)
        except ValidationError:
            continue  # a copied form collided with an accumulated one
        ok, _ = arrangement_product_hypotheses(acc_arr, candidate)
        if ok:
            return candidate
    raise InternalLimitError(
        f"no admissible coordinate change found in {_RESEED_CAP} tries")


def _fresh_linear(acc_arr, rng):
    field = acc_arr.ring.field
    for _ in range(_RESEED_CAP):
        ell = random_linear_form(acc_arr.ring, rng)
        row = linear_coefficients(ell)
        if any(linalg.in_span(row, [list(b) for b in f.basis], field)
               for f in acc_arr.flats()):
            continue
        try:
            Arrangement(acc_arr.ring, acc_arr.forms + (ell,))
        except ValidationError:
            continue
        return ell
    raise InternalLimitError(
        f"no general linear form found in {_RESEED_CAP} tries")


def construct_lr(r, h=0, seed=0, field=None):
    """Curve from r glued 9-plane blocks plus h linear double links.

    Predicted deficiency table {8 + 9(r-1) + h: r}; the predicted degree
    follows the additivity deg Z = deg V1 + deg V2 + d1*d2 step by step.
    """
    return _construct(r, h, seed, top_block, TOP_BLOCK_RAO_DEGREE, top_comb,
                      field)


def construct_lr_radical(r, h=0, seed=0, field=None):
    """Radical-curve analogue built from the 8-plane block."""
    return _construct(r, h, seed, radical_block, RADICAL_BLOCK_RAO_DEGREE,
                      radical_comb, field)


# ---------------------------------------------------------------------------
# verification


def hilbert_additivity_holds(step):
    """Degree-by-degree Hilbert function identity for one step.

    Each input scheme is shifted by the degree of the form multiplying
    its ideal: h(out) = h(CI) + h(V1)(t - d2) + h(V2)(t - d1).  The
    output's Hilbert function comes from a fresh ideal of its generators
    without a target: the output's own basis is driven by this identity,
    so reading it there would check the drive against itself.
    """
    ring = step.form1.ring
    ci = Ideal(ring, (step.form1, step.form2))
    h_out = hilbert(Ideal(ring, step.output.gens))
    h_ci = hilbert(ci)
    h_1 = hilbert(step.ideal1)
    h_2 = hilbert(step.ideal2) if step.ideal2 is not None else None
    top = max(h_out.regularity_index, h_ci.regularity_index,
              h_1.regularity_index + step.d2,
              (h_2.regularity_index + step.d1) if h_2 else 0) + 2
    for t in range(top + 1):
        expect = h_ci.hilbert_function(t) + h_1.hilbert_function(t - step.d2)
        if h_2 is not None:
            expect += h_2.hilbert_function(t - step.d1)
        if h_out.hilbert_function(t) != expect:
            return False
    return True


def shifted_rao_sum(step):
    """Predicted deficiency table of a step output from its inputs."""
    out = {}
    for deg, dim in rao_dimensions(step.ideal1).items():
        key = deg + step.d2
        out[key] = out.get(key, 0) + dim
    if step.ideal2 is not None:
        for deg, dim in rao_dimensions(step.ideal2).items():
            key = deg + step.d1
            out[key] = out.get(key, 0) + dim
    return out


def verify_construction(construction, deep=False):
    """Recompute every prediction; returns a report dict.

    With deep=True each step's Hilbert additivity and deficiency-shift
    bookkeeping is recomputed as well (slower: it resolves every
    intermediate ideal).
    """
    report = {}
    h = hilbert(construction.ideal)
    report["degree_predicted"] = construction.predicted_degree
    report["degree_computed"] = h.degree()
    report["degree_ok"] = h.degree() == construction.predicted_degree
    rao = rao_dimensions(construction.ideal)
    report["rao_predicted"] = dict(construction.predicted_rao)
    report["rao_computed"] = rao
    report["rao_ok"] = rao == construction.predicted_rao
    if deep:
        report["hilbert_additivity_ok"] = all(
            hilbert_additivity_holds(s) for s in construction.steps)
        report["rao_shift_ok"] = all(
            rao_dimensions(s.output) == shifted_rao_sum(s)
            for s in construction.steps)
        report["saturated_ok"] = is_saturated(construction.ideal)
    report["ok"] = all(v for k, v in report.items() if k.endswith("_ok"))
    return report
