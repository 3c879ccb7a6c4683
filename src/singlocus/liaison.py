"""Liaison addition, basic double linkage, and curve constructions.

The two named building blocks are small plane arrangements whose
singular-locus curves fail Cohen-Macaulayness in exactly one degree by
exactly one; gluing seeded copies of them with liaison addition and
shifting with basic double links produces, for any r >= 1 and h >= 0, a
curve whose deficiency table is {base + step*(r-1) + h: r}.

Each liaison output carries its Hilbert function as the target that
drives its own basis (`Ideal._target`; Traverso 1996, "Hilbert
functions and the Buchberger algorithm"): a liaison addition
F2 * I1 + F1 * I2 has
dim I_t = dim (I1)_{t-d2} + dim (I2)_{t-d1} - dim R_{t-d1-d2}
(Geramita and Migliore 1994, "A generalized liaison addition"), and two
forms of degrees d1 and d2 span at most
dim R_{t-d1} + dim R_{t-d2} - dim R_{t-d1-d2} dimensions in degree t,
which drives the basis of the regular-sequence check.  Both are
`_liaison_dimension`, read from the inputs' Hilbert data, and
`hilbert_additivity_holds` checks the first on a fresh, undriven ideal
of the output's generators.
"""

from __future__ import annotations

import random
from math import comb

from .arrangement import (Arrangement, apply_coordinate_change,
                          combinatorial_degrees, radical_comb,
                          random_coordinate_change, random_linear_form,
                          top_comb)
from .corpus import load_arrangement
from .errors import InternalLimitError, ValidationError
from .groebner import Ideal
from .homology import hilbert, is_saturated, rao_dimensions
from .polyring import linear_coefficients
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
    ci._target = _liaison_dimension(f1.ring.nvars, f1.total_degree(),
                                    f2.total_degree())
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
    the Hilbert data of the inputs, whose bases the containment checks
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
    gens = tuple(form2 * g for g in ideal1.gens)
    gens += tuple(form1 * g for g in ideal2.gens)
    return _with_target(ideal1, form1, ideal2, form2, gens)


def basic_double_link(ideal1, form1, form2):
    """The ideal form2 * ideal1 + (form1), with form1 in ideal1: the
    liaison addition with ideal2 the whole ring, and its target."""
    if not ideal1.contains(form1):
        raise ValidationError("basic double link: the pivot form is not in "
                              "the ideal")
    _require_regular_sequence(form1, form2)
    gens = tuple(form2 * g for g in ideal1.gens) + (form1,)
    return _with_target(ideal1, form1, None, form2, gens)


def _with_target(ideal1, form1, ideal2, form2, gens):
    """The ideal of `gens`, form2 * ideal1 + form1 * ideal2 (ideal2 None
    for the whole ring), carrying its Hilbert function as its target."""
    out = Ideal(ideal1.ring, gens)
    out._target = _liaison_dimension(
        ideal1.ring.nvars, form1.total_degree(), form2.total_degree(),
        hilbert(ideal1), None if ideal2 is None else hilbert(ideal2))
    return out


def _liaison_dimension(nvars, d1, d2, h1=None, h2=None):
    """The function t -> dim (f2 * I1 + f1 * I2)_t, for forms f1 in I1
    and f2 in I2 of degrees d1 and d2 that form a regular sequence.

    h1 and h2 are the `HilbertData` of R/I1 and R/I2, None for the whole
    ring: with both None it is t -> dim (f1, f2)_t.
    """
    def dim(h, e):  # dim I_e, with I = R when h is None
        if e < 0:
            return 0
        whole = comb(e + nvars - 1, nvars - 1)
        return whole if h is None else whole - h.hilbert_function(e)

    return lambda t: dim(h1, t - d2) + dim(h2, t - d1) - dim(None, t - d1 - d2)


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
        matrix = random_coordinate_change(rng, base.ring.field)
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

    dim I_t of the output must be `_liaison_dimension` of the inputs in
    every degree up to two past the largest of the output's regularity
    index, those of the inputs shifted by d2 and d1, and d1 + d2, which
    bounds that of the complete intersection (f1, f2).  The output's
    Hilbert function comes from a fresh ideal of its generators without
    a target: the output's own basis is driven by this identity, so
    reading it there would check the drive against itself.
    """
    ring = step.form1.ring
    n = ring.nvars
    h_out = hilbert(Ideal(ring, step.output.gens))
    h_1 = hilbert(step.ideal1)
    h_2 = hilbert(step.ideal2) if step.ideal2 is not None else None
    expect = _liaison_dimension(n, step.d1, step.d2, h_1, h_2)
    top = max(h_out.regularity_index, step.d1 + step.d2,
              h_1.regularity_index + step.d2,
              (h_2.regularity_index + step.d1) if h_2 else 0) + 2
    return all(comb(t + n - 1, n - 1) - h_out.hilbert_function(t) == expect(t)
               for t in range(top + 1))


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


def verify_step(step):
    """(Hilbert additivity holds, predicted deficiency table, computed
    deficiency table) of one step's output."""
    return (hilbert_additivity_holds(step), shifted_rao_sum(step),
            rao_dimensions(step.output))


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
        checks = [verify_step(s) for s in construction.steps]
        report["hilbert_additivity_ok"] = all(a for a, _, _ in checks)
        report["rao_shift_ok"] = all(p == c for _, p, c in checks)
        report["saturated_ok"] = is_saturated(construction.ideal)
    report["ok"] = all(v for k, v in report.items() if k.endswith("_ok"))
    return report
