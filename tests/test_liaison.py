"""Liaison addition, basic double links, and the curve constructions."""

from math import comb

import pytest

from conftest import undriven_liaison_basis
from singlocus.arrangement import Arrangement, standard_ring, top_comb
from singlocus.errors import InvariantError, ValidationError
from singlocus.groebner import Ideal, _DegreeCounter, saturate_irrelevant
from singlocus.homology import hilbert, is_cm, rao_dimensions
from singlocus.liaison import (LiaisonStep, _require_regular_sequence,
                               arrangement_product_hypotheses,
                               basic_double_link, construct_lr,
                               construct_lr_radical, hilbert_additivity_holds,
                               liaison_addition, shifted_rao_sum, top_block,
                               verify_construction)
from singlocus.polyring import GF, QQ, PolyRing, _pack_plain


class TestLiaisonAddition:
    def test_three_lines_example(self, ring_p):
        x, y, z, w = ring_p.variables()
        i1, i2 = Ideal(ring_p, (x, y)), Ideal(ring_p, (z, w))
        out = liaison_addition(i1, x, i2, z)
        assert out.equals(Ideal(ring_p, (x * z, y * z, x * w)))
        h = hilbert(out)
        assert h.degree() == 3
        step = LiaisonStep("addition", i1, x, i2, z, out)
        assert hilbert_additivity_holds(step)

    def test_asymmetric_degrees_additivity(self, ring_p):
        x, y, z, w = ring_p.variables()
        i1 = Ideal(ring_p, (x, y))
        i2 = Ideal(ring_p, (z, w * w))
        out = liaison_addition(i1, x * w, i2, z)
        step = LiaisonStep("addition", i1, x * w, i2, z, out)
        assert hilbert_additivity_holds(step)
        assert hilbert(out).degree() == 1 + 2 + 2

    def test_membership_preconditions(self, ring_p):
        x, y, z, w = ring_p.variables()
        i1, i2 = Ideal(ring_p, (x, y)), Ideal(ring_p, (z, w))
        with pytest.raises(ValidationError) as e1:
            liaison_addition(i1, z, i2, z)
        assert "first form" in str(e1.value)
        with pytest.raises(ValidationError) as e2:
            liaison_addition(i1, x, i2, x)
        assert "second form" in str(e2.value)

    def test_regular_sequence_precondition(self, ring_p):
        x, y, z, w = ring_p.variables()
        i1 = Ideal(ring_p, (x, y))
        i2 = Ideal(ring_p, (x, z))
        with pytest.raises(ValidationError) as err:
            liaison_addition(i1, x, i2, x)
        assert "regular sequence" in str(err.value)

    @pytest.mark.parametrize("field", [GF(32003), QQ], ids=["p", "q"])
    def test_forms_with_a_common_factor_are_refused(self, field):
        """The complete-intersection target of the regular-sequence check
        is only an upper bound when the forms share a factor: the driven
        basis must still show codimension one."""
        ring = PolyRing(("x", "y", "z", "w"), field)
        x, y, z, w = ring.variables()
        i1 = Ideal(ring, (x, y))
        i2 = Ideal(ring, (x + y, z))
        with pytest.raises(ValidationError) as err:
            liaison_addition(i1, x * (x + y), i2, (x + y) * z)
        assert "codimension 1" in str(err.value)

    def test_saturated_output(self, ring_p):
        x, y, z, w = ring_p.variables()
        out = liaison_addition(Ideal(ring_p, (x, y)), x,
                               Ideal(ring_p, (z, w)), z)
        assert saturate_irrelevant(out).equals(out)

    def test_building_block_pair_degree(self):
        # two blocks in general position: degree 42 + 42 + 81 = 165 is
        # checked in the acceptance suite; here a cheap stand-in pair
        ring = standard_ring()
        x, y, z, w = ring.variables()
        a = Arrangement(ring, (x, y, x + y))
        b = Arrangement(ring, (z, w, z + w))
        ok, _ = arrangement_product_hypotheses(a, b)
        assert ok
        ia, ib = top_comb(a), top_comb(b)
        fa, fb = a.defining_polynomial(), b.defining_polynomial()
        out = liaison_addition(ia, fa, ib, fb)
        assert hilbert(out).degree() == 4 + 4 + 9
        assert is_cm(out)


class TestBasicDoubleLink:
    def test_hand_example(self, ring_p):
        x, y, z, w = ring_p.variables()
        out = basic_double_link(Ideal(ring_p, (x, y)), x, z)
        assert out.equals(Ideal(ring_p, (x, y * z)))
        assert hilbert(out).degree() == 2

    def test_acm_preserved(self, ring_p):
        x, y, z, w = ring_p.variables()
        out = basic_double_link(Ideal(ring_p, (x, y)), x * y, z + w)
        assert is_cm(out)
        assert saturate_irrelevant(out).equals(out)

    def test_rao_shift_by_linear_form(self, ring_p):
        from singlocus.groebner import intersect
        x, y, z, w = ring_p.variables()
        skew = intersect(Ideal(ring_p, (x, y)), Ideal(ring_p, (z, w)))
        out = basic_double_link(skew, x * z, x + y + z + w)
        assert rao_dimensions(out) == {1: 1}
        step = LiaisonStep("bdl", skew, x * z, None, x + y + z + w, out)
        assert shifted_rao_sum(step) == {1: 1}
        assert hilbert_additivity_holds(step)

    def test_precondition(self, ring_p):
        x, y, z, w = ring_p.variables()
        with pytest.raises(ValidationError):
            basic_double_link(Ideal(ring_p, (x, y)), z, w)


class TestProductHypotheses:
    def test_generic_stars(self):
        ring = standard_ring()
        x, y, z, w = ring.variables()
        a = Arrangement(ring, (x, y, x + y))
        b = Arrangement(ring, (z, w, z + w))
        ok, witnesses = arrangement_product_hypotheses(a, b)
        assert ok and not witnesses

    def test_violation_detected(self):
        ring = standard_ring()
        x, y, z, w = ring.variables()
        a = Arrangement(ring, (x, y, x + y))
        b = Arrangement(ring, (x + 2 * y, z, w))  # first form hits flat (x,y)
        ok, witnesses = arrangement_product_hypotheses(a, b)
        assert not ok
        side, idx, flat = witnesses[0]
        assert side == "b" and idx == 0

    def test_block_copies_under_seeds(self):
        from singlocus.arrangement import (apply_coordinate_change,
                                           random_coordinate_change)
        import random
        base = top_block()
        rng = random.Random(71)
        found = 0
        for _ in range(8):
            moved = apply_coordinate_change(
                base, random_coordinate_change(rng, base.ring.field))
            ok, _ = arrangement_product_hypotheses(base, moved)
            found += ok
        assert found >= 1


class TestConstructions:
    def test_r1_matches_block(self):
        c = construct_lr(1, seed=0)
        assert c.arrangement.d == 9
        assert c.predicted_rao == {8: 1}
        assert c.predicted_degree == 42
        report = verify_construction(c)
        assert report["ok"], report

    def test_r1_radical(self):
        c = construct_lr_radical(1, seed=0)
        assert c.arrangement.d == 8
        assert c.predicted_rao == {4: 1}
        report = verify_construction(c)
        assert report["ok"], report

    def test_r1_h2_shifts_by_two(self):
        c = construct_lr_radical(1, h=2, seed=5)
        assert c.arrangement.d == 10
        assert c.predicted_rao == {6: 1}
        report = verify_construction(c, deep=True)
        assert report["ok"], report

    def test_h1_prediction(self):
        c = construct_lr(1, h=1, seed=7)
        assert c.predicted_rao == {9: 1}
        assert c.predicted_degree == 42 + 9
        report = verify_construction(c, deep=True)
        assert report["ok"], report

    def test_r2_predictions_without_verify(self):
        c = construct_lr(2, seed=7)
        assert c.arrangement.d == 18
        assert c.predicted_rao == {17: 2}
        assert c.predicted_degree == 165
        assert len(c.steps) == 1 and c.steps[0].kind == "addition"

    def test_r2_radical_prediction(self):
        c = construct_lr_radical(2, seed=3)
        assert c.arrangement.d == 16
        assert c.predicted_rao == {12: 2}

    def test_r2_radical_over_q(self):
        """The radical r = 2 curve verifies over Q, as over F_p."""
        c = construct_lr_radical(2, seed=7, field=QQ)
        report = verify_construction(c)
        assert report["ok"], report
        assert report["degree_computed"] == 104
        assert report["rao_computed"] == {12: 2}

    @pytest.mark.parametrize("build, seed", [
        (construct_lr, 110), (construct_lr_radical, 36),
        (construct_lr_radical, 110), (construct_lr_radical, 121)])
    def test_r2_at_a_small_prime(self, build, seed):
        """Under these seeds a coordinate change that is invertible mod
        32003 is singular mod 37; it is drawn again, so the copy stays a
        copy of the block and the r = 2 curve verifies at p = 37."""
        c = build(2, seed=seed, field=GF(37))
        report = verify_construction(c)
        assert report["ok"], report

    def test_r3_degree_recurrence(self):
        c = construct_lr(3, seed=9)
        assert c.arrangement.d == 27
        assert c.predicted_rao == {26: 3}
        assert c.predicted_degree == 165 + 42 + 162

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            construct_lr(0)
        with pytest.raises(ValidationError):
            construct_lr(1, h=-1)


# ---------------------------------------------------------------------------
# driven bases and Kronecker products


def _check_steps(construction):
    """Every step's driven basis is the undriven one of the generators
    multiplied out by `Polynomial.__mul__`."""
    for step in construction.steps:
        assert step.output._target is not None
        assert step.output.groebner()._polys == undriven_liaison_basis(step)


@pytest.mark.parametrize("build", [
    lambda: construct_lr_radical(2, seed=7),
    lambda: construct_lr(1, h=1, seed=7, field=QQ),
    lambda: construct_lr(1, h=2, seed=7, field=QQ),
], ids=["radical2_p", "lr1_h1_q", "lr1_h2_q"])
def test_driven_bases_match_the_undriven_oracle(build):
    _check_steps(build())


def test_r3_recurrence_intermediate_basis_matches_the_oracle():
    """construct_lr(3) builds the driven basis of its r = 2 curve in the
    containment check of its second step."""
    c = construct_lr(3, seed=9)
    first = c.steps[0]
    assert first.output._cache  # built by the construction itself
    assert first.output.groebner()._polys == undriven_liaison_basis(first)


def test_radical_pair_output_drive_drops_pairs(drives):
    c = construct_lr_radical(2, seed=7)
    built = len(drives)
    c.ideal.groebner()
    assert len(drives) == built + 1
    drive = drives[-1]
    assert drive.dropped > 0
    assert drive.rows > 0  # over F_p each degree is a batch of rows


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["p", "q"])
def test_target_below_the_hilbert_function_raises(field):
    """A target that is not an upper bound is caught: here the leading
    terms of (xy, xz) span 7 dimensions in degree 3 and the target,
    that of (xy) alone, only 4."""
    ring = PolyRing(("x", "y", "z", "w"), field)
    x, y, z, w = ring.variables()
    ideal = Ideal(ring, (x * y, x * z))
    ideal._target = _DegreeCounter(4, [_pack_plain((1, 1, 0, 0))]).count
    with pytest.raises(InvariantError):
        ideal.groebner()


def test_additivity_check_reads_a_fresh_ideal():
    """The additivity check takes the output's Hilbert function from a
    fresh ideal of its generators: the output's driven basis would only
    repeat its target."""
    ring = standard_ring()
    x, y, z, w = ring.variables()
    i1, i2 = Ideal(ring, (x, y)), Ideal(ring, (z, w))
    out = liaison_addition(i1, x, i2, z)
    step = LiaisonStep("addition", i1, x, i2, z, out)
    assert hilbert_additivity_holds(step)
    assert not out._cache and not hasattr(out, "_hilbert_cache")


# ---------------------------------------------------------------------------
# Hilbert targets


def _ideal_dimension(ring, gens):
    """t -> dim I_t, and the Hilbert data of R/I, for the ideal I of
    `gens`, from the undriven basis of a fresh ideal."""
    h = hilbert(Ideal(ring, gens))
    n = ring.nvars
    return (lambda t: comb(t + n - 1, n - 1) - h.hilbert_function(t)), h


def _degrees_read(step, h_out):
    """The degrees in which `hilbert_additivity_holds` compares, given the
    Hilbert data of the output."""
    top = max(h_out.regularity_index, step.d1 + step.d2,
              hilbert(step.ideal1).regularity_index + step.d2)
    if step.ideal2 is not None:
        top = max(top, hilbert(step.ideal2).regularity_index + step.d1)
    return range(top + 3)


@pytest.mark.parametrize("build", [
    lambda: construct_lr(2, h=1, seed=7),
    lambda: construct_lr(2, h=1, seed=7, field=QQ),
    lambda: construct_lr_radical(2, h=1, seed=7),
    lambda: construct_lr_radical(2, h=1, seed=7, field=QQ),
], ids=["lr_p", "lr_q", "radical_p", "radical_q"])
def test_liaison_targets_are_the_hilbert_function(build):
    """Each step's target is dim I_t of its output, read from a fresh
    undriven ideal of the output's generators, in every degree that the
    additivity check reads: a liaison addition and a basic double link."""
    c = build()
    assert [s.kind for s in c.steps] == ["addition", "bdl"]
    for step in c.steps:
        dim, h_out = _ideal_dimension(step.output.ring, step.output.gens)
        for t in _degrees_read(step, h_out):
            assert step.output._target(t) == dim(t), (step, t)


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["p", "q"])
def test_regular_sequence_target_is_the_complete_intersection(field, drives):
    """The regular-sequence check drives (f1, f2) by dim (f1, f2)_t, here
    for the forms of both steps of the radical r = 2, h = 1 curve."""
    c = construct_lr_radical(2, h=1, seed=7, field=field)
    for step in c.steps:
        built = len(drives)
        _require_regular_sequence(step.form1, step.form2)
        assert len(drives) == built + 1
        dim, _ = _ideal_dimension(step.form1.ring, (step.form1, step.form2))
        for t in range(step.d1 + step.d2 + 3):
            assert drives[-1].target(t) == dim(t), (step, t)


def test_additivity_fails_without_a_generator():
    """Negative control: an output that lacks its last generator breaks
    the identity, at both steps of the radical r = 2, h = 1 curve."""
    c = construct_lr_radical(2, h=1, seed=7)
    for step in c.steps:
        assert hilbert_additivity_holds(step)
        short = Ideal(step.output.ring, step.output.gens[:-1])
        assert not hilbert_additivity_holds(LiaisonStep(
            step.kind, step.ideal1, step.form1, step.ideal2, step.form2,
            short))
