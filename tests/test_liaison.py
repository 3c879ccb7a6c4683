"""Liaison addition, basic double links, and the curve constructions."""

import pytest

from singlocus.arrangement import Arrangement, standard_ring, top_comb
from singlocus.corpus import load_arrangement
from singlocus.errors import ValidationError
from singlocus.groebner import Ideal, intersect_many, saturate_irrelevant
from singlocus.homology import hilbert, is_cm, rao_dimensions
from singlocus.liaison import (Construction, LiaisonStep,
                               arrangement_product_hypotheses,
                               basic_double_link, construct_lr,
                               construct_lr_radical, hilbert_additivity_holds,
                               liaison_addition, merge_arrangements,
                               radical_block, shifted_rao_sum, top_block,
                               verify_construction)


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
            moved = apply_coordinate_change(base,
                                            random_coordinate_change(rng))
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
