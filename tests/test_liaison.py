"""Liaison addition, basic double links, and the curve constructions."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import LARGEST_PRIME, monomials_of_degree, undriven_liaison_basis
from singlocus import liaison
from singlocus.arrangement import Arrangement, standard_ring, top_comb
from singlocus.corpus import load_arrangement
from singlocus.errors import InvariantError, ValidationError
from singlocus.groebner import Ideal, intersect_many, saturate_irrelevant
from singlocus.homology import hilbert, is_cm, rao_dimensions
from singlocus.liaison import (Construction, LiaisonStep,
                               _kronecker_product, _product,
                               arrangement_product_hypotheses,
                               basic_double_link, construct_lr,
                               construct_lr_radical, hilbert_additivity_holds,
                               liaison_addition, merge_arrangements,
                               radical_block, shifted_rao_sum, top_block,
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
    ideal._target = ((1, 0, [_pack_plain((1, 1, 0, 0))]),)
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


PRIMES = [32003, 2 ** 31 - 1, 2 ** 61 - 1, LARGEST_PRIME]
NAMES = tuple(f"x{i}" for i in range(8))


@st.composite
def form_pair(draw):
    """Two forms over F_p in 1-8 variables, with coefficients biased
    towards p - 1, where the slot sums are largest."""
    n = draw(st.integers(1, 8))
    p = draw(st.sampled_from(PRIMES))
    ring = PolyRing(NAMES[:n], GF(p))
    coeffs = st.one_of(st.just(p - 1), st.integers(1, p - 1))

    def form():
        mons = monomials_of_degree(n, draw(st.integers(0, 3 if n > 5 else 6)))
        picked = draw(st.lists(st.sampled_from(mons), min_size=1,
                               max_size=20, unique=True))
        return ring.from_terms({e: draw(coeffs) for e in picked})

    return form(), form()


@given(form_pair())
@settings(max_examples=150, deadline=None)
def test_kronecker_product_matches_multiplication(pair):
    a, b = pair
    assert _kronecker_product(a, b) == a * b
    assert _product(a, b) == a * b


@pytest.mark.parametrize("p", PRIMES)
def test_kronecker_product_at_the_slot_bound(p):
    """Dense forms with every coefficient p - 1: each slot of the product
    sums as many products (p - 1)^2 as it can."""
    ring = PolyRing(NAMES[:4], GF(p))
    a = ring.from_terms({e: p - 1 for e in monomials_of_degree(4, 5)})
    b = ring.from_terms({e: p - 1 for e in monomials_of_degree(4, 7)})
    assert _kronecker_product(a, b) == a * b


def test_product_falls_back_where_slots_are_many(monkeypatch):
    """Dense 4-variable forms over F_p take the Kronecker kernel; sparse
    8-variable forms, and forms over Q, take `Polynomial.__mul__`."""
    calls = []

    def recorded(a, b):
        calls.append((a, b))
        return _kronecker_product(a, b)

    monkeypatch.setattr(liaison, "_kronecker_product", recorded)
    dense = PolyRing(NAMES[:4], GF(32003))
    a = dense.from_terms({e: i + 1 for i, e in
                          enumerate(monomials_of_degree(4, 4))})
    b = dense.from_terms({e: 2 * i + 1 for i, e in
                          enumerate(monomials_of_degree(4, 6))})
    assert _product(a, b) == a * b
    assert len(calls) == 1
    sparse = PolyRing(NAMES, GF(32003))
    v = sparse.variables()
    c = v[0] * v[1] + 3 * v[7] ** 2
    d = v[2] ** 3 - v[4] * v[5] * v[6]
    assert _product(c, d) == c * d
    rational = PolyRing(NAMES[:4], QQ)
    e = rational.from_terms({m: 1 for m in monomials_of_degree(4, 4)})
    assert _product(e, e) == e * e
    assert len(calls) == 1
