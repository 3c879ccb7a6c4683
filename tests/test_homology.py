"""Resolutions, Betti tables, Hilbert data, deficiency dimensions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (betti_by_strand_homology, deficiency_by_ext,
                      membership_by_linear_algebra, monomials_of_degree,
                      power_of_variables, rao_by_degree_scan, schreyer_resolution_by_tuples,
                      standard_monomial_count)
from singlocus import linalg
from singlocus.arrangement import (Arrangement, jacobian_ideal,
                                   parse_arrangement, radical_comb, top_comb)
from singlocus.corpus import arrangement_names, load_arrangement
from singlocus.errors import ValidationError
from singlocus.groebner import (Ideal, _Engine, intersect, intersect_many,
                                saturate_irrelevant)
from singlocus.homology import (BettiTable, GradedFreeModule, GradedMap,
                                _module_leads, _module_vector,
                                _schreyer_resolution, betti_json, betti_of,
                                betti_table, betti_text, dimensions, hilbert,
                                is_cm, is_saturated, minimal_free_resolution,
                                rao_dimensions, schreyer_syzygies)
from singlocus.liaison import construct_lr, construct_lr_radical
from singlocus.polyring import GF, QQ, WIDTH, PolyRing, _unpack_plain

# Six planes from a random sweep: the Jacobian ideal has projective
# dimension 4 (it is not saturated), and its resolution overran the
# variable-count bound before the levels were put in Schreyer's order.
SWEEP_SIX = """\
vars: x y z w
3*x + 3*y - 2*z - 3*w
3*x - y - z - 3*w
3*x - z + 2*w
-3*x + y + 3*z + w
-y - z + 3*w
2*x - 3*y - 2*z - 2*w
"""


def _arrangement(name):
    if name == "sweep_six":
        return parse_arrangement(SWEEP_SIX)
    return load_arrangement(name)


class TestSyzygies:
    def test_koszul_pair(self, ring_p):
        x, y = ring_p.variable(0), ring_p.variable(1)
        syz = schreyer_syzygies([x, y])
        assert len(syz) == 1
        a, b = syz[0]
        # (y, -x) up to scalar
        assert (a * x + b * y).is_zero()
        assert not a.is_zero()

    def test_monomial_triple(self, ring_p):
        x, y, z, w = ring_p.variables()
        gens = [x * y, x * z, y * z]
        syz = schreyer_syzygies(gens)
        assert len(syz) == 2
        for vec in syz:
            acc = ring_p.zero()
            for v, g in zip(vec, gens):
                acc = acc + v * g
            assert acc.is_zero()
            assert all(v.is_zero() or v.total_degree() == 1 for v in vec)

    def test_pairing_on_corpus_basis(self, ring_p):
        x, y, z, w = ring_p.variables()
        ideal = Ideal(ring_p, (x * y - z * z, y * w - z * x, x ** 3))
        gb = list(ideal.groebner().polys)
        for vec in schreyer_syzygies(gb):
            acc = ring_p.zero()
            for v, g in zip(vec, gb):
                acc = acc + v * g
            assert acc.is_zero()

    def test_non_basis_rejected(self, ring_p):
        x, y, z, w = ring_p.variables()
        # S-polynomial leaves the remainder -x*z^2, so this is not a basis
        with pytest.raises(ValidationError):
            schreyer_syzygies([x * y - z * z, x * x])

    def test_module_rank_two(self, ring_p):
        x, y = ring_p.variable(0), ring_p.variable(1)
        zero = ring_p.zero()
        # two disjoint Koszul pairs inside R^2
        gens = [[x, zero], [y, zero], [zero, x]]
        syz = schreyer_syzygies(gens)
        assert len(syz) == 1
        (a, b, c) = syz[0]
        assert (a * x + b * y).is_zero() and c.is_zero()

    @pytest.mark.parametrize("ring_name", ["ring_p", "ring_q"])
    def test_module_rank_three_twisted(self, ring_name, request):
        ring = request.getfixturevalue(ring_name)
        x, y, z, w = ring.variables()
        zero = ring.zero()
        basis = list(Ideal(ring, (x * y - z * z, y * w - z * x, x ** 3))
                     .groebner().polys)
        # g * (2, 0, 3x - 6y) spans components 0 and 2, leads in 2 with
        # coefficient 3; the two vectors in component 1 are not monic either
        gens = [[2 * g, zero, (3 * x - 6 * y) * g] for g in basis]
        gens += [[zero, 2 * z, zero], [zero, 5 * w - 7 * y, zero]]
        syz = schreyer_syzygies(gens, twists=[2, 1, 1])
        assert len(syz) == len(schreyer_syzygies(basis)) + 1
        for vec in syz:
            assert not all(v.is_zero() for v in vec)
            for comp in range(3):
                acc = zero
                for v, g in zip(vec, gens):
                    acc = acc + v * g[comp]
                assert acc.is_zero()


class TestResolutions:
    def test_koszul_two(self, ring_p):
        x, y = ring_p.variable(0), ring_p.variable(1)
        res = minimal_free_resolution(Ideal(ring_p, (x, y)))
        assert [m.twists for m in res.modules] == [(0,), (1, 1), (2,)]
        for k in range(len(res.maps) - 1):
            image = res.maps[k].apply(
                [res.maps[k + 1].entry(r, 0) or ring_p.zero()
                 for r in range(res.modules[k + 1].rank)])
            assert all(p is None or p.is_zero() for p in image)

    def test_koszul_three_betti(self, ring_p):
        x, y, z, w = ring_p.variables()
        assert betti_of(Ideal(ring_p, (x, y, z))).totals() == [1, 3, 3, 1]

    def test_koszul_four_betti(self, ring_p):
        x, y, z, w = ring_p.variables()
        assert betti_of(Ideal(ring_p, (x, y, z, w))).totals() == [1, 4, 6, 4, 1]

    def test_composition_zero_and_exact_degrees(self, ring_p):
        x, y, z, w = ring_p.variables()
        ideal = Ideal(ring_p, (x * y, x * z, y * z, z * w * w))
        res = minimal_free_resolution(ideal)
        for k in range(len(res.maps) - 1):
            nxt = res.maps[k + 1]
            for c in range(res.modules[k + 2].rank):
                col = [nxt.entry(r, c) or ring_p.zero()
                       for r in range(res.modules[k + 1].rank)]
                image = res.maps[k].apply(col)
                assert all(p is None or p.is_zero() for p in image)

    def test_minimality(self, ring_p):
        x, y, z, w = ring_p.variables()
        ideal = Ideal(ring_p, ((x + y) * z, z * w - x * x, w ** 3))
        res = minimal_free_resolution(ideal)
        assert res.is_minimal()

    def test_betti_requires_minimal(self, ring_p):
        x, y = ring_p.variable(0), ring_p.variable(1)
        res = minimal_free_resolution(Ideal(ring_p, (x, y)))
        modules = [GradedFreeModule((0,)), GradedFreeModule((0, 1))]
        bad = GradedMap(modules[1], modules[0],
                        {(0, 0): ring_p.one(), (0, 1): x})
        from singlocus.homology import Resolution
        nonmin = Resolution(ring_p, modules, [bad])
        with pytest.raises(ValidationError):
            betti_table(nonmin)

    def test_graded_map_degree_validation(self, ring_p):
        x = ring_p.variable(0)
        src = GradedFreeModule((2,))
        tgt = GradedFreeModule((0,))
        with pytest.raises(ValidationError):
            GradedMap(src, tgt, {(0, 0): x})  # degree 1 entry, expected 2

    def test_betti_against_strand_homology(self, ring_p):
        x, y, z, w = ring_p.variables()
        for gens in [(x * y, x * z, y * z),
                     (x * x - y * z, z * w, y * w - x * x),
                     (x * y * z, y * z * w, x ** 2 * w)]:
            ideal = Ideal(ring_p, gens)
            table = betti_of(ideal)
            assert table.entries == betti_by_strand_homology(ideal)

    def test_rational_field_resolution(self, ring_q):
        x, y, z, w = ring_q.variables()
        ideal = Ideal(ring_q, (x * y, x * z, y * z))
        assert betti_of(ideal).totals() == [1, 3, 2]


class TestBettiLayout:
    def test_fixed_width_layout(self, ring_p):
        x, y, z, w = ring_p.variables()
        table = betti_of(Ideal(ring_p, (x, y, z, w)))
        text = betti_text(table)
        lines = text.splitlines()
        assert lines[0] == "        0    1    2    3    4"
        assert lines[1] == "-" * 30
        assert lines[2] == " 0:     1    4    6    4    1"
        assert lines[-1] == "Tot:    1    4    6    4    1"

    def test_two_digit_rows(self, ring_p):
        x, y = ring_p.variable(0), ring_p.variable(1)
        f = (x ** 6) * (y ** 6)
        table = betti_of(Ideal(ring_p, (f,)))
        text = betti_text(table)
        assert "11:     -    1" in text

    def test_json_round_trip(self, ring_p):
        import json
        x, y, z, w = ring_p.variables()
        table = betti_of(Ideal(ring_p, (x, y)))
        payload = betti_json(table)
        again = json.loads(json.dumps(payload))
        assert again["total"] == [1, 2, 1]
        assert again["rows"][0] == {"degree": 0, "betti": [1, 2, 1]}

    def test_entry_accessors(self, ring_p):
        x, y, z, w = ring_p.variables()
        table = betti_of(Ideal(ring_p, (x, y)))
        assert table.entry(0, 0) == 1
        assert table.entry(1, 0) == 2
        assert table.entry(2, 0) == 1
        assert table.entry(3, 0) == 0


class TestHilbert:
    def test_zero_ideal(self, ring_p):
        h = hilbert(Ideal(ring_p, ()))
        assert h.dimension == 4
        # binomial(t+3, 3)
        assert h.hp_coeffs == (Fraction(1), Fraction(11, 6), Fraction(1),
                               Fraction(1, 6))
        for d in range(6):
            assert h.hilbert_function(d) == (d + 1) * (d + 2) * (d + 3) // 6

    def test_line(self, ring_p):
        x, y = ring_p.variable(0), ring_p.variable(1)
        h = hilbert(Ideal(ring_p, (x, y)))
        assert h.hp_string() == "t + 1"
        assert h.degree() == 1

    def test_hp_string_forms(self, ring_p):
        x, y, z, w = ring_p.variables()
        assert hilbert(Ideal(ring_p, (x, y, z))).hp_string() == "1"
        two_lines = intersect(Ideal(ring_p, (x, y)), Ideal(ring_p, (z, w)))
        assert hilbert(two_lines).hp_string() == "2t + 2"

    def test_function_matches_standard_monomials(self, ring_p):
        x, y, z, w = ring_p.variables()
        for gens in [(x * y - z * z, w * x), (x * x, y * y, z * z),
                     ((x + y + z) * w,)]:
            ideal = Ideal(ring_p, gens)
            h = hilbert(ideal)
            for d in range(7):
                assert h.hilbert_function(d) == standard_monomial_count(ideal, d)

    def test_regularity_index(self, ring_p):
        x, y, z, w = ring_p.variables()
        h = hilbert(Ideal(ring_p, (x, y)))
        assert h.regularity_index == 0
        hm2 = hilbert(power_of_variables(ring_p, 2))
        # function 1, 4, 0, 0...; polynomial 0
        assert hm2.regularity_index == 2

    def test_degree_of_thick_point(self, ring_p):
        x, y, z, w = ring_p.variables()
        h = hilbert(Ideal(ring_p, (x * x, x * y, x * z, y * y, y * z, z * z)))
        assert h.dimension == 1
        assert h.degree() == 4


class TestDimensions:
    def test_line(self, ring_p):
        x, y = ring_p.variable(0), ring_p.variable(1)
        assert dimensions(Ideal(ring_p, (x, y))) == (2, 2, 2)

    def test_maximal_ideal(self, ring_p):
        x, y, z, w = ring_p.variables()
        assert dimensions(Ideal(ring_p, (x, y, z, w))) == (0, 4, 4)

    def test_is_cm(self, ring_p):
        x, y, z, w = ring_p.variables()
        assert is_cm(Ideal(ring_p, (x, y)))
        assert is_cm(Ideal(ring_p, (x * x, y)))
        # two skew lines: not ACM
        skew = intersect(Ideal(ring_p, (x, y)), Ideal(ring_p, (z, w)))
        assert not is_cm(skew)


class TestRaoDimensions:
    def test_acm_is_empty(self, ring_p):
        x, y = ring_p.variable(0), ring_p.variable(1)
        assert rao_dimensions(Ideal(ring_p, (x, y))) == {}

    def test_two_skew_lines(self, ring_p):
        x, y, z, w = ring_p.variables()
        skew = intersect(Ideal(ring_p, (x, y)), Ideal(ring_p, (z, w)))
        assert rao_dimensions(skew) == {0: 1}

    def test_shifted_skew_lines(self, ring_p):
        x, y, z, w = ring_p.variables()
        skew = intersect(Ideal(ring_p, (x, y)), Ideal(ring_p, (z, w)))
        # basic double link by a quadric shifts the table by 2
        from singlocus.liaison import basic_double_link
        f1 = x * z
        out = basic_double_link(skew, f1, y * y - z * w)
        assert rao_dimensions(out) == {2: 1}

    def test_wrong_codimension_rejected(self, ring_p):
        x, y, z, w = ring_p.variables()
        with pytest.raises(ValidationError):
            rao_dimensions(Ideal(ring_p, (x,)))

    def test_unsaturated_rejected(self, ring_p):
        x, y, z, w = ring_p.variables()
        unsat = intersect(Ideal(ring_p, (x, y)), power_of_variables(ring_p, 2))
        with pytest.raises(ValidationError):
            rao_dimensions(unsat)

    def test_mixed_ideal_rejected(self):
        """J of four planes through a point is saturated, but its Hilbert
        polynomial 6t - 1 exceeds the 6t - 2 of its top part: Ext^3 has
        infinite length.  The same holds for six more corpus J."""
        for name in ("four_planes_point", "five_planes_point", "eight_planes",
                     "eleven_planes", "radical_block", "same_lattice_a",
                     "same_lattice_b"):
            J = jacobian_ideal(load_arrangement(name))
            with pytest.raises(ValidationError, match="not unmixed"):
                rao_dimensions(J)

    @pytest.mark.parametrize("ring_name", ["ring_p", "ring_q"])
    def test_product_criterion_does_not_hold_for_vectors(self, ring_name,
                                                         request):
        """x*e0 + z*e1 and y*e0 + w*e1 lead with the coprime x*e0 and y*e0,
        yet their S-vector y*z*e1 - x*w*e1 is a new leading term."""
        ring = request.getfixturevalue(ring_name)
        x, y, z, w = ring.variables()
        engine = _Engine(ring)
        shift = WIDTH * ring.nvars
        vectors = [_module_vector([(0, x), (1, z)], engine.key, shift),
                   _module_vector([(0, y), (1, w)], engine.key, shift)]
        leads = _module_leads(vectors, [1, 1], engine)
        assert [(lead >> shift, _unpack_plain(lead, 4)) for lead in leads] == [
            (0, (1, 0, 0, 0)), (0, (0, 1, 0, 0)), (1, (0, 1, 1, 0))]

    def test_against_ext_homology(self, ring_p, ring_q):
        for ring in (ring_p, ring_q):
            x, y, z, w = ring.variables()
            skew = intersect(Ideal(ring, (x, y)), Ideal(ring, (z, w)))
            assert (rao_dimensions(skew) == rao_by_degree_scan(skew)
                    == deficiency_by_ext(skew) == {0: 1})
            three = intersect_many([Ideal(ring, (x, y)), Ideal(ring, (z, w)),
                                    Ideal(ring, (x - z, y - w))])
            assert (rao_dimensions(three) == rao_by_degree_scan(three)
                    == deficiency_by_ext(three) == {1: 2, 0: 2})

    @pytest.mark.parametrize("field", ["p", "q"])
    @pytest.mark.parametrize("name", ["top_block", "radical_block",
                                      "nine_planes", "eleven_planes"])
    def test_corpus_against_oracles(self, name, field):
        arr = load_arrangement(name, field=QQ if field == "q" else None)
        for ideal in (top_comb(arr), radical_comb(arr)):
            assert (rao_dimensions(ideal) == rao_by_degree_scan(ideal)
                    == deficiency_by_ext(ideal))

    @pytest.mark.parametrize("build,field,want", [
        (lambda f: construct_lr(1, h=1, seed=7, field=f), None, {9: 1}),
        (lambda f: construct_lr(1, h=1, seed=7, field=f), QQ, {9: 1}),
        (lambda f: construct_lr(2, seed=7, field=f), None, {17: 2}),
        (lambda f: construct_lr_radical(2, seed=7, field=f), None, {12: 2}),
    ], ids=["lr1_h1_p", "lr1_h1_q", "lr2_p", "lr_radical2_p"])
    def test_constructions_against_oracles(self, build, field, want):
        """The C9 curves and the liaison benchmark's radical curve; the
        r = 2 curve of C9 takes over a minute to resolve over Q, so it runs
        over F_32003 only."""
        ideal = build(field).ideal
        assert (rao_dimensions(ideal) == rao_by_degree_scan(ideal)
                == deficiency_by_ext(ideal) == want)

    def test_building_block_against_ext(self):
        top9 = top_comb(load_arrangement("top_block"))
        assert rao_dimensions(top9) == deficiency_by_ext(top9) == {8: 1}


class TestBettiHilbertConsistency:
    def check(self, ideal):
        table = betti_of(ideal)
        h = hilbert(ideal)
        # sum_i (-1)^i beta_{i,d} t^d equals the series numerator
        acc = {}
        for (i, j), v in table.entries.items():
            d = i + j
            acc[d] = acc.get(d, 0) + (-1) ** i * v
        top = max(max(acc, default=0), len(h.numerator) - 1)
        for d in range(top + 1):
            want = h.numerator[d] if d < len(h.numerator) else 0
            assert acc.get(d, 0) == want

    def test_on_sample_ideals(self, ring_p):
        x, y, z, w = ring_p.variables()
        for gens in [(x, y), (x * y, x * z, y * z),
                     (x * x - y * z, z * w, y * w - x * x),
                     (x * y * w, (x + z) ** 2 * y,)]:
            self.check(Ideal(ring_p, gens))

    def test_on_arrangement_ideals(self):
        from singlocus.arrangement import jacobian_ideal, radical_comb, top_comb
        from singlocus.corpus import load_arrangement
        arr = load_arrangement("seven_planes")
        for ideal in (jacobian_ideal(arr), radical_comb(arr), top_comb(arr)):
            self.check(ideal)


class TestCoordinateChangeInvariance:
    def test_betti_invariant_under_linear_change(self, ring_p):
        import random
        from singlocus.arrangement import (apply_coordinate_change,
                                           random_coordinate_change, top_comb)
        from singlocus.corpus import load_arrangement
        arr = load_arrangement("star_pencil")
        rng = random.Random(5)
        matrix = random_coordinate_change(rng)
        moved = apply_coordinate_change(arr, matrix)
        assert betti_of(top_comb(arr)).entries == \
            betti_of(top_comb(moved)).entries


def _random_arrangement(seed, field):
    """Five to eight seeded pairwise independent planes, some sharing flats."""
    import random
    rng = random.Random(f"schreyer:{seed}")
    ring = PolyRing(("x", "y", "z", "w"), field)
    size = rng.randint(5, 8)
    rows = []
    while len(rows) < size:
        if len(rows) >= 2 and rng.random() < 0.45:
            i, j = rng.sample(range(len(rows)), 2)
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            cand = [a * u + b * v for u, v in zip(rows[i], rows[j])]
        else:
            cand = [rng.randint(-3, 3) for _ in range(4)]
        cand = [field.from_int(c) for c in cand]
        if any(cand) and all(linalg.rank([r, cand], field) == 2 for r in rows):
            rows.append(cand)
    return Arrangement(ring, [ring.linear_form(r) for r in rows])


class TestSchreyerStepOracle:
    """The Schreyer step selects its pairs and reduces on the Buchberger
    kernel; the raw resolution must match the tuple step it replaced,
    map entry for map entry and in the same order."""

    @staticmethod
    def _check(arr):
        for ideal in (jacobian_ideal(arr), top_comb(arr), radical_comb(arr)):
            twists, maps = _schreyer_resolution(ideal)
            want_twists, want_maps = schreyer_resolution_by_tuples(ideal)
            assert twists == want_twists
            assert [list(m.items()) for m in maps] == \
                [list(m.items()) for m in want_maps]

    @pytest.mark.parametrize("name", [
        n for n in arrangement_names()
        if n not in ("thirty_one_planes", "fifteen_planes")] + ["sweep_six"])
    def test_corpus(self, name):
        self._check(_arrangement(name))

    @pytest.mark.parametrize("field,seeds", [(GF(32003), range(10)),
                                             (QQ, range(3))], ids=["p", "q"])
    def test_random_arrangements(self, field, seeds):
        for seed in seeds:
            arr = _random_arrangement(seed, field)
            assert 5 <= arr.d <= 8
            self._check(arr)

    def test_equal_words_in_two_components(self, ring_p):
        x, y, z, w = ring_p.variables()
        zero = ring_p.zero()
        assert schreyer_syzygies([[x, zero], [zero, x]]) == []
        # S(v0, v1) = (0, -x*z) reduces by z*v2 alone; x*e_0 divides x*z
        # word for word but lives in the other component
        gens = [[x, zero], [y, z], [zero, x]]
        assert schreyer_syzygies(gens) == [[y, -x, z]]


class TestSchreyerOrder:
    @pytest.mark.parametrize("name", ["eleven_planes", "sweep_six"])
    def test_jacobian_resolves_within_the_bound(self, name):
        J = jacobian_ideal(_arrangement(name))
        _, raw_maps = _schreyer_resolution(J)
        assert len(raw_maps) <= 4
        assert betti_of(J).entries == betti_by_strand_homology(J)


class TestSaturationFromResolution:
    @pytest.mark.parametrize("name", ["four_planes_point", "seven_planes",
                                      "eight_planes", "free_not_cm",
                                      "sweep_six"])
    def test_against_saturate_irrelevant(self, name):
        arr = _arrangement(name)
        J = jacobian_ideal(arr)
        top = top_comb(arr)
        sat = saturate_irrelevant(J)
        assert is_saturated(J) == sat.equals(J)
        assert is_saturated(top) == saturate_irrelevant(top).equals(top)
        # J <= J^sat <= top with both saturated: unmixed iff equal HPs
        assert (hilbert(J).hp_coeffs == hilbert(top).hp_coeffs) == \
            sat.equals(top)

    def test_unit_and_maximal_ideals(self, ring_p):
        m = Ideal(ring_p, ring_p.variables())
        assert is_saturated(Ideal(ring_p, (ring_p.one(),)))
        assert not is_saturated(m)
        assert not is_saturated(power_of_variables(ring_p, 2))
