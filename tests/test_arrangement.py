"""Arrangement layer: lattices, singular-locus ideals, graphs, sections."""

import random

import pytest

from singlocus.arrangement import (Arrangement, Graph, apply_coordinate_change,
                                   combinatorial_degrees, generic_section,
                                   graphic_arrangement, hypothesis_check,
                                   intersection_flats, jacobian_ideal,
                                   lattice_isomorphic, parse_arrangement,
                                   parse_graph, pencil_component, radical_comb,
                                   random_coordinate_change,
                                   random_linear_form, rule_powers,
                                   standard_ring, symbolic_intersection,
                                   top_comb, triangle_condition,
                                   uniform_powers)
from conftest import (CORPUS_DIR, intersect_many_by_ideals,
                      radical_by_flat_primes)
from singlocus import arrangement, linalg
from singlocus.corpus import arrangement_names, load_arrangement, load_graph
from singlocus.errors import ParseError, ValidationError
from singlocus.groebner import Ideal, radical_membership
from singlocus.homology import hilbert, is_cm
from singlocus.polyring import DEFAULT_PRIME, GF, QQ, PolyRing


class TestParsing:
    def test_minimal_file(self):
        arr = parse_arrangement("vars: x y z w\nx\ny\n")
        assert arr.d == 2 and arr.ring.names == ("x", "y", "z", "w")

    def test_comments_and_blanks(self):
        arr = parse_arrangement("# head\n\nvars: x y\n x \n# mid\ny # tail\n")
        assert arr.d == 2

    def test_duplicate_up_to_scale_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_arrangement("vars: x y z w\nx\n2x\n")
        assert "line 2" in str(err.value)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_arrangement("x\ny\n")

    def test_too_many_variables(self):
        with pytest.raises(ParseError):
            parse_arrangement("vars: a b c d e f g h i\na\nb\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_arrangement("vars: x y\nx\nx + 3\n")
        assert "line 3" in str(err.value)

    def test_corpus_files_match_loader(self):
        arr = parse_arrangement((CORPUS_DIR / "fifteen_planes.arr").read_text())
        assert arr.d == 15
        assert arr.forms == load_arrangement("fifteen_planes").forms

    def test_graph_parsing(self):
        g = parse_graph("vertices: 3\nedge: 1 2\nedge: 2 3\n")
        assert g.vertices == 3 and len(g.edges) == 2
        with pytest.raises(ParseError):
            parse_graph("vertices: 2\nedge: 1 1\n")
        with pytest.raises(ParseError):
            parse_graph("edge: 1 2\n")


class TestFlats:
    def test_fifteen_plane_lattice(self):
        arr = load_arrangement("fifteen_planes")
        assert dict(arr.flat_multiset()) == {3: 25, 2: 30}

    def test_generic_four(self):
        arr = load_arrangement("star_four")
        flats = arr.flats()
        assert len(flats) == 6 and all(f.multiplicity == 2 for f in flats)

    def test_pencil(self):
        arr = load_arrangement("pencil_three")
        flats = arr.flats()
        assert len(flats) == 1 and flats[0].multiplicity == 3
        b1, b2 = flats[0].basis_forms(arr.ring)
        assert {str(b1), str(b2)} == {"x", "y"}

    def test_pair_counting_identity(self):
        # asserted internally; exercise it across the corpus
        for name in ("seven_planes", "eight_planes", "free_not_cm",
                     "same_lattice_a", "eleven_planes"):
            arr = load_arrangement(name)
            total = sum(f.multiplicity * (f.multiplicity - 1) // 2
                        for f in arr.flats())
            assert total == arr.d * (arr.d - 1) // 2

    def test_flats_over_rationals_match(self):
        for name in ("seven_planes", "nine_planes"):
            a = load_arrangement(name)
            b = load_arrangement(name, field=QQ)
            assert sorted(f.members for f in a.flats()) == \
                sorted(f.members for f in b.flats())


class TestJacobian:
    def test_two_planes(self):
        ring = standard_ring()
        x, y = ring.variable(0), ring.variable(1)
        arr = Arrangement(ring, (x, y))
        assert jacobian_ideal(arr).equals(Ideal(ring, (x, y)))

    def test_three_planes(self):
        ring = standard_ring()
        x, y, z = (ring.variable(i) for i in range(3))
        arr = Arrangement(ring, (x, y, z))
        want = Ideal(ring, (y * z, x * z, x * y))
        assert jacobian_ideal(arr).equals(want)

    def test_height_two(self):
        arr = load_arrangement("seven_planes")
        h = hilbert(jacobian_ideal(arr))
        assert arr.ring.nvars - h.dimension == 2


class TestRadicalComb:
    def test_three_coordinate_planes(self):
        ring = standard_ring()
        x, y, z = (ring.variable(i) for i in range(3))
        arr = Arrangement(ring, (x, y, z))
        want = Ideal(ring, (x * y, x * z, y * z))
        assert radical_comb(arr).equals(want)

    def test_single_flat(self):
        ring = standard_ring()
        x, y = ring.variable(0), ring.variable(1)
        arr = Arrangement(ring, (x, y))
        assert radical_comb(arr).equals(Ideal(ring, (x, y)))

    def test_radical_certificate(self):
        # J inside radical, and every radical generator is in sqrt(J)
        arr = load_arrangement("star_pencil")
        J = jacobian_ideal(arr)
        rad = radical_comb(arr)
        gbr = rad.groebner()
        assert all(gbr.contains(g) for g in J.gens)
        assert all(radical_membership(g, J) for g in rad.groebner().polys)


def _random_arrangement(rng, field, nvars, planes):
    """Seeded pairwise independent forms, half of them on an earlier flat."""
    ring = PolyRing(("x", "y", "z", "w", "v", "u")[:nvars], field)
    rows = []
    while len(rows) < planes:
        if len(rows) >= 2 and rng.random() < 0.5:
            i, j = rng.sample(range(len(rows)), 2)
            a, b = rng.randint(1, 3), rng.choice((-2, -1, 1, 2))
            cand = [a * u + b * v for u, v in zip(rows[i], rows[j])]
        else:
            cand = [rng.randint(-3, 3) for _ in range(nvars)]
        cand = [field.from_int(c) for c in cand]
        if all(field.is_zero(c) for c in cand) or any(
                linalg.rank([r, cand], field) < 2 for r in rows):
            continue
        rows.append(cand)
    return Arrangement(ring, [ring.linear_form(r) for r in rows])


class TestRadicalByPlanes:
    """`radical_comb` intersects per-plane complete intersections; the
    flat-by-flat intersection of the flat primes is its oracle."""

    @pytest.mark.parametrize("name", [n for n in arrangement_names()
                                      if n != "thirty_one_planes"])
    def test_corpus(self, name):
        arr = load_arrangement(name)
        assert radical_comb(arr).gens == radical_by_flat_primes(arr).gens

    @pytest.mark.parametrize("field", [GF(32003), QQ], ids=["p", "q"])
    def test_random_arrangements(self, field):
        rng = random.Random(f"radical by planes {field}")
        seen_vars = set()
        for _ in range(12):
            nvars = rng.randint(3, 6)
            arr = _random_arrangement(rng, field, nvars,
                                      rng.randint(3, 7 if nvars < 5 else 6))
            seen_vars.add(nvars)
            assert radical_comb(arr).gens == radical_by_flat_primes(arr).gens
        assert max(seen_vars) >= 5

    @pytest.mark.parametrize("field", [GF(32003), QQ], ids=["p", "q"])
    def test_one_group_pencils(self, field):
        """Planes through one line form one group: the flat prime comes
        back with the same generators."""
        rng = random.Random(f"pencil {field}")
        for nvars in (3, 4, 5):
            ring = PolyRing(("x", "y", "z", "w", "v")[:nvars], field)
            u, v = (random_linear_form(ring, rng) for _ in range(2))
            slopes = rng.sample(range(-5, 6), rng.randint(1, 4))
            arr = Arrangement(ring, [u, v] + [u + s * v for s in slopes if s])
            (flat,) = arr.flats()
            got = radical_comb(arr)
            assert got.gens == flat.prime(ring).gens
            assert got.gens == radical_by_flat_primes(arr).gens


class TestIntersectionTree:
    """`intersect_many` folds on internal bases and orients each pair by
    degree; the Ideal-by-Ideal tree with the first input always in the
    t-block is its oracle."""

    @pytest.mark.parametrize("name", [n for n in arrangement_names()
                                      if n != "thirty_one_planes"])
    def test_corpus(self, name, monkeypatch):
        arr = load_arrangement(name)
        builds = (top_comb, radical_comb,
                  lambda a: symbolic_intersection(a, rule_powers(a, 2)))
        got = [build(arr) for build in builds]
        monkeypatch.setattr(arrangement, "intersect_many",
                            intersect_many_by_ideals)
        for ideal, build in zip(got, builds):
            want = build(arr)
            assert ideal.gens == want.gens
            assert ideal.groebner()._polys == want.groebner()._polys


class TestTopComb:
    def test_pencil_jacobian_exact(self):
        ring = standard_ring()
        x, y = ring.variable(0), ring.variable(1)
        arr = Arrangement(ring, (x, y, x + y))
        top = top_comb(arr)
        want = Ideal(ring, (2 * x * y + y * y, x * x + 2 * x * y))
        assert top.equals(want)
        assert hilbert(top).degree() == 4

    def test_star_equals_radical(self):
        arr = load_arrangement("star_four")
        assert top_comb(arr).equals(radical_comb(arr))

    def test_containment_chain(self):
        arr = load_arrangement("eight_planes")
        J = jacobian_ideal(arr)
        top = top_comb(arr)
        rad = radical_comb(arr)
        gb_top, gb_rad = top.groebner(), rad.groebner()
        assert all(gb_top.contains(g) for g in J.gens)
        assert all(gb_rad.contains(g) for g in top.gens)

    def test_degree_consistency(self):
        from singlocus.groebner import saturate_irrelevant
        arr = load_arrangement("seven_planes")
        deg_red, deg_top = combinatorial_degrees(arr)
        assert hilbert(radical_comb(arr)).degree() == deg_red
        assert hilbert(top_comb(arr)).degree() == deg_top
        sat = saturate_irrelevant(jacobian_ideal(arr))
        assert hilbert(sat).degree() == deg_top

    def test_basis_independence(self):
        # replacing a flat's echelon basis by a random recombination
        # does not change the pencil component
        ring = standard_ring()
        rng = random.Random(17)
        arr = load_arrangement("pencil_three")
        flat = arr.flats()[0]
        original = pencil_component(flat, ring, arr.coefficient_rows())
        field = ring.field
        for _ in range(4):
            while True:
                a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
                if (a * d - b * c) % 32003:
                    break
            r1 = [field.add(field.mul(field.from_int(a), u),
                            field.mul(field.from_int(b), v))
                  for u, v in zip(flat.basis[0], flat.basis[1])]
            r2 = [field.add(field.mul(field.from_int(c), u),
                            field.mul(field.from_int(d), v))
                  for u, v in zip(flat.basis[0], flat.basis[1])]
            from singlocus.arrangement import Flat
            moved = Flat((tuple(r1), tuple(r2)), flat.members)
            recomputed = pencil_component(moved, ring, arr.coefficient_rows())
            assert original.equals(recomputed)


class TestSymbolicIntersection:
    def test_all_ones_is_radical(self):
        arr = load_arrangement("star_pencil")
        got = symbolic_intersection(arr, uniform_powers(arr, 1))
        assert got.equals(radical_comb(arr))

    def test_rule_violation_rejected(self):
        arr = load_arrangement("star_four")  # all flats have multiplicity 2
        with pytest.raises(ValidationError):
            symbolic_intersection(arr, uniform_powers(arr, 2))

    def test_override_allows_symbolic_square(self):
        arr = load_arrangement("star_four")
        got = symbolic_intersection(arr, uniform_powers(arr, 2), override=True)
        # contained in every squared prime
        for f in arr.flats():
            gbp = f.prime_power(arr.ring, 2).groebner()
            assert all(gbp.contains(g) for g in got.gens)

    def test_missing_flat_rejected(self):
        arr = load_arrangement("star_four")
        powers = uniform_powers(arr, 1)
        powers.pop(next(iter(powers)))
        with pytest.raises(ValidationError):
            symbolic_intersection(arr, powers)

    @pytest.mark.parametrize("override", [False, True])
    def test_negative_exponent_rejected(self, override):
        arr = load_arrangement("nine_planes")
        with pytest.raises(ValidationError, match="negative exponent"):
            symbolic_intersection(arr, uniform_powers(arr, -1),
                                  override=override)
        # -2 on the triple flats only, the doubles keeping their rule exponent
        with pytest.raises(ValidationError, match="negative exponent"):
            symbolic_intersection(arr, rule_powers(arr, -2), override=override)

    def test_zero_exponent_contributes_unit(self):
        arr = load_arrangement("pencil_three")
        powers = {arr.flats()[0]: 0}
        got = symbolic_intersection(arr, powers, override=True)
        assert got.is_unit()


class TestHypothesis:
    def test_fifteen_planes_fails(self):
        holds, witnesses = hypothesis_check(load_arrangement("fifteen_planes"))
        assert not holds and witnesses

    def test_seven_planes_witness(self):
        holds, witnesses = hypothesis_check(load_arrangement("seven_planes"))
        assert not holds
        # plane x (index 0) shared by the non-reduced flats (x,y),(x,z),(x,w)
        assert all(w[0] == 0 for w in witnesses)
        assert len(witnesses) == 3

    def test_single_nonreduced_flat_holds(self):
        holds, witnesses = hypothesis_check(load_arrangement("star_pencil"))
        assert holds and not witnesses


class TestGraphic:
    def test_triangle_graph(self):
        g = load_graph("triangle")
        arr = graphic_arrangement(g)
        assert arr.d == 3
        flats = arr.flats()
        assert len(flats) == 1 and flats[0].multiplicity == 3

    def test_octahedron_has_twelve_forms(self):
        arr = graphic_arrangement(load_graph("octahedron"))
        assert arr.d == 12 and arr.ring.nvars == 6

    def test_four_cycle_all_double(self):
        arr = graphic_arrangement(load_graph("square"))
        assert all(f.multiplicity == 2 for f in arr.flats())

    def test_single_edge_rejected(self):
        with pytest.raises(ValidationError):
            graphic_arrangement(Graph(2, [(1, 2)]))


class TestTriangleCondition:
    def test_bipartite_true(self):
        holds, _ = triangle_condition(load_graph("square"))
        assert holds

    def test_octahedron_false(self):
        holds, witnesses = triangle_condition(load_graph("octahedron"))
        assert not holds and witnesses

    def test_single_triangle_true(self):
        holds, _ = triangle_condition(load_graph("triangle"))
        assert holds

    def test_triangle_enumeration(self):
        assert load_graph("octahedron").triangles() == [
            (1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 4, 5),
            (2, 3, 6), (2, 5, 6), (3, 4, 6), (4, 5, 6)]

    def test_condition_matches_hypothesis_after_section(self):
        g = load_graph("square")
        arr = generic_section(graphic_arrangement(g), seed=3)
        holds, _ = hypothesis_check(arr)
        assert holds


class TestGenericSection:
    def test_identity_in_four_vars(self):
        arr = load_arrangement("star_four")
        assert generic_section(arr, seed=1) is arr

    def test_five_coordinate_hyperplanes(self):
        ring5 = PolyRing(("a", "b", "c", "d", "e"), GF(32003))
        arr = Arrangement(ring5, [ring5.variable(i) for i in range(5)])
        cut = generic_section(arr, seed=2)
        assert cut.ring.nvars == 4
        flats = cut.flats()
        assert len(flats) == 10 and all(f.multiplicity == 2 for f in flats)

    def test_graphic_five_vertices_preserves_flats(self):
        g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)])
        arr = graphic_arrangement(g)
        cut = generic_section(arr, seed=4)
        assert cut.membership_family() == arr.membership_family()
        assert cut.flat_multiset() == arr.flat_multiset()


class TestLatticeIsomorphism:
    def test_known_equal_lattice_pair(self):
        a = load_arrangement("same_lattice_a")
        b = load_arrangement("same_lattice_b")
        assert lattice_isomorphic(a, b)

    def test_relabeled_self(self):
        arr = load_arrangement("nine_planes")
        moved = Arrangement(arr.ring, tuple(reversed(arr.forms)))
        assert lattice_isomorphic(arr, moved)

    def test_different_flat_counts(self):
        generic = load_arrangement("star_four")
        ring = standard_ring()
        x, y, z, w = ring.variables()
        pencil = Arrangement(ring, (x, y, x + y, w))
        assert not lattice_isomorphic(generic, pencil)


class TestCoordinateChanges:
    def test_apply_preserves_lattice(self):
        arr = load_arrangement("nine_planes")
        rng = random.Random(23)
        moved = apply_coordinate_change(arr, random_coordinate_change(rng))
        assert arr.flat_multiset() == moved.flat_multiset()
        assert lattice_isomorphic(arr, moved)

    @staticmethod
    def _by_determinant(rng, size, bound):
        """The draw loop with its determinant taken by Fraction elimination."""
        from fractions import Fraction
        while True:
            M = [[rng.randint(-bound, bound) for _ in range(size)]
                 for _ in range(size)]
            mm = [[Fraction(c) for c in row] for row in M]
            det = Fraction(1)
            for c in range(size):
                piv = next((r for r in range(c, size) if mm[r][c]), None)
                if piv is None:
                    det = Fraction(0)
                    break
                mm[c], mm[piv] = mm[piv], mm[c]
                det *= mm[c][c] * (-1 if piv != c else 1)
                for r in range(c + 1, size):
                    f = mm[r][c] / mm[c][c]
                    mm[r] = [x - f * y for x, y in zip(mm[r], mm[c])]
            if det.numerator % DEFAULT_PRIME:
                return M

    @pytest.mark.parametrize("size,bound", [(4, 9), (4, 1), (3, 2)])
    def test_same_draws_as_the_determinant_rule(self, size, bound):
        for seed in range(40):
            rng, oracle = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert random_coordinate_change(rng, size, bound) == \
                    self._by_determinant(oracle, size, bound)

    def test_prime_safety_check(self):
        small = GF(5)
        ring = PolyRing(("x", "y", "z", "w"), small)
        x, y, z, w = ring.variables()
        arr = Arrangement(ring, (x, y, z, w, x + y, x - y))
        with pytest.raises(ValidationError):
            jacobian_ideal(arr)
