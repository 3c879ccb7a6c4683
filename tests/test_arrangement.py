"""Arrangement layer: lattices, singular-locus ideals, graphs, sections."""

import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from singlocus.arrangement import (Arrangement, Flat, Graph,
                                   apply_coordinate_change,
                                   combinatorial_degrees, generic_section,
                                   graphic_arrangement, hypothesis_check,
                                   jacobian_ideal, lattice_isomorphic,
                                   parse_arrangement, parse_graph,
                                   pencil_component, radical_comb,
                                   random_coordinate_change,
                                   random_linear_form, rule_powers,
                                   standard_ring, symbolic_intersection,
                                   top_comb, triangle_condition,
                                   uniform_powers)
from conftest import (CORPUS_DIR, LARGEST_PRIME, flats_by_rank_by_all_planes,
                      intersect_many_by_ideals, intersection_flats_by_pairs,
                      pencil_component_by_pencil_ring, radical_by_flat_primes,
                      radical_membership, sweep_texts,
                      symbolic_by_flat_powers, top_by_flats, tree_top)
from singlocus import arrangement, groebner, linalg
from singlocus.corpus import (arrangement_names, load_arrangement, load_graph,
                              run_regressions)
from singlocus.errors import ParseError, ValidationError
from singlocus.groebner import Ideal, intersect_many
from singlocus.homology import hilbert
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

    def test_non_adjacent_duplicate_over_q_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_arrangement("vars: x y z w\nx + 2*y\nz\nw\n-3*x - 6*y\n",
                              QQ)
        assert str(err.value) == "line 5: form duplicates line 2 up to scale"

    def test_dependent_forms_rejected_by_arrangement(self):
        ring = standard_ring(QQ)
        x, y, z, w = ring.variables()
        with pytest.raises(ValidationError, match="forms 2 and 4"):
            Arrangement(ring, (x, y - z, w, 2 * z - 2 * y))
        assert Arrangement(ring, (x, y - z, w, y + z)).d == 4

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_arrangement("x\ny\n")

    def test_any_width(self):
        """The parser reads a file of any width; only the CLI commands
        that build an ideal refuse wide files."""
        names = [f"x{i}" for i in range(1, 21)]
        text = f"vars: {' '.join(names)}\n" + "".join(
            f"{a} - {b}\n" for a, b in zip(names, names[1:]))
        arr = parse_arrangement(text)
        assert arr.nvars == 20 and arr.d == 19

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_arrangement("vars: x y\nx\nx + 3\n")
        assert "line 3" in str(err.value)

    def test_corpus_files_match_loader(self):
        arr = parse_arrangement((CORPUS_DIR / "fifteen_planes.arr").read_text())
        assert arr.d == 15
        assert arr.forms == load_arrangement("fifteen_planes").forms

    def test_unknown_corpus_names_are_refused(self):
        with pytest.raises(ValidationError, match="unknown corpus arrangement"):
            load_arrangement("nope")
        with pytest.raises(ValidationError, match="unknown corpus entry"):
            run_regressions(names=["nope"])

    def test_graph_parsing(self):
        g = parse_graph("vertices: 3\nedge: 1 2\nedge: 2 3\n")
        assert g.vertices == 3 and len(g.edges) == 2
        with pytest.raises(ParseError):
            parse_graph("vertices: 2\nedge: 1 1\n")
        with pytest.raises(ParseError):
            parse_graph("edge: 1 2\n")

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ParseError, match="^line 1: negative vertex count"):
            parse_graph("vertices: -3\n")
        assert parse_graph("vertices: 0\n").vertices == 0

    def test_form_vanishing_mod_p_names_its_line(self):
        with pytest.raises(ParseError) as err:
            parse_arrangement("vars: x y z\nx\n7y\ny\n", GF(7))
        assert str(err.value) == "line 3: '7y' is the zero form"
        assert parse_arrangement("vars: x y z\nx\n7y\n", QQ).d == 2

    @pytest.mark.parametrize("text, field, message", [
        ("vars: x y z\nx\ny\n2y\n-x\n", QQ,
         "line 4: form duplicates line 3 up to scale"),
        ("# head\nvars: x y z\n\nx + y\nz  # tail\n\n3z\n2x + 2y\n", QQ,
         "line 7: form duplicates line 5 up to scale"),
        ("vars: x y\nx\ny\n-y\n2y\n", QQ,
         "line 4: form duplicates line 3 up to scale"),
        ("vars: x y z\nx\ny\nz\n-z\n-y\n", GF(32003),
         "line 5: form duplicates line 4 up to scale"),
        ("vars: x y z\nx + y\nz\n8x + y\n", GF(7),
         "line 4: form duplicates line 2 up to scale"),
    ], ids=["pairs", "comments", "triple", "later-group", "mod-7"])
    def test_dependent_pair_lines(self, text, field, message):
        """The smallest later duplicate is reported, with the first
        occurrence of its plane."""
        with pytest.raises(ParseError) as err:
            parse_arrangement(text, field)
        assert str(err.value) == message


class TestFlats:
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


def _lattice_by_subsets(rows, field):
    """{rank: sorted member tuples} and {basis: members} of the span of
    every nonempty set of planes, grouped by reduced echelon basis."""
    spans = {}
    for k in range(1, len(rows) + 1):
        for subset in itertools.combinations(range(len(rows)), k):
            ech, _ = linalg.rref([rows[i] for i in subset], field)
            spans.setdefault(tuple(map(tuple, ech)), set()).update(subset)
    ranks = {}
    for basis, members in spans.items():
        ranks.setdefault(len(basis), []).append(tuple(sorted(members)))
    return {r: tuple(sorted(m)) for r, m in ranks.items()}, spans


class TestSpanStep:
    """`intersection_flats` and `_flats_by_rank` climb the lattice with one
    span step, `_span_up`, that spans each flat only with the planes after
    its last member."""

    @pytest.mark.parametrize("field", [GF(DEFAULT_PRIME), GF(37), QQ],
                             ids=["p", "p37", "q"])
    def test_corpus_matches_the_oracles(self, field):
        for name in arrangement_names():
            arr = load_arrangement(name, field=field)
            got = [(f.basis, f.members) for f in arr.flats()]
            want = [(f.basis, f.members)
                    for f in intersection_flats_by_pairs(arr)]
            assert got == want, name
            assert list(arrangement._flats_by_rank(arr)) == \
                flats_by_rank_by_all_planes(arr), name

    @pytest.mark.parametrize("field", [GF(DEFAULT_PRIME), GF(7), QQ],
                             ids=["p", "p7", "q"])
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_rank_matches_all_subsets(self, field, data):
        """3-7 planes in 3-5 variables with small coefficients, so that
        coincident lines and points are common."""
        nvars = data.draw(st.integers(3, 5))
        rows = data.draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars)
            .filter(lambda r: any(r)), min_size=3, max_size=7))
        rows = [[field.from_int(c) for c in r] for r in rows]
        ring = PolyRing(("x", "y", "z", "w", "v")[:nvars], field)
        forms = [ring.linear_form(r) for r in rows]
        dependent = [(i, j) for i, j in itertools.combinations(
            range(len(rows)), 2) if linalg.rank([rows[i], rows[j]], field) < 2]
        if dependent:
            j = min(j for _, j in dependent)
            i = min(i for i, jj in dependent if jj == j)
            with pytest.raises(ValidationError) as err:
                Arrangement(ring, forms)
            assert err.value.pair == (i, j)
        assume(not dependent)
        arr = Arrangement(ring, forms)
        ranks, spans = _lattice_by_subsets(rows, field)
        assert ranks[1] == tuple((i,) for i in range(len(rows)))
        assert list(arrangement._flats_by_rank(arr)) == \
            [ranks[r] for r in range(2, max(ranks) + 1)]
        assert [(f.basis, f.members) for f in arr.flats()] == sorted(
            ((basis, tuple(sorted(members)))
             for basis, members in spans.items() if len(basis) == 2),
            key=lambda flat: flat[1])


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


def _check_top_by_planes(arr):
    got, want = tree_top(arr), top_by_flats(arr)
    assert got.gens == want.gens, arr.forms
    assert repr(got.groebner()._polys) == repr(want.groebner()._polys)


class TestTopByPlanes:
    """`top_comb` intersects one leaf per plane, the plane group of its
    double flats with the local Jacobians of its flats of multiplicity
    >= 3 folded in; the tree of one leaf per flat, each component built
    on the pencil ring (`conftest.top_by_flats`), is its oracle, and the
    reduced bases must be the same, byte for byte."""

    @pytest.mark.parametrize("field", [GF(DEFAULT_PRIME), GF(2 ** 61 - 1),
                                       GF(LARGEST_PRIME)],
                             ids=["p", "p61", "p82"])
    def test_corpus_and_sweep_pool(self, field):
        arrs = [load_arrangement(name, field) for name in arrangement_names()
                if name != "thirty_one_planes"]
        arrs += [parse_arrangement(text, field) for text in sweep_texts()]
        for arr in arrs:
            _check_top_by_planes(arr)

    def test_over_q(self):
        arrs = [parse_arrangement(text, QQ) for text in sweep_texts(3)]
        arrs += [load_arrangement(name, QQ)
                 for name in ("seven_planes", "nine_planes")]
        for arr in arrs:
            _check_top_by_planes(arr)

    def test_five_variables(self):
        """The graphic arrangement of the wheel with four spokes, in five
        variables: its four triangles are flats of multiplicity 3, and
        the hub's plane groups hold two of them each."""
        wheel = Graph(5, [(1, 2), (2, 3), (3, 4), (1, 4),
                          (1, 5), (2, 5), (3, 5), (4, 5)])
        arr = graphic_arrangement(wheel)
        assert arr.ring.nvars == 5
        assert sum(f.multiplicity == 3 for f in arr.flats()) == 4
        _check_top_by_planes(arr)

    def test_small_prime(self):
        _check_top_by_planes(load_arrangement("fifteen_planes", GF(37)))

    def test_intersection_count(self, monkeypatch):
        """A fresh `top_comb` intersects, for each plane, the group of the
        double flats it leads with the local Jacobians of the flats of
        multiplicity >= 3 it leads, then the planes' leaves; so it makes
        one intersection fewer than it has leaf inputs, and a pencil makes
        none.  On `fifteen_planes` that is 33 intersections, where the
        full plane groups made 37 and one leaf per flat 54."""
        calls = []
        intersect_bases = groebner._intersect_bases

        def counted(*args):
            calls.append(args)
            return intersect_bases(*args)

        monkeypatch.setattr(groebner, "_intersect_bases", counted)
        for name, want in (("fifteen_planes", 33), ("seven_planes", 7),
                           ("pencil_three", 0)):
            arr = load_arrangement(name)
            # a plane's leaf takes one group of its double flats (None)
            # and each flat of multiplicity >= 3 it leads
            inputs = {(f.members[0], None if f.multiplicity == 2 else f)
                      for f in arr.flats()}
            assert want == len(inputs) - 1
            calls.clear()
            tree_top(arr)
            assert len(calls) == want, name


class TestIntersectionTree:
    """`intersect_many` folds on internal bases and orients each pair by
    degree; the Ideal-by-Ideal tree with the first input always in the
    t-block is its oracle."""

    @staticmethod
    def _check(arr, monkeypatch):
        builds = (top_comb, radical_comb,
                  lambda a: symbolic_intersection(a, rule_powers(a, 2)))
        got = [build(arr) for build in builds]
        monkeypatch.setattr(arrangement, "intersect_many",
                            intersect_many_by_ideals)
        for ideal, build in zip(got, builds):
            want = build(arr)
            assert ideal.gens == want.gens
            assert ideal.groebner()._polys == want.groebner()._polys
        monkeypatch.undo()

    @pytest.mark.parametrize("name", [n for n in arrangement_names()
                                      if n != "thirty_one_planes"])
    def test_corpus(self, name, monkeypatch):
        self._check(load_arrangement(name), monkeypatch)

    @pytest.mark.parametrize("field", [QQ, GF(2**61 - 1)], ids=["q", "p61"])
    @pytest.mark.parametrize("name", ["seven_planes", "eight_planes",
                                      "top_block"])
    def test_other_fields(self, name, field, monkeypatch):
        """The oracle eliminates from (1 - t) * G_b where `intersect_many`
        takes (1 + t) * G_b; the answers agree over Q and in slots wider
        than 64 bits too."""
        self._check(load_arrangement(name, field), monkeypatch)


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
        top = tree_top(arr)
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
        # does not change the pencil component, built either way
        ring = standard_ring()
        rng = random.Random(17)
        arr = load_arrangement("pencil_three")
        flat = arr.flats()[0]
        vecs = arr.coefficient_rows()
        original = pencil_component(flat, ring, vecs)
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
            moved = Flat((tuple(r1), tuple(r2)), flat.members)
            recomputed = pencil_component(moved, ring, vecs)
            assert original.equals(recomputed)
            assert recomputed.equals(
                pencil_component_by_pencil_ring(moved, ring, vecs))

    @pytest.mark.parametrize("field", [GF(DEFAULT_PRIME), GF(2 ** 61 - 1), QQ],
                             ids=["p", "p61", "q"])
    def test_local_jacobian_matches_pencil_ring(self, field):
        """At the echelon pivot columns the partials of the product of a
        flat's member forms are the pencil ring's (g_s, g_t), generator
        for generator, on every flat of multiplicity >= 3 of the corpus."""
        count = 0
        for name in arrangement_names():
            arr = load_arrangement(name, field)
            vecs = arr.coefficient_rows()
            for flat in arr.flats():
                if flat.multiplicity >= 3:
                    got = pencil_component(flat, arr.ring, vecs)
                    want = pencil_component_by_pencil_ring(flat, arr.ring, vecs)
                    assert got.gens == want.gens, (name, flat)
                    count += 1
        assert count == 170


# Corpus arrangements whose J is unmixed, so that `top_comb` returns J once
# the arrangement holds it, and some whose J has an embedded component.
_UNMIXED_J = ("fifteen_planes", "nine_planes", "top_block", "free_not_cm",
              "seven_planes")
_MIXED_J = ("eleven_planes", "same_lattice_a", "eight_planes", "radical_block")


class TestTopCombFastPath:
    """Once `jacobian_ideal` has memoized J on an arrangement, `top_comb`
    returns J when an Ext^3 certificate proves it unmixed.  Its basis must
    be the intersection tree's, which a fresh arrangement, holding no J,
    computes; the fast path is taken exactly when J equals that top."""

    @staticmethod
    def _check(arr, monkeypatch):
        """Compare both paths on `arr`; returns whether the fast one ran."""
        calls = []

        def counted(ideals):
            calls.append(ideals)
            return intersect_many(ideals)

        monkeypatch.setattr(arrangement, "intersect_many", counted)
        J = jacobian_ideal(arr)
        assert jacobian_ideal(arr) is J
        got = top_comb(arr)
        fast = not calls
        want = tree_top(arr)
        assert calls
        assert got.groebner()._polys == want.groebner()._polys
        assert fast == J.equals(want)
        if fast:  # J's basis object, Hilbert data and resolution come along
            assert got is not J and got.groebner() is J.groebner()
            assert hilbert(got) is hilbert(J)
            assert got._resolution_cache is J._resolution_cache is not None
        return fast

    @pytest.mark.parametrize("p", [32003, 2**31 - 1, 2**61 - 1])
    def test_corpus(self, p, monkeypatch):
        field = GF(p)
        paths = {}
        for name in arrangement_names():
            if name != "thirty_one_planes":
                paths[name] = self._check(load_arrangement(name, field),
                                          monkeypatch)
        assert all(paths[name] for name in _UNMIXED_J)
        assert not any(paths[name] for name in _MIXED_J)

    @pytest.mark.parametrize("p", [32003, 2**31 - 1, 2**61 - 1])
    def test_sweep_pool(self, p, monkeypatch):
        paths = [self._check(parse_arrangement(text, GF(p)), monkeypatch)
                 for text in sweep_texts()]
        # arrangement 2's J is not saturated
        assert not paths[2] and any(paths)

    def test_over_q(self, monkeypatch):
        paths = [self._check(parse_arrangement(text, QQ), monkeypatch)
                 for text in sweep_texts(3)]
        assert paths == [True, True, False]
        assert self._check(load_arrangement("seven_planes", QQ), monkeypatch)


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


class TestSymbolicByPlanes:
    """`symbolic_intersection` intersects one leaf per plane and exponent;
    the flat-by-flat intersection of the prime powers is its oracle, and
    the reduced bases must be the same, term for term."""

    @staticmethod
    def _check(arr):
        for powers in (rule_powers(arr, 2), rule_powers(arr, 3),
                       uniform_powers(arr, 2)):
            got = symbolic_intersection(arr, powers, override=True)
            want = symbolic_by_flat_powers(arr, powers)
            assert got.groebner()._polys == want.groebner()._polys

    @pytest.mark.parametrize("name", [n for n in arrangement_names()
                                      if n != "thirty_one_planes"])
    def test_corpus(self, name):
        self._check(load_arrangement(name, GF(32003)))

    @pytest.mark.parametrize("name", ["nine_planes", "star_pencil"])
    def test_over_q(self, name):
        self._check(load_arrangement(name, QQ))


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

    @pytest.mark.parametrize("field", [GF(DEFAULT_PRIME), QQ])
    def test_members_agree_with_the_span_test(self, field):
        """A plane lies on a flat exactly when its row is in the span of
        the flat's basis, on every corpus arrangement: the witnesses and
        their order are those of one rank test per (plane, flat)."""
        for name in arrangement_names():
            arr = load_arrangement(name, field)
            rows = arr.coefficient_rows()
            nonreduced = [f for f in arr.flats() if f.multiplicity >= 3]
            expected = []
            for i, row in enumerate(rows):
                on = [f for f in nonreduced if linalg.in_span(
                    row, [list(b) for b in f.basis], field)]
                expected += [(i, on[a], on[b]) for a in range(len(on))
                             for b in range(a + 1, len(on))]
            assert hypothesis_check(arr) == (not expected, expected), name


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

    def test_special_section_making_a_point_is_redrawn(self, monkeypatch):
        """e -> a + 2b + 3c keeps every line of the five coordinate planes
        of P^4 but puts a, b, c and e through one point; the section is
        drawn again."""
        ring5 = PolyRing(("a", "b", "c", "d", "e"), GF(32003))
        arr = Arrangement(ring5, [ring5.variable(i) for i in range(5)])
        draws = iter([1, 2, 3, 0, 5, 7, 11, 13])
        monkeypatch.setattr(arrangement, "random", SimpleNamespace(
            Random=lambda seed: SimpleNamespace(
                randint=lambda lo, hi: next(draws))))
        cut = generic_section(arr, seed=0)
        assert cut.coefficient_rows()[4] == [5, 7, 11, 13]
        assert [len(r) for r in arrangement._flats_by_rank(cut)] == [10, 10, 1]

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

    def test_same_lines_different_points(self):
        """Both have four planes and six double lines; star_four has rank
        4 and four triple points, four_planes_point rank 3 and one point
        on all four planes."""
        star = load_arrangement("star_four")
        point = load_arrangement("four_planes_point")
        assert star.membership_family() == point.membership_family()
        assert [len(r) for r in arrangement._flats_by_rank(star)] == [6, 4, 1]
        assert [len(r) for r in arrangement._flats_by_rank(point)] == [6, 1]
        assert not lattice_isomorphic(star, point)
        assert not lattice_isomorphic(point, star)

    @pytest.mark.parametrize("name", ["seven_planes", "eleven_planes",
                                      "same_lattice_a", "four_planes_point"])
    def test_permuted_and_moved_corpus_arrangements(self, name):
        arr = load_arrangement(name)
        rng = random.Random(name)
        forms = list(arr.forms)
        rng.shuffle(forms)
        shuffled = Arrangement(arr.ring, forms)
        moved = apply_coordinate_change(
            shuffled, random_coordinate_change(rng, arr.ring.field))
        assert lattice_isomorphic(arr, shuffled)
        assert lattice_isomorphic(arr, moved)
        assert lattice_isomorphic(moved, arr)


class TestCoordinateChanges:
    def test_apply_preserves_lattice(self):
        arr = load_arrangement("nine_planes")
        rng = random.Random(23)
        moved = apply_coordinate_change(
            arr, random_coordinate_change(rng, arr.ring.field))
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
                assert random_coordinate_change(
                    rng, GF(DEFAULT_PRIME), size, bound) == \
                    self._by_determinant(oracle, size, bound)

    def test_prime_safety_check(self):
        small = GF(5)
        ring = PolyRing(("x", "y", "z", "w"), small)
        x, y, z, w = ring.variables()
        arr = Arrangement(ring, (x, y, z, w, x + y, x - y))
        with pytest.raises(ValidationError):
            jacobian_ideal(arr)
