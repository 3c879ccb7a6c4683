"""Resolutions, Betti tables, Hilbert data, deficiency dimensions."""

import hashlib
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (LARGE_IDS, LARGE_PRIMES, betti_by_strand_homology,
                      check_module_leads, deficiency_by_ext, module_vector,
                      power_of_variables, rao_by_degree_scan,
                      schreyer_resolution, schreyer_resolution_by_tuples,
                      schreyer_syzygies,
                      series_numerator_by_tuples, standard_monomial_count,
                      sweep_texts, tree_top)
from singlocus import groebner, homology, linalg
from singlocus.arrangement import (Arrangement, jacobian_ideal,
                                   parse_arrangement, radical_comb, top_comb)
from singlocus.corpus import arrangement_names, load_arrangement
from singlocus.errors import (InternalLimitError, InvariantError,
                              ValidationError)
from singlocus.groebner import (Ideal, _Engine, _to_internal, intersect,
                                intersect_many, saturate_irrelevant)
from singlocus.homology import (BettiTable, GradedFreeModule, GradedMap,
                                _level_from_ring_gb, _schreyer_step,
                                betti_json, betti_of, betti_table,
                                betti_text, dimensions, hilbert,
                                is_cm, is_saturated, minimal_free_resolution,
                                rao_dimensions, unmixed_deficiency)
from singlocus.liaison import (construct_lr, construct_lr_radical,
                               verify_construction)
from singlocus.polyring import (GF, MAX_DEGREE, QQ, WIDTH, PolyRing,
                                Polynomial, _pack_plain)

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


def _check_minimal_complex(res):
    """The maps of `res` compose to zero and hold no constant entry."""
    maps = res.maps
    assert res.is_minimal()
    for k in range(len(maps) - 1):
        for c in range(res.modules[k + 2].rank):
            column = [maps[k + 1].entry(r, c)
                      for r in range(res.modules[k + 1].rank)]
            assert all(p is None or p.is_zero()
                       for p in maps[k].apply(column))


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
        _check_minimal_complex(minimal_free_resolution(ideal))

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


class TestBettiFromRanks:
    """The twists read from the ranks of the raw resolution's constant
    blocks equal the pruned resolution's and the strand-homology oracle's.
    Where `unmixed_deficiency`, which reads Ext^3 from the raw maps, finds
    a table, it equals the dense scan of the pruned last map
    (`rao_by_degree_scan`), and `rao_dimensions` returns it; where it
    finds the ideal mixed, `rao_dimensions` refuses it.  Each module
    basis that the reader completes has the leading words of the
    pair-by-pair loop it replaced (`conftest.check_module_leads`).  The
    maps are pruned only when they are read, and the raw maps outlive
    pruning."""

    @staticmethod
    def _check(ideal):
        res = minimal_free_resolution(ideal)
        ranked = [m.twists for m in res.modules]
        got = unmixed_deficiency(ideal)
        res.maps
        assert ([sorted(m.twists) for m in res.modules]
                == [sorted(t) for t in ranked])
        assert (BettiTable.from_twists(ranked).entries
                == betti_by_strand_homology(ideal))
        assert unmixed_deficiency(ideal) == got  # after pruning
        if res.length > 3:
            assert got is None
            with pytest.raises(ValidationError, match="not saturated"):
                rao_dimensions(ideal)
        elif got is None:
            with pytest.raises(ValidationError, match="not unmixed"):
                rao_dimensions(ideal)
        else:
            assert rao_dimensions(ideal) == got == rao_by_degree_scan(ideal)
        return got

    def _check_all(self, arr):
        return [self._check(ideal) for ideal in
                (jacobian_ideal(arr), tree_top(arr), radical_comb(arr))]

    @pytest.mark.parametrize("name", [n for n in arrangement_names()
                                      if n != "thirty_one_planes"])
    def test_corpus(self, name, module_runs):
        got = self._check_all(load_arrangement(name))
        if name == "fifteen_planes":
            assert got == [{16: 1}, {16: 1}, {}]
        if name == "eleven_planes":
            assert got == [None, {10: 2}, {6: 3, 7: 5}]
        check_module_leads(module_runs)

    def test_sweep_pool(self, module_runs):
        got = [self._check_all(parse_arrangement(text))
               for text in sweep_texts()]
        assert got[2][0] is None  # J is not saturated
        assert check_module_leads(module_runs) > 10

    def test_sweep_pool_over_q(self, module_runs):
        for text in sweep_texts(3):
            self._check_all(parse_arrangement(text, QQ))
        assert check_module_leads(module_runs) > 0

    def test_constructions(self, module_runs):
        self._check(construct_lr(1, h=2, seed=7).ideal)
        self._check(construct_lr_radical(2, seed=7).ideal)
        assert check_module_leads(module_runs) > 0

    def test_twists_alone_never_prune(self, monkeypatch):
        """Only reading `Resolution.maps` prunes."""
        calls = []
        prune = homology._prune_to_minimal

        def counted(*args):
            calls.append(args)
            return prune(*args)

        monkeypatch.setattr(homology, "_prune_to_minimal", counted)
        arr = load_arrangement("top_block")
        ideals = (jacobian_ideal(arr), top_comb(arr), radical_comb(arr))
        for ideal in ideals:
            betti_of(ideal)
            is_cm(ideal)
            dimensions(ideal)
            is_saturated(ideal)
        # J is unmixed, so top is J
        assert [rao_dimensions(ideal) for ideal in ideals] == [
            {8: 1}, {8: 1}, {4: 1, 5: 4}]
        assert verify_construction(construct_lr(1, h=1, seed=7),
                                   deep=True)["ok"]
        assert not calls
        for _ in range(2):
            minimal_free_resolution(ideals[2]).maps
        assert len(calls) == 1

    def test_pruned_twists_must_match_the_ranks(self, ring_p, monkeypatch):
        prune = homology._prune_to_minimal

        def lossy(*args):
            twists, maps = prune(*args)
            twists[1].pop()  # one generator of F_1 goes missing
            return twists, maps

        monkeypatch.setattr(homology, "_prune_to_minimal", lossy)
        x, y, z, w = ring_p.variables()
        res = minimal_free_resolution(Ideal(ring_p, (x * y, x * z, y * z)))
        assert [m.twists for m in res.modules] == [(0,), (2, 2, 2), (3, 3)]
        with pytest.raises(InvariantError):
            res.maps


class TestEngineFormResolution:
    """A resolution is kept in engine form: its raw maps are the syzygy
    vectors, map 0 is the ring basis's own terms lists, and public
    polynomials are built only when `Resolution.maps` is read."""

    #: sha256 of the pruned maps of construct_lr_radical(2, seed=7) (its
    #: Betti totals 1, 16, 17, 2) and of construct_lr(1, h=1, seed=7)
    #: (1, 5, 5, 1), as the resolution built them when it kept its raw
    #: maps as public polynomials
    PRUNED = {
        "lrrad2": "8679c65a67faeacf79e57ff475e84573"
                  "fda161dc7268c59373e857d926f7941f",
        "lr1_h1": "c46518ad3da091d8eb9530e96f3cd139"
                  "12a746da6279d86b4fd89327e45666f9",
    }

    @staticmethod
    def _digest(maps):
        return hashlib.sha256(repr([
            (m.source.twists, m.target.twists,
             [(rc, list(p.terms.items())) for rc, p in m.entries.items()])
            for m in maps]).encode()).hexdigest()

    @pytest.mark.parametrize("name,build", [
        ("lrrad2", lambda: construct_lr_radical(2, seed=7)),
        ("lr1_h1", lambda: construct_lr(1, h=1, seed=7))])
    def test_invariants_build_no_polynomial(self, name, build, monkeypatch):
        # a copy with no cached basis, so that its basis is computed and
        # checked against its generators below too
        gens = build().ideal.gens
        ideal = Ideal(gens[0].ring, gens)
        built = Counter()
        for module, attr in ((groebner, "_from_internal"),
                             (homology, "_components")):
            def counted(*args, orig=getattr(module, attr), attr=attr):
                built[attr] += 1
                return orig(*args)

            monkeypatch.setattr(module, attr, counted)
        init = Polynomial.__init__

        def counted_init(self, *args):
            built["Polynomial"] += 1
            init(self, *args)

        monkeypatch.setattr(Polynomial, "__init__", counted_init)
        betti_of(ideal)
        is_cm(ideal)
        is_saturated(ideal)
        dimensions(ideal)
        rao_dimensions(ideal)
        assert not built
        res = minimal_free_resolution(ideal)
        twist_lists, columns, orders = res._raw
        basis = ideal.groebner()._polys
        assert sorted(map(id, columns[0])) == sorted(map(id, basis))
        assert all(type(v) is list and all(type(t) is tuple for t in v)
                   for vectors in columns for v in vectors)
        assert [len(t) for t in twist_lists[1:]] == list(map(len, columns)) \
            == list(map(len, orders))
        assert self._digest(res.maps) == self.PRUNED[name]
        assert built["_components"] == sum(map(len, columns))
        assert not built["_from_internal"]

    def test_level_zero_is_the_basis(self, ring_p):
        x, y, z, w = ring_p.variables()
        basis = Ideal(ring_p, (x * y, x * z, y * z)).groebner()._polys
        level = _level_from_ring_gb(basis, [2, 2, 2])
        assert level.vectors is basis and level.mult == 1
        assert level.lt_vkey == [t[0][0] for t in basis]


class TestPrunedMaps:
    """The one-pass pruning leaves maps that compose to zero and hold no
    constant, on arrangement ideals whose raw resolutions have many
    constant blocks."""

    @staticmethod
    def _check_all(arr):
        for ideal in (jacobian_ideal(arr), tree_top(arr), radical_comb(arr)):
            _check_minimal_complex(minimal_free_resolution(ideal))

    @pytest.mark.parametrize("name", ["seven_planes", "nine_planes",
                                      "eleven_planes"])
    def test_corpus(self, name):
        self._check_all(load_arrangement(name))

    def test_sweep_pool(self):
        for text in sweep_texts(3):
            self._check_all(parse_arrangement(text))

    def test_over_q(self):
        self._check_all(load_arrangement("nine_planes", QQ))


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

    @pytest.mark.parametrize("field", [GF(32003), QQ], ids=["p", "q"])
    def test_hp_string_fractions(self, field):
        """A surface's Hilbert polynomial can have non-integer
        coefficients, which print in parentheses.  Three planes through
        a = b = 0 and four general planes in c, d, e make one flat of
        multiplicity 3 and 18 double flats in five variables: the radical
        has degree 19, and top has degree 18 + (3 - 1)^2 = 22."""
        arr = parse_arrangement("vars: a b c d e\na\nb\na + b\nc\nd\ne\n"
                                "c + d + e\n", field)
        assert hilbert(radical_comb(arr)).hp_string() == \
            "(19/2)t^2 - (63/2)t + 44"
        assert hilbert(top_comb(arr)).hp_string() == "11t^2 - 43t + 66"

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

    @pytest.mark.parametrize("a", [300, 1200, MAX_DEGREE - 2])
    def test_high_powers_pivot_once(self, ring_p, a):
        """x^a * (y, z) has numerator 1 - 2t^(a+1) + t^(a+2).  One pivot
        on x^a reaches the coprime (y, z), where a pivot on x alone
        recursed a levels deep."""
        x, y, z, w = ring_p.variables()
        want = [0] * (a + 3)
        want[0], want[a + 1], want[a + 2] = 1, -2, 1
        ideal = Ideal(ring_p, (x ** a * y, x ** a * z))
        assert hilbert(ideal).numerator == tuple(want)
        words = [_pack_plain((a, 1, 0, 0)), _pack_plain((a, 0, 1, 0))]
        assert homology._series_numerator(words, 4, {}) == want


@st.composite
def monomial_generators(draw):
    """Exponent tuples in 1 to 8 variables, with repeats, multiples of
    other generators and sometimes one field at MAX_DEGREE."""
    nvars = draw(st.integers(1, 8))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars),
                         max_size=8))
    if gens:
        g = draw(st.sampled_from(gens))
        gens.append(g)  # a repeat
        v = draw(st.integers(0, nvars - 1))
        gens.append(g[:v] + (g[v] + draw(st.integers(1, 3)),) + g[v + 1:])
    if draw(st.booleans()):
        g = list(draw(st.tuples(*[st.integers(0, 2)] * nvars)))
        g[draw(st.integers(0, nvars - 1))] = MAX_DEGREE
        gens.append(tuple(g))
    return nvars, gens


@given(monomial_generators())
@settings(max_examples=100, deadline=None)
def test_packed_series_numerator_matches_tuples(case):
    """The recursion on packed words gives the tuple recursion's
    numerator, trailing zeros included."""
    nvars, gens = case
    assert homology._series_numerator([_pack_plain(g) for g in gens], nvars,
                                      {}) == \
        series_numerator_by_tuples(gens, nvars, {})


class TestHilbertData:
    def test_too_many_factors_of_one_minus_t(self):
        with pytest.raises(ValidationError):
            homology.HilbertData([1, -2, 1], 1)
        with pytest.raises(ValidationError):
            homology.HilbertData([1, -3, 3, -1, 0], 2)
        assert homology.HilbertData([1, -2, 1], 2).dimension == 0

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=300, deadline=None)
    def test_degree_is_the_reduced_numerator_at_one(self, nvars, data):
        """h(1) is (dim - 1)! times the Hilbert polynomial's leading
        coefficient, on numerators h(t) (1 - t)^k with h(1) != 0 and
        k <= nvars."""
        h = data.draw(st.lists(st.integers(-9, 9), min_size=1,
                               max_size=6).filter(sum))
        num = list(h)
        for _ in range(data.draw(st.integers(0, nvars))):
            num = homology._poly_add(num, homology._poly_mul_shift(num, 1, -1))
        hd = homology.HilbertData(num, nvars)
        dim = hd.dimension
        lead = hd.hp_coeffs[-1] if dim and hd.hp_coeffs else 0
        assert hd.degree() == int(lead * factorial(max(dim - 1, 0)))


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
        engine = _Engine(ring, twists=[0, 0])
        basis = engine.buchberger([module_vector([(0, x), (1, z)], engine),
                                   module_vector([(0, y), (1, w)], engine)])
        assert basis == [module_vector(col, engine) for col in (
            [(0, y), (1, w)], [(0, x), (1, z)], [(1, y * z - x * w)])]

    @pytest.mark.parametrize("ring_name", ["ring_p", "ring_q"])
    def test_components_do_not_mix(self, ring_name, request, monkeypatch):
        """x*e0 "divides" x*y*e1 if the component bits are ignored, and the
        two would form a pair: the module basis keeps both and reduces no
        pair.  On the radical of `eleven_planes` (table {6: 3, 7: 5}),
        every pair that the module run reduces lies in one component."""
        ring = request.getfixturevalue(ring_name)
        x, y, z, w = ring.variables()
        batches = []
        for name in ("reduce_batch", "reduce_pairs"):
            reducer = getattr(_Engine, name)

            def recorded(self, batch, polys, lt_keys, lt_ws, *args,
                         reducer=reducer):
                batches.append([(lt_ws[i], lt_ws[j], lcm)
                                for _, _, i, j, lcm in batch])
                return reducer(self, batch, polys, lt_keys, lt_ws, *args)

            monkeypatch.setattr(_Engine, name, recorded)
        engine = _Engine(ring, twists=[0, 1])
        vectors = [module_vector([(0, x)], engine),
                   module_vector([(1, x * y)], engine)]
        assert engine.buchberger(vectors) == vectors
        assert not batches
        arr = load_arrangement("eleven_planes", ring.field)
        rad = radical_comb(arr)
        minimal_free_resolution(rad)
        batches.clear()
        assert rao_dimensions(rad) == {6: 3, 7: 5}
        shift = WIDTH * ring.nvars
        pairs = [pair for batch in batches for pair in batch]
        assert pairs and all(wi >> shift == wj >> shift == lcm >> shift
                             for wi, wj, lcm in pairs)

    @pytest.mark.parametrize("field", [GF(32003)] + LARGE_PRIMES + [QQ],
                             ids=["p"] + LARGE_IDS + ["q"])
    def test_module_basis_matches_the_pair_loop(self, field, module_runs):
        """The Ext^3 reader's module basis comes from `_Engine.buchberger`;
        its leading words are, component by component, the minimalized
        ones of the pair-by-pair loop it replaced
        (`conftest.module_leads_by_pairs`), here on liaison constructions.
        The same check runs where `TestBettiFromRanks` reads the tables of
        the corpus and the `sweep` pool, and where
        `test_tail_reduce_matches_the_full_pass` reads those of the
        corpus top and rad at each of these fields."""
        builds = [construct_lr(1, seed=7, field=field),
                  construct_lr_radical(2, seed=7, field=field)]
        if field.p == 32003:
            builds.append(construct_lr(2, seed=7, field=field))
        for construction in builds:
            assert rao_dimensions(construction.ideal) == \
                construction.predicted_rao
        assert check_module_leads(module_runs) == len(builds)

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


class TestUnmixedDeficiency:
    """Its inputs, and mixed ideals outside the corpus; `TestBettiFromRanks`
    compares its tables with `rao_by_degree_scan` on the corpus, the pools
    and two constructions."""

    def test_requires_height_two_in_four_variables(self, ring_p):
        x, y, z, w = ring_p.variables()
        with pytest.raises(ValidationError, match="codimension 2"):
            unmixed_deficiency(Ideal(ring_p, (x,)))
        plane = PolyRing(("x", "y", "z"), GF(32003))
        with pytest.raises(ValidationError, match="4-variable"):
            unmixed_deficiency(Ideal(plane, plane.variables()[:2]))

    def test_embedded_point_and_irrelevant_component(self, ring_p):
        x, y, z, w = ring_p.variables()
        line = Ideal(ring_p, (x, y))
        # an embedded point on the line, then the irrelevant ideal
        point = intersect(line, Ideal(ring_p, (x * x, y, z)))
        assert unmixed_deficiency(line) == {}
        assert unmixed_deficiency(point) is None
        assert unmixed_deficiency(
            intersect(line, power_of_variables(ring_p, 2))) is None


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
        from singlocus.arrangement import jacobian_ideal, radical_comb
        from singlocus.corpus import load_arrangement
        arr = load_arrangement("seven_planes")
        for ideal in (jacobian_ideal(arr), radical_comb(arr), tree_top(arr)):
            self.check(ideal)


class TestCoordinateChangeInvariance:
    def test_betti_invariant_under_linear_change(self, ring_p):
        import random
        from singlocus.arrangement import (apply_coordinate_change,
                                           random_coordinate_change, top_comb)
        from singlocus.corpus import load_arrangement
        arr = load_arrangement("star_pencil")
        rng = random.Random(5)
        matrix = random_coordinate_change(rng, arr.ring.field)
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
    def _check_ideal(ideal):
        twists, maps = schreyer_resolution(ideal)
        want_twists, want_maps = schreyer_resolution_by_tuples(ideal)
        assert twists == want_twists
        assert [list(m.items()) for m in maps] == \
            [list(m.items()) for m in want_maps]

    def _check(self, arr):
        for ideal in (jacobian_ideal(arr), tree_top(arr), radical_comb(arr)):
            self._check_ideal(ideal)

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

    def test_sweep_q_pool(self):
        """Over Q the step reduces on integer reducers and lazily
        normalized pairs; the tuple step on the same kernel agrees."""
        for text in sweep_texts(3):
            self._check(parse_arrangement(text, QQ))

    def test_nine_planes_top_over_q(self):
        self._check_ideal(tree_top(load_arrangement("nine_planes", QQ)))

    @pytest.mark.parametrize("field", LARGE_PRIMES, ids=LARGE_IDS)
    def test_large_primes(self, field, monkeypatch, ring_rows):
        """Slots of up to 23 bytes: with the size rule lifted, every ring
        level reduces on rows."""
        monkeypatch.setattr(homology, "_ROW_BYTES_PER_TERM", 10 ** 12)
        for seed in range(3):
            self._check(_random_arrangement(seed, field))
        assert ring_rows.count(True) == 9  # J, top and rad of each

    @pytest.mark.parametrize("build", [
        lambda: construct_lr(1, h=1, seed=7),
        lambda: construct_lr_radical(2, seed=7)], ids=["lr1_h1", "lrrad2"])
    def test_liaison_outputs(self, build, ring_rows):
        self._check_ideal(build().ideal)
        assert ring_rows[0]

    def test_equal_words_in_two_components(self, ring_p):
        x, y, z, w = ring_p.variables()
        zero = ring_p.zero()
        assert schreyer_syzygies([[x, zero], [zero, x]]) == []
        # S(v0, v1) = (0, -x*z) reduces by z*v2 alone; x*e_0 divides x*z
        # word for word but lives in the other component
        gens = [[x, zero], [y, z], [zero, x]]
        assert schreyer_syzygies(gens) == [[y, -x, z]]


def _ring_level(ring, polys):
    engine = _Engine(ring)
    internal = [_to_internal(f, engine.key) for f in polys]
    return _level_from_ring_gb(internal, [f.total_degree() for f in polys]), \
        engine


class TestRingRows:
    """Over F_p the ring level reduces on Kronecker rows: loudly when its
    input is not a Groebner basis or its degree does not fit the packed
    fields, and on dividends past the size rule."""

    @pytest.mark.parametrize("field", [GF(32003), QQ], ids=["p", "q"])
    def test_not_a_groebner_basis(self, field, ring_rows):
        x, y, z, w = PolyRing(("x", "y", "z", "w"), field).variables()
        # S(f, g) = z^2*w - y^2*w, which neither leading term divides
        level, engine = _ring_level(x.ring, [x * y + z * w, x * z + y * w])
        with pytest.raises(InvariantError, match="not a Groebner basis"):
            _schreyer_step(level, engine)
        assert ring_rows == [field.p is not None]

    def test_tails_in_another_component(self, ring_p, ring_rows):
        """Leading terms in component 0 do not make a ring level: the
        S-vector of (x, y) and (y, z) is (0, y^2 - x*z), which no leading
        term reduces, though y^2 read as a ring term would be."""
        x, y, z, _ = ring_p.variables()
        with pytest.raises(ValidationError, match="not a Groebner basis"):
            schreyer_syzygies([[x, y], [y, z]])
        assert ring_rows == [False]

    def test_vectors_that_are_not_forms(self, ring_p, ring_rows):
        """A slot does not know the degree of x_0, so a vector that is not
        a form keeps the level on dividends."""
        x, y, z, w = ring_p.variables()
        assert schreyer_syzygies([x * y + z, w]) == [[w, -x * y - z]]
        assert ring_rows == [False]

    def test_eight_variables_stay_on_dividends(self, ring_rows):
        """The 2x2 minors of a generic 2x4 matrix: a row of base^7 slots
        fails the size rule."""
        v = PolyRing(tuple(f"x{i}" for i in range(8)), GF(32003)).variables()
        minors = [v[i] * v[4 + j] - v[j] * v[4 + i]
                  for i in range(4) for j in range(i + 1, 4)]
        TestSchreyerStepOracle._check_ideal(Ideal(v[0].ring, minors))
        assert ring_rows and not any(ring_rows)

    def test_degree_above_the_limit(self, ring_rows):
        """Long forms in two variables pass the size rule, and the lcm
        x^16400 * y^20000 has a degree the packed fields cannot hold: the
        rows refuse it rather than wrap."""
        x, y = PolyRing(("x", "y"), GF(32003)).variables()
        f = x.ring.from_terms({(16400 - k, k): 1 for k in range(2001)})
        level, engine = _ring_level(x.ring, [f, y ** 20000])
        with pytest.raises(InternalLimitError, match="syzygy step"):
            _schreyer_step(level, engine)

    def test_degree_above_the_limit_on_dividends(self, ring_rows):
        """Past the size rule the same degree reduces on dividends, whose
        fields fit here: the Koszul complex, as the oracle gives it."""
        x, y, z, w = PolyRing(("x", "y", "z", "w"), GF(32003)).variables()
        ideal = Ideal(x.ring, (x ** 20000 - y ** 20000,
                               z ** 20000 - w ** 20000))
        TestSchreyerStepOracle._check_ideal(ideal)
        assert schreyer_resolution(ideal)[0] == [[0], [20000, 20000],
                                                  [40000]]
        assert ring_rows.count(True) == 0


class TestSchreyerOrder:
    @pytest.mark.parametrize("name", ["eleven_planes", "sweep_six"])
    def test_jacobian_resolves_within_the_bound(self, name):
        J = jacobian_ideal(_arrangement(name))
        _, raw_maps = schreyer_resolution(J)
        assert len(raw_maps) <= 4
        assert betti_of(J).entries == betti_by_strand_homology(J)


class TestSaturationFromResolution:
    @pytest.mark.parametrize("name", ["four_planes_point", "seven_planes",
                                      "eight_planes", "free_not_cm",
                                      "sweep_six"])
    def test_against_saturate_irrelevant(self, name):
        arr = _arrangement(name)
        J = jacobian_ideal(arr)
        top = tree_top(arr)
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
