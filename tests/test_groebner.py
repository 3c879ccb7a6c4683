"""Groebner engine and ideal toolbox."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (LARGE_IDS, LARGE_PRIMES, LARGEST_PRIME, FractionDividend,
                      LowestTermsDividend, PairEngine,
                      buchberger_criterion_holds, check_module_leads,
                      colon, coprime_exps,
                      divides_exps, exact_divide,
                      intersect_by_ideals, lcm_exps,
                      membership_by_linear_algebra, merge_normal_form,
                      monomials_of_degree, pack_by_slices, power_of_variables,
                      radical_membership, saturate, saturate_by_variable,
                      saturate_by_variables, standard_monomial_count,
                      sweep_texts, tail_reduce_all, tree_top)
from singlocus import groebner, homology
from singlocus.arrangement import (generic_section, graphic_arrangement,
                                   jacobian_ideal, parse_arrangement,
                                   radical_comb, rule_powers,
                                   symbolic_intersection, top_comb)
from singlocus.corpus import (arrangement_names, load_arrangement, load_graph,
                              run_regressions)
from singlocus.errors import (InternalLimitError, InvariantError,
                              RingContextError, ValidationError)
from singlocus.groebner import (Ideal, _DegreeCounter, _Dividend,
                                _elimination_key, _Engine, _HilbertDrive,
                                _to_internal, intersect, intersect_many,
                                saturate_irrelevant)
from singlocus.homology import hilbert, is_saturated, rao_dimensions
from singlocus.liaison import construct_lr, construct_lr_radical
from singlocus.polyring import (_MR_BOUND, GF, QQ, MAX_DEGREE, WIDTH,
                                PolyRing, _degree_func, _is_prime,
                                _pack_plain, _slot_bytes)


@pytest.fixture
def vars_p(ring_p):
    return ring_p.variables()


class TestReducedBasis:
    def test_already_reduced(self, ring_p, vars_p):
        x, y, z, w = vars_p
        gb = Ideal(ring_p, (x, y)).groebner().polys
        assert gb in ((y, x), (x, y))

    def test_row_reduction(self, ring_p, vars_p):
        x, y, z, w = vars_p
        assert set(map(str, Ideal(ring_p, (x + y, x - y)).groebner().polys)) \
            == {"x", "y"}

    def test_monomial_triple(self, ring_p, vars_p):
        x, y, z, w = vars_p
        gens = (x * y, x * z, y * z)
        gb = Ideal(ring_p, gens).groebner().polys
        assert set(gb) == set(gens)

    def test_idempotent_and_verified(self, ring_p, vars_p):
        x, y, z, w = vars_p
        ideal = Ideal(ring_p, ((x + y) ** 2 * z, x * w - y * z, y * y * w))
        gb = ideal.groebner()
        again = Ideal(ring_p, gb.polys).groebner()
        assert gb.polys == again.polys
        assert buchberger_criterion_holds(gb)

    def test_inhomogeneous_generators_rejected(self, ring_p, vars_p):
        x, y, z, w = vars_p
        with pytest.raises(ValidationError):
            Ideal(ring_p, (x + x * y,))

    def test_determinism(self, ring_p, vars_p):
        x, y, z, w = vars_p
        gens = (x * y - z * z, y * w - x * x, z * w * w - y * y * x)
        a = Ideal(ring_p, gens).groebner().polys
        b = Ideal(ring_p, gens).groebner().polys
        assert a == b
        assert [p.terms for p in a] == [p.terms for p in b]

    def test_over_rationals(self, ring_q):
        x, y, z, w = ring_q.variables()
        gb = Ideal(ring_q, (x + y, x - y)).groebner().polys
        assert set(map(str, gb)) == {"x", "y"}


class TestNormalForm:
    def test_member_reduces_to_zero(self, ring_p, vars_p):
        x, y, z, w = vars_p
        ideal = Ideal(ring_p, (x * y - z * z, y * z))
        gb = ideal.groebner()
        probe = (x * y - z * z) * w + (y * z) * (x + w)
        assert gb.normal_form(probe).is_zero()

    def test_monomial_multiple(self, ring_p, vars_p):
        x, y, z, w = vars_p
        gb = Ideal(ring_p, (x, y)).groebner()
        assert gb.normal_form(w * x).is_zero()

    def test_no_term_divisible_by_leads(self, ring_p, vars_p):
        x, y, z, w = vars_p
        ideal = Ideal(ring_p, (x * x - y * z, y * y - x * w))
        gb = ideal.groebner()
        leads = [p.leading_term()[0] for p in gb.polys]
        nf = gb.normal_form((x + y + z) ** 4)
        for e in nf.terms:
            assert not any(all(a >= b for a, b in zip(e, lt)) for lt in leads)

    def test_membership_matches_linear_algebra(self, ring_p, vars_p):
        x, y, z, w = vars_p
        ideal = Ideal(ring_p, (x * y - z * z, z * w))
        gb = ideal.groebner()
        for d in range(1, 5):
            for m in monomials_of_degree(4, d):
                f = ring_p.from_terms({m: 1}) + (x + w) ** d
                assert gb.contains(f) == membership_by_linear_algebra(f, ideal)


class TestIdealEquality:
    def test_permuted_generators(self, ring_p, vars_p):
        x, y, z, w = vars_p
        assert Ideal(ring_p, (x, y)).equals(Ideal(ring_p, (y, x)))

    def test_different_generating_sets(self, ring_p, vars_p):
        x, y, z, w = vars_p
        assert Ideal(ring_p, (x, y)).equals(Ideal(ring_p, (x + y, y)))

    def test_strict_containment(self, ring_p, vars_p):
        x, y, z, w = vars_p
        assert not Ideal(ring_p, (x,)).equals(Ideal(ring_p, (x * x,)))


class TestEngineForm:
    """A basis is held once, as engine terms: equality and membership are
    answered from them, and the public polynomials are built on demand."""

    @pytest.mark.parametrize("field", [GF(32003), QQ], ids=["p", "q"])
    def test_answers_match_the_public_forms(self, field):
        """On J, top and rad of the corpus, `equals` on engine bases agrees
        with comparing the public bases, and `contains` on the engine
        remainder with the public normal form; both answers occur."""
        seen = Counter()
        for name in arrangement_names():
            if name == "thirty_one_planes":
                continue
            arr = load_arrangement(name, field)
            x = arr.ring.variable(0)
            ideals = (jacobian_ideal(arr), tree_top(arr), radical_comb(arr))
            for a in ideals:
                basis = a.groebner()
                for b in ideals:
                    same = a.equals(b)
                    assert same == (basis.polys == b.groebner().polys)
                    seen["equal", same] += 1
                    for g in b.gens + tuple(x * g for g in b.gens[:3]):
                        member = a.contains(g)
                        assert member == basis.normal_form(g).is_zero()
                        seen["member", member] += 1
        assert set(seen) == {(kind, answer) for kind in ("equal", "member")
                             for answer in (False, True)}

    def test_public_forms_are_built_when_read(self, ring_p, vars_p,
                                              monkeypatch):
        x, y, z, w = vars_p
        built = []
        from_internal = groebner._from_internal

        def counted(terms, ring):
            built.append(terms)
            return from_internal(terms, ring)

        monkeypatch.setattr(groebner, "_from_internal", counted)
        ideal = Ideal(ring_p, ((x + y) ** 2 * z, x * w - y * z, y * y * w))
        basis = ideal.groebner()
        assert len(basis) == 6
        assert ideal.contains(x * w * z - y * z * z)
        assert not ideal.contains(x ** 3)
        assert ideal.equals(Ideal(ring_p, ideal.gens[::-1]))
        hilbert(ideal)
        assert not built
        polys = basis.polys
        assert len(built) == len(polys) == 6
        assert basis.polys is polys and list(basis) == list(polys)
        assert len(built) == 6  # read again, not built again


class TestIdealsFromBases:
    """An ideal made from a basis holds it once: its invariants, its
    membership and its zero and unit tests build no polynomial, and its
    generators are that basis's public forms, built on first read."""

    @staticmethod
    def _outputs(field):
        """(name, ideal) for each kind of output made from a basis:
        `intersect`, top by the tree and by J's certificate, rad, the
        rule-power square and `saturate_irrelevant`."""
        arr = load_arrangement("seven_planes", field)
        x, y, z, w = arr.ring.variables()
        J = jacobian_ideal(arr)
        return [
            ("intersect", intersect(Ideal(arr.ring, (x, y)),
                                    Ideal(arr.ring, (z * x, w * w)))),
            ("tree top", tree_top(arr)),
            ("certified top", top_comb(arr)),
            ("rad", radical_comb(arr)),
            ("square", symbolic_intersection(arr, rule_powers(arr, 2))),
            ("saturation", saturate_irrelevant(J)),
        ]

    @pytest.mark.parametrize("field", [GF(32003), QQ], ids=["p", "q"])
    def test_invariants_build_no_polynomial(self, field, monkeypatch):
        # the same ideals computed apart, given by their generators
        twins = [Ideal(ideal.ring, ideal.gens)
                 for _, ideal in self._outputs(field)]
        built = []
        from_internal = groebner._from_internal

        def counted(terms, ring):
            built.append(terms)
            return from_internal(terms, ring)

        monkeypatch.setattr(groebner, "_from_internal", counted)
        outputs = self._outputs(field)
        for (name, ideal), twin in zip(outputs, twins):
            x = ideal.ring.variable(0)
            hilbert(ideal)
            homology.betti_of(ideal)
            homology.is_cm(ideal)
            assert ideal.equals(twin)
            assert ideal.contains(x * twin.gens[0])
            assert not ideal.contains(x)
            assert not ideal.is_zero() and not ideal.is_unit()
            assert not built, name
        for name, ideal in outputs:
            basis = ideal.groebner()
            gens = ideal.gens
            assert gens is basis.polys, name
            assert len(built) == len(basis) == len(gens), name
            assert ideal.gens is gens and len(built) == len(gens)
            assert not ideal.is_zero() and not ideal.is_unit()
            built.clear()

    def test_certified_top_shares_j_basis(self):
        arr = load_arrangement("seven_planes")
        J = jacobian_ideal(arr)
        top = top_comb(arr)
        assert top is not J and top.groebner() is J.groebner()
        assert top.gens is J.groebner().polys

    @pytest.mark.parametrize("field", [GF(32003), QQ], ids=["p", "q"])
    def test_zero_and_unit(self, field, monkeypatch):
        ring = PolyRing(("x", "y", "z", "w"), field)
        key = _Engine(ring).key
        zero = groebner._ideal_from_basis(groebner.GroebnerBasis(ring, []))
        unit = groebner._ideal_from_basis(groebner.GroebnerBasis(
            ring, [_to_internal(ring.one(), key)]))
        # the irrelevant ideal saturates to the unit ideal
        saturated = saturate_irrelevant(Ideal(ring, ring.variables()))
        monkeypatch.setattr(groebner, "_from_internal", None)
        answers = [(i.is_zero(), i.is_unit()) for i in (zero, unit, saturated)]
        assert answers == [(True, False), (False, True), (False, True)]
        monkeypatch.undo()
        assert zero.gens == () and unit.gens == saturated.gens == (ring.one(),)
        assert [(i.is_zero(), i.is_unit())
                for i in (zero, unit, saturated)] == answers

    def test_monic_copies_only_generator_normal_forms(self, monkeypatch):
        """On a `corpus` cycle at F_32003, every block element of an
        elimination and every F4 new element reaches `monic` already
        monic: the lists it copies are all generators' normal forms."""
        monic, normal_form = _Engine.monic, _Engine.normal_form
        last = [None]  # the normal form returned last
        kept = []
        copied = []

        def note_form(self, *args):
            last[0] = normal_form(self, *args)
            return last[0]

        def counted(self, terms):
            out = monic(self, terms)
            if out is terms:
                kept.append(len(terms))
            else:
                copied.append(terms is last[0])
            return out

        monkeypatch.setattr(_Engine, "normal_form", note_form)
        monkeypatch.setattr(_Engine, "monic", counted)
        results = run_regressions(field=GF(32003))
        assert results and all(r.ok for r in results)
        assert all(copied) and len(kept) > 1000


class TestIntersection:
    def test_principal(self, ring_p, vars_p):
        x, y, z, w = vars_p
        got = intersect(Ideal(ring_p, (x,)), Ideal(ring_p, (y,)))
        assert got.equals(Ideal(ring_p, (x * y,)))

    def test_two_lines(self, ring_p, vars_p):
        x, y, z, w = vars_p
        got = intersect(Ideal(ring_p, (x, y)), Ideal(ring_p, (z, w)))
        want = Ideal(ring_p, (x * z, x * w, y * z, y * w))
        assert got.equals(want)
        # brute-force membership both ways
        for g in got.groebner().polys:
            assert membership_by_linear_algebra(g, want)
        for g in want.gens:
            assert membership_by_linear_algebra(g, got)

    def test_three_coordinate_lines(self, ring_p, vars_p):
        x, y, z, w = vars_p
        got = intersect_many([Ideal(ring_p, (x, y)), Ideal(ring_p, (x, z)),
                              Ideal(ring_p, (y, z))])
        assert got.equals(Ideal(ring_p, (x * y, x * z, y * z)))

    def test_over_rationals(self, ring_q):
        x, y, z, w = ring_q.variables()
        got = intersect(Ideal(ring_q, (x, y)), Ideal(ring_q, (z, w)))
        assert got.equals(Ideal(ring_q, (x * z, x * w, y * z, y * w)))

    @pytest.mark.parametrize("ring", ["ring_p", "ring_q"])
    def test_cached_basis_matches_a_fresh_one(self, ring, request):
        ring = request.getfixturevalue(ring)
        x, y, z, w = ring.variables()
        a = Ideal(ring, (x * x - y * z, x * w))
        b = Ideal(ring, (y * y, 2 * x * y + z * w, w * w * w))
        got = intersect(a, b)
        cached = got.groebner()
        assert list(cached.polys) == list(got.gens)
        fresh = Ideal(ring, got.gens).groebner()
        assert fresh.polys == cached.polys
        assert fresh._polys == cached._polys


class TestColonAndSaturation:
    def test_colon_simple(self, ring_p, vars_p):
        x, y, z, w = vars_p
        got = colon(Ideal(ring_p, (x * y,)), Ideal(ring_p, (x,)))
        assert got.equals(Ideal(ring_p, (y,)))

    def test_colon_unit(self, ring_p, vars_p):
        x, y, z, w = vars_p
        ideal = Ideal(ring_p, (x * x, y * z))
        got = colon(ideal, Ideal(ring_p, (ring_p.one(),)))
        assert got.equals(ideal)

    def test_colon_hand_example(self, ring_p, vars_p):
        x, y, z, w = vars_p
        got = colon(Ideal(ring_p, (x * x, x * y)), Ideal(ring_p, (x,)))
        assert got.equals(Ideal(ring_p, (x, y)))

    def test_saturate_hand_example(self, ring_p, vars_p):
        x, y, z, w = vars_p
        sat, steps = saturate(Ideal(ring_p, (x * x * y, x * x * z)),
                              Ideal(ring_p, (x,)))
        assert sat.equals(Ideal(ring_p, (y, z)))
        assert steps == 2

    def test_saturate_by_unit(self, ring_p, vars_p):
        x, y, z, w = vars_p
        ideal = Ideal(ring_p, (x * y, z * z))
        sat, steps = saturate(ideal, Ideal(ring_p, (ring_p.one(),)))
        assert sat.equals(ideal)
        assert steps == 0

    def test_saturation_is_fixed_point(self, ring_p, vars_p):
        x, y, z, w = vars_p
        ideal = Ideal(ring_p, (x * x * y, x * y * y, z * x * x))
        by = Ideal(ring_p, (x, y))
        sat, _ = saturate(ideal, by)
        again = colon(sat, by)
        assert sat.equals(again)
        # containment I subset of sat
        gb = sat.groebner()
        assert all(gb.contains(g) for g in ideal.gens)

    def test_saturate_irrelevant_acm_curve(self, ring_p, vars_p):
        x, y, z, w = vars_p
        ideal = Ideal(ring_p, (x, y))
        assert saturate_irrelevant(ideal).equals(ideal)
        assert is_saturated(ideal)

    def test_saturate_irrelevant_primary(self, ring_p, vars_p):
        x, y, z, w = vars_p
        m2 = power_of_variables(ring_p, 2)
        assert saturate_irrelevant(m2).is_unit()
        assert not is_saturated(m2)

    def test_variable_saturation_keeps_saturated_ideals(self, ring_p, vars_p):
        x, y, z, w = vars_p
        # (x^2) is saturated even though x-saturation alone would destroy it
        ideal = Ideal(ring_p, (x * x,))
        assert saturate_irrelevant(ideal).equals(ideal)
        assert is_saturated(ideal)
        assert saturate_by_variable(ideal, 0).is_unit()

    def test_matches_iterated_colon_by_m(self, ring_p, vars_p):
        x, y, z, w = vars_p
        m = Ideal(ring_p, (x, y, z, w))
        for gens in [(x * x, x * y, y * y * z), (x * z - y * y, w * w * x),
                     (x * x * y - x * y * y,)]:
            ideal = Ideal(ring_p, gens)
            fast = saturate_irrelevant(ideal)
            slow, _ = saturate(ideal, m)
            assert fast.equals(slow)


class TestSaturateIrrelevant:
    """One saturation by a generic linear form gives the reduced grevlex
    basis of the per-variable oracle, generator for generator."""

    @staticmethod
    def _check(ideal):
        got = saturate_irrelevant(ideal)
        want = saturate_by_variables(ideal).groebner().polys
        assert got.gens == want
        assert got.groebner().polys == want
        return got

    @pytest.mark.parametrize("name", [n for n in arrangement_names()
                                      if n != "thirty_one_planes"])
    def test_corpus(self, name):
        arr = load_arrangement(name)
        self._check(jacobian_ideal(arr))
        self._check(top_comb(arr))

    def test_sweep_pool(self):
        for text in sweep_texts():
            arr = parse_arrangement(text)
            self._check(jacobian_ideal(arr))
            self._check(top_comb(arr))

    @pytest.mark.parametrize("name,field", [
        pytest.param(name, field, id=f"{name}-{tag}")
        for name, field, tag in [
            ("seven_planes", GF(32003), "p"),
            ("four_planes_point", GF(32003), "p"),
            ("nine_planes", GF(32003), "p"), ("top_block", GF(32003), "p"),
            ("seven_planes", QQ, "q"), ("four_planes_point", QQ, "q")]])
    def test_embedded_point(self, name, field):
        """top ∩ m^k has an embedded component at the irrelevant ideal
        once k is above top's lowest generator degree, and saturating
        removes it."""
        top = top_comb(load_arrangement(name, field=field))
        low = min(g.total_degree() for g in top.gens)
        for k in (2, 5, low + 1):
            ideal = intersect(top, power_of_variables(top.ring, k))
            assert ideal.equals(top) == (k <= low)
            assert self._check(ideal).equals(top)

    def test_small_ideals(self, ring_p, vars_p):
        x, y, z, w = vars_p
        for gens in [(x * x,), (x * x, x * y, y * y * z),
                     (x * z - y * y, w * w * x), (x * x * y - x * y * y,)]:
            self._check(Ideal(ring_p, gens))
        self._check(power_of_variables(ring_p, 2))

    def test_zero_and_unit_unchanged(self, ring_p):
        zero = Ideal(ring_p, ())
        unit = Ideal(ring_p, (ring_p.one(),))
        assert saturate_irrelevant(zero) is zero
        assert saturate_irrelevant(unit) is unit

    def test_retry_cap(self, ring_p, vars_p, monkeypatch):
        x, y, z, w = vars_p
        # every Hilbert polynomial differs from every other: each check fails
        fresh = itertools.count()
        monkeypatch.setattr(
            homology, "hilbert",
            lambda ideal: SimpleNamespace(hp_coeffs=next(fresh)))
        with pytest.raises(InternalLimitError):
            saturate_irrelevant(Ideal(ring_p, (x * y, x * z)))
        # the input's check, then one per attempt
        assert next(fresh) == 1 + groebner._SATURATION_RETRIES


class TestRadicalMembership:
    def test_nilpotent_direction(self, ring_p, vars_p):
        x, y, z, w = vars_p
        assert radical_membership(x, Ideal(ring_p, (x * x,)))

    def test_negative(self, ring_p, vars_p):
        x, y, z, w = vars_p
        assert not radical_membership(z, Ideal(ring_p, (x, y)))

    def test_radical_generators_against_jacobian(self):
        from singlocus.arrangement import jacobian_ideal, radical_comb
        from singlocus.corpus import load_arrangement
        arr = load_arrangement("seven_planes")
        J = jacobian_ideal(arr)
        rad = radical_comb(arr)
        for g in rad.groebner().polys:
            assert radical_membership(g, J)
        gbr = rad.groebner()
        for g in J.gens:
            assert gbr.contains(g)


class TestElimination:
    def test_intersection_via_elimination_consistency(self, ring_p, vars_p):
        x, y, z, w = vars_p
        a = Ideal(ring_p, (x, y))
        b = Ideal(ring_p, (y, z))
        inter = intersect(a, b)
        ga, gbb = a.groebner(), b.groebner()
        for g in inter.groebner().polys:
            assert ga.contains(g) and gbb.contains(g)


class TestExactDivision:
    def test_divide(self, ring_p, vars_p):
        x, y, z, w = vars_p
        f = (x + y) * (z * z - w * y)
        assert exact_divide(f, x + y) == z * z - w * y

    def test_inexact_rejected(self, ring_p, vars_p):
        x, y, z, w = vars_p
        with pytest.raises(ValidationError):
            exact_divide(x * x + y, x)

    @pytest.mark.parametrize("field", [GF(32003), QQ], ids=["p", "q"])
    def test_random_products(self, field):
        rng = random.Random(f"exact division {field}")
        ring = PolyRing(("x", "y", "z", "w"), field)
        non_monic = 0
        for _ in range(60):
            f = _random_poly(rng, ring, rng.randint(0, 6), 4)
            g = _random_poly(rng, ring, rng.randint(1, 5), 3)
            if g.is_zero():
                continue
            non_monic += g.leading_term()[1] != field.one
            assert exact_divide(f * g, g) == f
            if g.total_degree():
                # a nonzero remainder of lower degree than g is never a multiple
                r = _random_poly(rng, ring, rng.randint(1, 3),
                                 g.total_degree() - 1)
                if not r.is_zero():
                    with pytest.raises(ValidationError):
                        exact_divide(f * g + r, g)
        assert non_monic > 40


class TestPackedLimits:
    """Degrees above MAX_DEGREE do not fit the packed exponent fields."""

    @pytest.fixture
    def xy(self):
        ring = PolyRing(("x", "y"), GF(32003))
        return ring.variables()

    def test_query_above_the_limit(self, xy):
        x, y = xy
        with pytest.raises(InternalLimitError):
            Ideal(x.ring, (x ** 20000, y)).contains(x ** 40000)

    def test_generator_above_the_limit(self, xy):
        x, y = xy
        with pytest.raises(InternalLimitError):
            Ideal(x.ring, (x ** 32768, y)).groebner()

    def test_pair_sugar_above_the_limit(self, xy):
        x, y = xy
        with pytest.raises(InternalLimitError):
            Ideal(x.ring, (x ** 20000 * y, x * y ** 20000)).groebner()

    def test_elimination_reduction_above_the_limit(self):
        ring = PolyRing(("t", "y"), GF(32003))
        t, y = ring.variables()
        # t is the lowest field of the words over (t, y)
        engine = _Engine(ring, _elimination_key(1))
        g = engine.monic(_to_internal(t - y ** 20000, engine.key))
        with pytest.raises(InternalLimitError):
            # would be y^80000
            engine.normal_form(_to_internal(t ** 4, engine.key),
                               [g[0][1]], [g[0][0]], [g])

    def test_coprime_pair_above_the_limit(self):
        """A pair with coprime leading terms is dropped before the guard
        reads its lcm, so this basis fits; its S-polynomial (degree
        40000) is checked on exponent tuples."""
        x, y, z, w = PolyRing(("x", "y", "z", "w"), GF(32003)).variables()
        ideal = Ideal(x.ring, (x ** 20000 - y ** 20000,
                               z ** 20000 - w ** 20000))
        gb = ideal.groebner()
        assert set(gb.polys) == set(ideal.gens)
        assert buchberger_criterion_holds(gb)

    @pytest.mark.parametrize("field", [GF(32003), QQ], ids=["p", "q"])
    def test_intersection_above_the_limit(self, field):
        """The driven elimination refuses a pair whose lcm is too high."""
        x, y, _ = PolyRing(("x", "y", "z"), field).variables()
        for a, b in ((x ** 20000 * y, x * y ** 20000),
                     (x ** 16000, y ** 16800)):
            with pytest.raises(InternalLimitError):
                intersect(Ideal(x.ring, (a,)), Ideal(x.ring, (b,)))

    def test_at_the_limit(self, xy):
        x, y = xy
        ideal = Ideal(x.ring, (x ** 32767, y))
        assert ideal.contains(x ** 32767 + y ** 32767)
        assert not ideal.contains(x ** 32766)


def _random_poly(rng, ring, nterms, maxdeg, coeff=None):
    """`coeff(rng)`, when given, draws each coefficient."""
    terms = {}
    for _ in range(nterms):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, maxdeg)):
            exps[rng.randrange(ring.nvars)] += 1
        if coeff is not None:
            terms[tuple(exps)] = coeff(rng)
        elif ring.field.p is None:
            terms[tuple(exps)] = QQ.from_int(rng.randint(-9, 9)) / rng.randint(1, 4)
        else:
            terms[tuple(exps)] = rng.randrange(ring.field.p)
    return ring.from_terms(terms)


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["p", "q"])
def test_normal_form_matches_merge_oracle(field):
    """The dividend accumulator reduces exactly like the merge kernel.

    The bases are random (not Groebner bases) and the dividends carry
    multiples of basis elements, so reductions cancel terms often.
    """
    rng = random.Random(f"normal form {field}")
    ring = PolyRing(("x", "y", "z", "w"), field)
    # grevlex, or the elimination of x (the lowest field)
    keys = [None, _elimination_key(3)]
    reductions = 0
    for _ in range(200):
        engine = _Engine(ring, rng.choice(keys))
        gens = [g for g in (_random_poly(rng, ring, rng.randint(1, 4), 3)
                            for _ in range(rng.randint(1, 4)))
                if g.total_degree()]  # a constant would reduce everything
        f = _random_poly(rng, ring, rng.randint(0, 6), 5)
        for g in gens:
            f = f + _random_poly(rng, ring, 1, 2) * g
        basis = [engine.monic(_to_internal(g, engine.key)) for g in gens]
        terms = _to_internal(f, engine.key)
        lt_ws = [t[0][1] for t in basis]
        lt_keys = [t[0][0] for t in basis]
        got = engine.normal_form(terms, lt_ws, lt_keys,
                                 engine.reducers(basis))
        want = merge_normal_form(terms, lt_ws, lt_keys, basis, engine.guard,
                                 field.p)
        assert got == want
        reductions += got != terms
    assert reductions > 150


class _CheckedDividend(_Dividend):
    """A Q `_Dividend` that checks every pair each `sub` touches: its value
    is exact, and its denominator follows the rule of `_Dividend`'s
    docstring.  `stats` counts the updates by kind; "crossed" counts the
    lcms that went past the normalization bound."""

    __slots__ = ("stats",)

    def __init__(self, terms, guard, stats):
        super().__init__(terms, None, guard)
        self.stats = stats

    def sub(self, g, c, mk, mw):
        d = g.nums[0]
        pd = c.denominator * (d // gcd(c.numerator, d))
        before = {gk + mk: self.coeffs.get(gk + mk) for gk, _, _ in g[1:]}
        super().sub(g, c, mk, mw)
        stats = self.stats
        for (gk, _, gc), gn in zip(g[1:], g.nums[1:]):
            assert Fraction(gn, d) == gc
            old = before[gk + mk]
            vn, vd = self.coeffs[gk + mk]
            want = -c * gc
            if old is None:
                stats["new"] += 1
                assert vd == pd
            else:
                want += Fraction(*old)
                if old[1] % pd == 0:
                    stats["equal" if old[1] == pd else "divides"] += 1
                    assert vd == old[1]
                elif lcm(old[1], pd).bit_length() > 2 * pd.bit_length() + 64:
                    stats["crossed"] += 1
                    assert gcd(vn, vd) == 1
                else:
                    stats["lcm"] += 1
                    assert vd == lcm(old[1], pd)
            assert vd > 0 and Fraction(vn, vd) == want


def _q_reduce_three_ways(engine, basis, reducers, terms, stats):
    """`_Engine.reduce` of `terms` on a checked int-pair dividend against
    `reducers`, checked term for term and quotient for quotient against
    both oracle dividends on the `Fraction` basis; returns the normal
    form."""
    lt_ws = [t[0][1] for t in basis]
    lt_keys = [t[0][0] for t in basis]
    got_quotients, lowest_quotients, fraction_quotients = [], [], []
    got = engine.reduce(_CheckedDividend(terms, engine.guard, stats), lt_ws,
                        lt_keys, reducers, quotients=got_quotients)
    lowest = engine.reduce(LowestTermsDividend(terms, engine.guard), lt_ws,
                           lt_keys, basis, quotients=lowest_quotients)
    fraction = engine.reduce(FractionDividend(terms, engine.guard), lt_ws,
                             lt_keys, basis, quotients=fraction_quotients)
    assert got == lowest == fraction
    assert got_quotients == lowest_quotients == fraction_quotients
    assert all(type(c) is Fraction for _, _, c in got)
    return got


def _fraction_of_bits(num_bits, den_bits):
    """A draw of a signed rational whose numerator and denominator have up
    to one of `num_bits` and one of `den_bits` bits."""
    def draw(rng):
        num = rng.randint(1, 1 << rng.choice(num_bits))
        return Fraction(rng.choice((-num, num)),
                        rng.randint(1, 1 << rng.choice(den_bits)))
    return draw


def test_q_dividend_matches_fraction_oracle():
    """Over Q, `_Engine.reduce` on the int-pair dividend gives term for term
    the normal form and the quotient sink it gives on the `Fraction` one
    and on the lowest-terms int-pair one.

    Numerators and denominators run past 2^64, and the dividends carry
    multiples of the basis elements, so terms cancel.
    """
    rng = random.Random("q dividend")
    ring = PolyRing(("x", "y", "z", "w"), QQ)
    wide_fraction = _fraction_of_bits((3, 70, 130), (2, 70, 130))
    stats = Counter()
    wide = cancelled = 0
    for _ in range(150):
        engine = _Engine(ring, rng.choice([None, _elimination_key(3)]))
        gens = [g for g in (_random_poly(rng, ring, rng.randint(1, 4), 3,
                                         wide_fraction)
                            for _ in range(rng.randint(1, 4)))
                if g.total_degree()]  # a constant would reduce everything
        f = _random_poly(rng, ring, rng.randint(0, 6), 5, wide_fraction)
        for g in gens:
            f = f + _random_poly(rng, ring, 1, 2, wide_fraction) * g
        basis = [engine.monic(_to_internal(g, engine.key)) for g in gens]
        terms = _to_internal(f, engine.key)
        got = _q_reduce_three_ways(engine, basis, engine.reducers(basis),
                                   terms, stats)
        wide += any(max(abs(c.numerator), c.denominator) >> 64
                    for _, _, c in got)
        cancelled += len(got) < len(terms)
    assert wide > 100 and cancelled > 50
    assert stats["new"] > 100 and stats["lcm"] > 100 and stats["crossed"] > 10


def test_q_dividend_reuses_one_reducer():
    """One reducer, its integer form built once, reduces many dividends, each
    by long multiples of it."""
    rng = random.Random("q reducer reuse")
    ring = PolyRing(("x", "y", "z", "w"), QQ)
    wide_fraction = _fraction_of_bits((3, 70), (2, 70, 130))
    engine = _Engine(ring)
    stats = Counter()
    steps = 0
    for _ in range(6):
        g = _random_poly(rng, ring, 6, 3, wide_fraction)
        if not g.total_degree():
            continue
        basis = [engine.monic(_to_internal(g, engine.key))]
        reducers = engine.reducers(basis)
        for _ in range(8):
            f = _random_poly(rng, ring, 20, 4, wide_fraction) * g
            quotient = _q_reduce_three_ways(engine, basis, reducers,
                                            _to_internal(f, engine.key), stats)
            assert not quotient
            steps += len(f.terms)
        assert list(reducers) == [0]
    assert steps > 1000


def test_q_dividend_reducers_sharing_a_denominator():
    """Reducers whose coefficients share one wide denominator: most updates
    find the stored denominator equal to, or a multiple of, the product's,
    and take no gcd."""
    rng = random.Random("q shared denominator")
    ring = PolyRing(("x", "y", "z", "w"), QQ)
    stats = Counter()
    for _ in range(40):
        den = rng.randint(1 << 90, 1 << 100)
        engine = _Engine(ring, rng.choice([None, _elimination_key(3)]))

        def shared(r):
            return Fraction(r.randint(-(1 << 20), 1 << 20) or 1, den)

        gens = [g for g in (_random_poly(rng, ring, rng.randint(2, 5), 3,
                                         shared) for _ in range(3))
                if g.total_degree()]
        f = _random_poly(rng, ring, 4, 5, shared)
        for g in gens:
            f = f + _random_poly(rng, ring, 3, 2) * g
        basis = [engine.monic(_to_internal(g, engine.key)) for g in gens]
        _q_reduce_three_ways(engine, basis, engine.reducers(basis),
                             _to_internal(f, engine.key), stats)
    assert stats["equal"] + stats["divides"] > 200


def test_q_dividend_thousand_bit_denominators():
    """Denominators of 1000 bits and more meet small ones: the lcms cross
    the normalization bound, and each crossing pair is stored in lowest
    terms.  The dividends are multiples of reducers with small
    coefficients, so the product denominators are small, plus terms of
    low degree with wide ones, which those products then update."""
    rng = random.Random("q thousand bits")
    ring = PolyRing(("x", "y", "z", "w"), QQ)
    wide_fraction = _fraction_of_bits((3, 1100), (1000, 1200))
    small_fraction = _fraction_of_bits((3,), (2,))
    stats = Counter()
    for _ in range(100):
        engine = _Engine(ring)
        gens = [g for g in (_random_poly(rng, ring, rng.randint(2, 4), 3,
                                         small_fraction)
                            for _ in range(rng.randint(1, 3)))
                if g.total_degree()]
        f = _random_poly(rng, ring, 6, 2, wide_fraction)
        for g in gens:
            f = f + _random_poly(rng, ring, 3, 2, small_fraction) * g
        basis = [engine.monic(_to_internal(g, engine.key)) for g in gens]
        _q_reduce_three_ways(engine, basis, engine.reducers(basis),
                             _to_internal(f, engine.key), stats)
    assert stats["crossed"] > 50


_BITS = st.sampled_from((3, 70, 1100))


@st.composite
def wide_fractions(draw):
    num = draw(_BITS.flatmap(lambda b: st.integers(1, 1 << b)))
    den = draw(_BITS.flatmap(lambda b: st.integers(1, 1 << b)))
    return Fraction(draw(st.sampled_from((-num, num))), den)


@st.composite
def q_polys(draw, ring, max_terms):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exps = tuple(draw(st.lists(st.integers(0, 2), min_size=4, max_size=4)))
        terms[exps] = draw(wide_fractions())
    return ring.from_terms(terms)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_q_dividend_pairs_stay_exact(data):
    """After every `sub`, each stored pair equals the exact `Fraction` that
    `FractionDividend` holds for its key, and its denominator follows the
    rule of `_Dividend`'s docstring; the popped terms agree."""
    ring = PolyRing(("x", "y", "z", "w"), QQ)
    engine = _Engine(ring)
    basis = [engine.monic(_to_internal(g, engine.key))
             for g in data.draw(st.lists(q_polys(ring, 5), min_size=1,
                                         max_size=3))]
    reducers = engine.reducers(basis)
    start = _to_internal(data.draw(q_polys(ring, 4)), engine.key)
    acc = _CheckedDividend(start, engine.guard, Counter())
    exact = FractionDividend(start, engine.guard)
    for _ in range(data.draw(st.integers(1, 12))):
        idx = data.draw(st.integers(0, len(basis) - 1))
        c = data.draw(wide_fractions())
        mw = _pack_plain(data.draw(st.lists(st.integers(0, 2), min_size=4,
                                            max_size=4)))
        mk = engine.key(mw)
        acc.sub(reducers[idx], c, mk, mw)
        exact.sub(basis[idx], c, mk, mw)
        assert {k: Fraction(*v) for k, v in acc.coeffs.items()} == exact.coeffs
    while (term := acc.pop()) is not None:
        assert term == exact.pop()
    assert exact.pop() is None


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["p", "q"])
def test_first_divisor_memo_matches_the_scan(field):
    """A memo shared while the basis grows by appending picks the same
    divisors as a fresh scan, so every normal form is the same."""
    rng = random.Random(f"divisor memo {field}")
    ring = PolyRing(("x", "y", "z", "w"), field)
    for _ in range(40):
        engine = _Engine(ring, rng.choice([None, _elimination_key(3)]))
        basis, lt_ws, lt_keys, memo = [], [], [], {}
        reducers = engine.reducers(basis)
        for _ in range(8):
            g = _random_poly(rng, ring, rng.randint(1, 3), 3)
            if g.total_degree():
                terms = engine.monic(_to_internal(g, engine.key))
                basis.append(terms)
                lt_ws.append(terms[0][1])
                lt_keys.append(terms[0][0])
            for _ in range(3):
                f = _random_poly(rng, ring, rng.randint(1, 6), 5)
                terms = _to_internal(f, engine.key)
                assert (engine.normal_form(terms, lt_ws, lt_keys, reducers,
                                           memo)
                        == engine.normal_form(terms, lt_ws, lt_keys,
                                              engine.reducers(basis)))
        assert memo


def _random_intersect_pairs(field):
    """60 seeded pairs of homogeneous ideals in 4 variables."""
    rng = random.Random("intersect")
    ring = PolyRing(("x", "y", "z", "w"), field)

    def random_ideal():
        gens = []
        while not gens or (len(gens) < 3 and rng.random() < 0.6):
            d = rng.randint(1, 3)
            g = ring.from_terms({m: rng.randint(-4, 4)
                                 for m in monomials_of_degree(4, d)
                                 if rng.random() < 0.4})
            if not g.is_zero():
                gens.append(g)
        return Ideal(ring, gens)

    for _ in range(60):
        yield random_ideal(), random_ideal()


def test_intersect_random_homogeneous():
    """Generators lie in both inputs; HF(a∩b) = HF(a) + HF(b) - HF(a+b)."""
    for a, b in _random_intersect_pairs(GF(32003)):
        inter = intersect(a, b)
        for g in inter.gens:
            assert membership_by_linear_algebra(g, a)
            assert membership_by_linear_algebra(g, b)
        both = Ideal(a.ring, a.gens + b.gens)
        for d in range(max(g.total_degree() for g in inter.gens) + 1):
            assert standard_monomial_count(inter, d) == (
                standard_monomial_count(a, d) + standard_monomial_count(b, d)
                - standard_monomial_count(both, d))


def _highest_lead_degree(ideal):
    return max(sum(e) for e in ideal.groebner().leading_exponents())


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["p", "q"])
def test_intersect_matches_the_ideal_oracle(field):
    """The degree-oriented kernel returns the reduced basis of the oracle,
    which always puts its first input into the t-block, in both argument
    orders; both orientations occur."""
    swapped = kept = 0
    for a, b in _random_intersect_pairs(field):
        for u, v in ((a, b), (b, a)):
            got = intersect(u, v)
            want = intersect_by_ideals(u, v)
            assert got.gens == want.gens
            assert got.groebner()._polys == want.groebner()._polys
            if _highest_lead_degree(v) < _highest_lead_degree(u):
                swapped += 1
            else:
                kept += 1
    assert swapped and kept


class TestIntersectMany:
    """Edge cases of the fold, as the Ideal-by-Ideal tree had them."""

    def test_empty(self):
        with pytest.raises(ValidationError):
            intersect_many([])

    def test_single_ideal_is_returned(self, ring_p, vars_p):
        x, y, z, w = vars_p
        a = Ideal(ring_p, (x * y, z))
        assert intersect_many([a]) is a

    def test_zero_ideal(self, ring_p, vars_p):
        x, y, z, w = vars_p
        a, b = Ideal(ring_p, (x, y)), Ideal(ring_p, (z,))
        for items in ([a, Ideal(ring_p, ()), b], [a, b, Ideal(ring_p, ())],
                      [Ideal(ring_p, ()), Ideal(ring_p, (ring_p.one(),))]):
            assert intersect_many(items).is_zero()

    def test_unit_ideals_are_dropped(self, ring_p, vars_p):
        x, y, z, w = vars_p
        unit = Ideal(ring_p, (ring_p.one(),))
        a, b = Ideal(ring_p, (x * y, z * z + x * w)), Ideal(ring_p, (y, w))
        assert intersect_many([a, unit]).gens == a.gens
        assert intersect_many([unit, a]).gens == a.gens
        both = intersect(a, b)
        assert intersect_many([a, unit, b]).gens == both.gens
        assert intersect_many([unit, a, b, unit]).gens == both.gens
        assert intersect_many([unit, unit]).gens == unit.gens
        # the ideal left comes back with its cached basis, not rebuilt
        assert intersect_many([unit, both]) is both
        assert intersect_many([a, unit]) is a

    def test_mixed_rings(self, ring_p, ring_q, vars_p):
        x, y, z, w = vars_p
        other = Ideal(ring_q, ring_q.variables()[:2])
        for items in ([Ideal(ring_p, (x,)), other],
                      [Ideal(ring_p, (x,)), Ideal(ring_p, (y,)), other],
                      [Ideal(ring_p, ()), other]):
            with pytest.raises(RingContextError):
                intersect_many(items)

    def test_non_minimal_basis_is_an_invariant_error(self, ring_p, vars_p):
        x, y, z, w = vars_p
        key = _Engine(ring_p).key
        basis = [_to_internal(g, key) for g in (x * y, y * z, x * y * w)]
        with pytest.raises(InvariantError):
            groebner._check_minimal(basis, ring_p.nvars)
        # the divisor planted after the word it divides, and twice
        with pytest.raises(InvariantError):
            groebner._check_minimal([basis[2], basis[0]], ring_p.nvars)
        with pytest.raises(InvariantError):
            groebner._check_minimal(basis[1:2] * 2, ring_p.nvars)
        groebner._check_minimal(basis[:2], ring_p.nvars)


def _undriven_intersection(a, b):
    """The t-free part of the plain block elimination: the path that the
    Hilbert drive, the t-free finish and the batch kernel replace, as
    engine terms."""
    ring = a.ring
    ext = PolyRing(("t",) + ring.names, ring.field)
    t = ext.variable(0)
    engine = PairEngine(ext, _elimination_key(ring.nvars))
    blocks = [[_to_internal(m * ext.from_terms({(0,) + e: c
                                                for e, c in g.terms.items()}),
                            engine.key)
               for g in ideal.groebner()]
              for m, ideal in ((t, a), (ext.one() - t, b))]
    t_mask = (1 << WIDTH) - 1
    return [[(k, w >> WIDTH, c) for k, w, c in terms]
            for terms in engine.buchberger([], blocks=blocks)
            if not terms[0][1] & t_mask]


def _random_homogeneous_ideal(rng, ring):
    gens = []
    for _ in range(rng.randint(1, 3)):
        mons = monomials_of_degree(ring.nvars, rng.randint(1, 3))
        picked = rng.sample(mons, min(len(mons), rng.randint(1, 4)))
        coeffs = (-3, -2, -1, 1, 2, 5)
        gens.append(ring.from_terms({m: ring.field.from_int(rng.choice(coeffs))
                                     for m in picked}))
    return Ideal(ring, gens)


def test_largest_prime_is_the_last_below_the_bound():
    assert not any(_is_prime(n) for n in range(LARGEST_PRIME + 1, _MR_BOUND))


@pytest.mark.parametrize("field, trials",
                         [(GF(32003), 200), (QQ, 50)]
                         + [(f, 60) for f in LARGE_PRIMES],
                         ids=["p", "q"] + LARGE_IDS)
def test_intersect_matches_undriven_elimination(field, trials, drives):
    """The Hilbert-driven intersection equals the plain block elimination.

    Random homogeneous pairs in 3-5 variables; the test also checks that
    the drive did drop pairs, so the fast path was exercised.  Over F_p
    the driven run reduces each degree as a batch of packed rows and the
    undriven one pair by pair on dividends; the large primes need row
    slots wider than 64 bits.
    """
    rng = random.Random(f"driven intersect {field}")
    for _ in range(trials):
        ring = PolyRing(("x", "y", "z", "w", "v")[:rng.randint(3, 5)], field)
        a = _random_homogeneous_ideal(rng, ring)
        b = _random_homogeneous_ideal(rng, ring)
        assert intersect(a, b).groebner()._polys == _undriven_intersection(a, b)
    assert len(drives) == trials
    assert sum(1 for d in drives if d.dropped) > trials // 2
    if field.p:
        assert sum(d.rows for d in drives) > 0


@pytest.mark.parametrize("field", LARGE_PRIMES, ids=LARGE_IDS)
def test_top_comb_at_large_primes(field, drives):
    """top_comb(nine_planes) has Hilbert polynomial 42t - 174, as at
    p = 32003, with its intersections reduced as batches of rows."""
    top = top_comb(load_arrangement("nine_planes", field))
    assert hilbert(top).hp_coeffs == (Fraction(-174), Fraction(42))
    assert sum(d.rows for d in drives) > 0


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["p", "q"])
def test_every_intersection_is_driven(field, drives, monkeypatch):
    """The paper's intersections on nine_planes build one Hilbert drive per
    pair of bases intersected."""
    calls = []

    def counted(*args):
        built = len(drives)
        basis = intersect_bases(*args)
        calls.append(len(drives) - built)  # drives built by this call
        return basis

    intersect_bases = groebner._intersect_bases
    monkeypatch.setattr(groebner, "_intersect_bases", counted)
    arr = load_arrangement("nine_planes", field)
    for build in (top_comb, radical_comb,
                  lambda arr: symbolic_intersection(arr, rule_powers(arr, 2))):
        before = len(calls)
        build(arr)
        assert len(calls) > before
    assert set(calls) == {1}
    # over F_p each degree is reduced as one batch of rows; over Q pair by
    # pair
    rows = sum(d.rows for d in drives)
    assert rows > 0 if field.p else rows == 0
    assert sum(d.zero_rows for d in drives) <= rows
    assert (sum(d.batches for d in drives) > 0) == bool(field.p)


def test_batch_column_without_a_divisor_is_loud(ring_p, vars_p):
    """A column that the drive admits but no leading term divides is an
    `InvariantError` in symbolic preprocessing, not a wrong pivot.  The
    S-polynomial of x^2 + y^2 and x*y is y^3, which neither divides."""
    x, y, z, w = vars_p

    class Admitting(_HilbertDrive):
        def divisible(self, w, d):
            return True

    engine = _Engine(ring_p)
    drive = Admitting(ring_p.nvars, lambda d: 10 ** 9)  # never full
    gens = [_to_internal(g, engine.key) for g in (x * x + y * y, x * y)]
    with pytest.raises(InvariantError):
        engine.buchberger(gens, drive=drive)
    # without a drive the column has no pivot, and y^3 joins the basis
    basis = Ideal(ring_p, (x * x + y * y, x * y)).groebner().polys
    assert basis == (x * y, x * x + y * y, y ** 3)


def _undriven_runs(monkeypatch, build):
    """(engine, arguments, basis) for each Buchberger run without a drive
    that `build()` makes through `groebner._Engine`."""
    runs = []

    class Recorded(_Engine):
        def buchberger(self, gens_internal, blocks=(), drive=None,
                       eliminate=0):
            basis = super().buchberger(gens_internal, blocks, drive,
                                       eliminate)
            if drive is None:
                runs.append((self, (gens_internal, blocks, None, eliminate),
                             basis))
            return basis

    with monkeypatch.context() as patched:
        patched.setattr(groebner, "_Engine", Recorded)
        build()
    return runs


@pytest.mark.parametrize("field", [GF(32003)] + LARGE_PRIMES,
                         ids=["p"] + LARGE_IDS)
def test_undriven_batches_match_the_pair_loop(field, monkeypatch):
    """Every F_p run without a drive reduces its degrees as batches of
    rows, and gives the reduced basis of the pair loop (`PairEngine`):
    J and `saturate_irrelevant(J)` on the corpus, J on the `sweep` pool,
    and radical membership's extension ring, whose generator 1 - s * f
    is not homogeneous.  The large primes need row slots wider than 64
    bits."""
    def build():
        for name in arrangement_names():
            if name != "thirty_one_planes":
                saturate_irrelevant(jacobian_ideal(load_arrangement(name,
                                                                    field)))
        for text in sweep_texts():
            jacobian_ideal(parse_arrangement(text, field)).groebner()
        ring = PolyRing(("x", "y", "z", "w"), field)
        x, y, z, w = ring.variables()
        assert radical_membership(x, Ideal(ring, (x * x,)))
        assert not radical_membership(z, Ideal(ring, (x, y)))
        arr = load_arrangement("seven_planes", field)
        J = jacobian_ideal(arr)
        assert all(radical_membership(g, J)
                   for g in radical_comb(arr).groebner().polys)

    runs = _undriven_runs(monkeypatch, build)
    inhomogeneous = 0
    for engine, args, basis in runs:
        assert PairEngine(engine.ring, engine.key).buchberger(*args) == basis
        degree_of = _degree_func(engine.ring.nvars)
        inhomogeneous += any(len({degree_of(w) for _, w, _ in terms}) > 1
                             for terms in args[0])
    assert len(runs) > 50 and inhomogeneous > 2


def _checked_tail_reduce(monkeypatch):
    """Patch `_Engine.tail_reduce` so that every call must give what
    `conftest.tail_reduce_all` gives on the same kept elements, byte for
    byte; returns the counts of runs, kept elements, elements that it
    normal-formed (those not returned as they came), forced elements and
    runs with a forced element.  The kept and normal-formed elements of
    the runs made inside `_intersect_bases` are also counted apart, as
    `intersection_kept` and `intersection_normal_formed`."""
    counts = Counter()
    tail_reduce = _Engine.tail_reduce
    intersect_bases = groebner._intersect_bases
    inside = []

    def intersecting(*args):
        inside.append(True)
        try:
            return intersect_bases(*args)
        finally:
            inside.pop()

    def checked(self, kept, forced):
        out = tail_reduce(self, kept, forced)
        assert repr(out) == repr(tail_reduce_all(self, kept))
        normal_formed = sum(got is not terms for got, terms in zip(out, kept))
        counts["runs"] += 1
        counts["kept"] += len(kept)
        counts["normal_formed"] += normal_formed
        if inside:
            counts["intersection_kept"] += len(kept)
            counts["intersection_normal_formed"] += normal_formed
        counts["forced"] += sum(forced)
        counts["forced_runs"] += any(forced)
        return out

    monkeypatch.setattr(_Engine, "tail_reduce", checked)
    monkeypatch.setattr(groebner, "_intersect_bases", intersecting)
    return counts


@pytest.mark.parametrize("field", [GF(32003)] + LARGE_PRIMES + [QQ],
                         ids=["p"] + LARGE_IDS + ["q"])
def test_tail_reduce_matches_the_full_pass(field, monkeypatch, module_runs):
    """Every Buchberger run behind J, top (by the intersection tree) and
    rad of the corpus arrangements but `thirty_one_planes` and of the
    `sweep` pool, behind `saturate_irrelevant(J)` of those corpus
    arrangements, behind the driven bases of `construct_lr(2, seed=7)`
    and `construct_lr_radical(2, seed=7)` and behind the module bases of
    the deficiency tables of the corpus top and rad ends with the reduced
    basis of the pass that normal-forms every kept element.  The
    liaison bases take generators of several degrees, which join the
    completion at their own degrees.  None of these runs forces an
    element: none keeps a block element (an intersection's blocks have t
    in every leading word) and every input is homogeneous, the module
    columns in the twisted degrees of their free module.  Over F_p, where
    each batch is back-substituted, the runs of J, top and rad inside
    `_intersect_bases` normal-form no kept element (0 of 2007 at
    p = 32003), and the runs on generators fewer than one kept element in
    fifteen (67 of 1363, each a generator with a tail word equal to the
    leading word of a later generator of its degree); so the check does
    not depend on the shape of the intersection trees.  The module bases
    also have the leading words of the pair-by-pair loop
    (`conftest.check_module_leads`)."""
    counts = _checked_tail_reduce(monkeypatch)
    corpus = [load_arrangement(name, field) for name in arrangement_names()
              if name != "thirty_one_planes"]
    sweep = [parse_arrangement(text, field) for text in sweep_texts()]
    curves = []
    for arr in corpus + sweep:
        jacobian_ideal(arr).groebner()
        curves.append((tree_top(arr), radical_comb(arr)))
    assert counts["runs"] > 100 and counts["intersection_kept"] > 1000
    generator_kept = counts["kept"] - counts["intersection_kept"]
    assert generator_kept > 1000
    if field.p:
        assert counts["intersection_normal_formed"] == 0
        assert 0 < counts["normal_formed"] < generator_kept // 15
    runs = counts["runs"]
    for arr in corpus:
        saturate_irrelevant(jacobian_ideal(arr))
    for construct in (construct_lr, construct_lr_radical):
        construct(2, seed=7, field=field).ideal.groebner()
    assert counts["runs"] > runs + 30
    for top, rad in curves[:len(corpus)]:
        rao_dimensions(top)
        rao_dimensions(rad)
    assert check_module_leads(module_runs) > 10
    assert counts["forced"] == 0


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["p", "q"])
def test_forced_pass_fires_on_rabinowitsch_runs(field, monkeypatch):
    """Radical membership adds 1 - s * f, which is not homogeneous, so
    in some of its runs an element joins below the degree being joined;
    the final pass then normal-forms every kept element of that run, and
    gives the full pass's basis.  On the membership checks of
    `test_undriven_batches_match_the_pair_loop`."""
    ring = PolyRing(("x", "y", "z", "w"), field)
    x, y, z, w = ring.variables()
    arr = load_arrangement("seven_planes", field)
    J = jacobian_ideal(arr)
    rad = radical_comb(arr).groebner().polys
    counts = _checked_tail_reduce(monkeypatch)
    assert radical_membership(x, Ideal(ring, (x * x,)))
    assert not radical_membership(z, Ideal(ring, (x, y)))
    assert all(radical_membership(g, J) for g in rad)
    assert 0 < counts["forced_runs"] < counts["runs"]


class TestTailReduceFallbacks:
    """Hand-made runs that reach each case in which `_Engine.tail_reduce`
    normal-forms an element, and two in which it has nothing to do; each
    is checked against the full pass."""

    @pytest.fixture(params=[GF(32003), QQ], ids=["p", "q"])
    def ring(self, request):
        return PolyRing(("x", "y", "z", "w"), request.param)

    def test_block_element(self, ring, monkeypatch):
        """x + y and y form a Groebner basis but not a reduced one; as a
        block it joins unreduced, and every block element is
        normal-formed."""
        counts = _checked_tail_reduce(monkeypatch)
        x, y, z, w = ring.variables()
        engine = _Engine(ring)
        block = [_to_internal(g, engine.key) for g in (x + y, y)]
        basis = engine.buchberger([], blocks=(block,))
        assert basis == [_to_internal(g, engine.key) for g in (y, x)]
        assert counts["normal_formed"] == 2

    def test_generator_after_a_lower_degree_element(self, ring,
                                                     monkeypatch):
        """The S-element y^2 z of x z + y z and x y joins in degree 3,
        before the generator y^4 + y^2 z^2 of degree 4, whose tail it
        divides: the generator joins reduced, as y^4, and the final pass
        has nothing to do."""
        counts = _checked_tail_reduce(monkeypatch)
        x, y, z, w = ring.variables()
        basis = Ideal(ring, (x * y, x * z + y * z,
                             y ** 4 + y * y * z * z)).groebner().polys
        assert set(basis) == {x * y, x * z + y * z, y * y * z, y ** 4}
        assert counts["normal_formed"] == 0

    def test_later_element_of_the_same_degree(self, ring, monkeypatch):
        """The generator y^3 + y^2 z joins before the S-element y^2 z of
        its degree: its tail word is that element's leading word, the
        case that the final pass looks for."""
        counts = _checked_tail_reduce(monkeypatch)
        x, y, z, w = ring.variables()
        basis = Ideal(ring, (x * y, x * z + y * z,
                             y ** 3 + y * y * z)).groebner().polys
        assert set(basis) == {x * y, x * z + y * z, y * y * z, y ** 3}
        assert counts["normal_formed"] == 1

    def test_block_before_a_generator_of_the_same_degree(self, ring,
                                                         monkeypatch):
        """Blocks join before the generators: the generator x^2 + y^2
        joins reduced against the block element y^2, as x^2, and only the
        block element is normal-formed."""
        counts = _checked_tail_reduce(monkeypatch)
        x, y, z, w = ring.variables()
        engine = _Engine(ring)
        basis = engine.buchberger([_to_internal(x * x + y * y, engine.key)],
                                  blocks=([_to_internal(y * y, engine.key)],))
        assert basis == [_to_internal(g, engine.key) for g in (y * y, x * x)]
        assert counts["normal_formed"] == 1 and counts["forced"] == 1

    def test_lower_degree_element_earlier_in_its_batch(self, monkeypatch):
        """Inhomogeneous rows can give a batch an element of lower degree
        before one whose tail it divides below the leading word: z joins
        in the same batch as, and before, x y + 6 y^2 + 4 z^2.  Found by
        a seeded random search over F_7.  z joins below the degree of its
        batch, so every kept element is forced through the final pass."""
        counts = _checked_tail_reduce(monkeypatch)
        ring = PolyRing(("x", "y", "z"), GF(7))
        x, y, z = ring.variables()
        engine = _Engine(ring)
        gens = (2 * x * z + 3 * z, 2 * x ** 3 + 5 * x * z + 5 * y,
                4 * x * x + 3 * x * y + 5 * z)
        basis = engine.buchberger([_to_internal(g, engine.key) for g in gens])
        assert basis == [_to_internal(g, engine.key)
                         for g in (z, x * y + 6 * y * y, x * x + 6 * y * y,
                                   y ** 3 + 6 * y)]
        assert counts["normal_formed"] == counts["forced"] == 4

    def test_generators_join_reduced(self, ring, monkeypatch):
        """Generators of one degree join in ascending leading order, each
        reduced against those before it: (x^2 + y^2, y^2) needs no normal
        form at the end, since y^2 joins first and x^2 + y^2 joins as
        x^2."""
        counts = _checked_tail_reduce(monkeypatch)
        x, y, z, w = ring.variables()
        basis = Ideal(ring, (x * x + y * y, y * y)).groebner().polys
        assert basis == (y * y, x * x)
        assert counts["normal_formed"] == 0


@pytest.mark.parametrize("p", [32003, 2 ** 61 - 1], ids=["p", "p61"])
def test_batches_leave_no_later_lead_in_a_tail(p, monkeypatch):
    """After each batch of rows, no new element's tail holds the leading
    word of a new element after it: on the intersection trees of top and
    rad of the octahedron section (the corpus `graphic` entry) and of
    `fifteen_planes`, and on a small ideal (found by a seeded random
    search) one of whose batches has a later leading word at the lowest
    column of an earlier tail.  Back-substitution rewrites some elements
    and keeps every leading term."""
    counts = Counter()
    reduce_batch = _Engine.reduce_batch

    def checked(self, batch, polys, lt_keys, lt_ws, memo, add, drive):
        start = len(polys)
        joined = []

        def recorded(terms):
            add(terms)
            joined.append(polys[-1])

        reduce_batch(self, batch, polys, lt_keys, lt_ws, memo, recorded,
                     drive)
        for n, terms in enumerate(joined):
            now = polys[start + n]
            assert now[0] == terms[0]
            later = set(lt_ws[start + n + 1:])
            assert not any(w in later
                           for _, w, _ in itertools.islice(now, 1, None))
            counts["rewritten"] += now is not terms
        counts["new"] += len(joined)

    monkeypatch.setattr(_Engine, "reduce_batch", checked)
    field = GF(p)
    for arr in (generic_section(graphic_arrangement(load_graph("octahedron"),
                                                    field), seed=11),
                load_arrangement("fifteen_planes", field)):
        tree_top(arr)
        radical_comb(arr)
    ring = PolyRing(("x", "y", "z", "w"), field)
    x, y, z, w = ring.variables()
    Ideal(ring, (3 * x * x * z + 5 * x * y * z,
                 2 * x * x * y + 6 * x * y * w + 4 * y * y * w,
                 7 * x * z * w + 6 * x * w * w,
                 5 * y * y * z + 4 * y * z * w)).groebner()
    assert 0 < counts["rewritten"] < counts["new"]


@pytest.mark.parametrize("nvars", [1, 3, 4])
def test_degree_counter_matches_standard_monomials(nvars):
    """dim I_d from the counter equals C(n+d-1, d) - dim (R/I)_d, from 0 up,
    so also 0 in the degrees below the lowest generator degree."""
    ring = PolyRing(("x", "y", "z", "w")[:nvars], GF(32003))
    rng = random.Random(f"degree counter {nvars}")
    for _ in range(20):
        leads = {rng.choice(monomials_of_degree(nvars, rng.randint(2, 5)))
                 for _ in range(rng.randint(1, 4))}
        ideal = Ideal(ring, [ring.from_terms({e: 1}) for e in leads])
        counter = _DegreeCounter(nvars,
                                 [_pack_plain(e) for e in leads])
        for d in range(9):
            want = (len(monomials_of_degree(nvars, d))
                    - standard_monomial_count(ideal, d))
            assert counter.count(d) == want


def test_degree_counter_takes_generators_at_the_current_degree():
    counter = _DegreeCounter(2)
    assert counter.count(1) == 0
    counter.add(_pack_plain((1, 1)), 2)
    assert counter.count(2) == 1
    counter.add(_pack_plain((2, 0)), 2)  # joins the counted degree
    assert counter.count(2) == 2
    assert counter.count(3) == 3  # x^3, x^2 y, x y^2
    with pytest.raises(InvariantError):
        counter.add(_pack_plain((0, 2)), 2)


def test_hilbert_count_above_its_target_is_an_invariant_error():
    x = _pack_plain((1, 0))
    # a = b = (x): dim N_1 = 2
    ca, cb = _DegreeCounter(2, [x]), _DegreeCounter(2, [x])
    drive = _HilbertDrive(2, lambda d: ca.count(d) + cb.count(d),
                          eliminate=True)
    # a t-free lead x counts as x and as t * x
    drive.note(_pack_plain((0, 1, 0)))
    assert drive.full(1)
    # a lead t * y cannot exist in N as well
    drive.note(_pack_plain((1, 0, 1)))
    with pytest.raises(InvariantError):
        drive.full(1)


# ---------------------------------------------------------------------------
# property tests


@st.composite
def small_homogeneous_ideal(draw, ring, coeffs=st.integers(-4, 4)):
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 2))
        terms = {}
        for m in monomials_of_degree(4, d):
            if draw(st.booleans()):
                terms[m] = draw(coeffs)
        if terms:
            g = ring.from_terms(terms)
            if not g.is_zero():
                gens.append(g)
    if not gens:
        gens = [ring.variable(0)]
    return Ideal(ring, tuple(gens))


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_intersection_membership_duality(data):
    ring = PolyRing(("x", "y", "z", "w"), GF(32003))
    a = data.draw(small_homogeneous_ideal(ring))
    b = data.draw(small_homogeneous_ideal(ring))
    inter = intersect(a, b)
    ga, gb, gi = a.groebner(), b.groebner(), inter.groebner()
    for d in (1, 2, 3):
        for m in monomials_of_degree(4, d)[::3]:
            f = ring.from_terms({m: 1})
            assert gi.contains(f) == (ga.contains(f) and gb.contains(f))
    for g in gi.polys:
        assert ga.contains(g) and gb.contains(g)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_buchberger_criterion_property(data):
    ring = PolyRing(("x", "y", "z", "w"), GF(32003))
    ideal = data.draw(small_homogeneous_ideal(ring))
    assert buchberger_criterion_holds(ideal.groebner())


# a degree at either end of the packed range
_NEAR_LIMIT_DEGREE = st.one_of(st.integers(1, 40),
                               st.integers(MAX_DEGREE - 39, MAX_DEGREE))


@st.composite
def near_limit_form(draw, ring):
    """A monomial or a homogeneous binomial of a `_NEAR_LIMIT_DEGREE`:
    each exponent tuple cuts the degree at drawn points."""
    d = draw(_NEAR_LIMIT_DEGREE)
    cuts = st.lists(st.integers(0, d), min_size=ring.nvars - 1,
                    max_size=ring.nvars - 1)

    def exps():
        points = sorted(draw(cuts))
        return tuple(b - a for a, b in zip([0] + points, points + [d]))

    terms = {exps(): 1}
    if draw(st.booleans()):
        terms[exps()] = draw(st.integers(1, ring.field.p - 1))
    return ring.from_terms(terms)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_basis_near_the_degree_limit(data):
    """In 8 variables, forms of degree up to MAX_DEGREE either give a
    basis that passes Buchberger's criterion or are refused with
    `InternalLimitError`: no pair or reduction past the packed fields
    wraps around."""
    ring = PolyRing(tuple(f"x{i}" for i in range(8)), GF(32003))
    gens = data.draw(st.lists(near_limit_form(ring), min_size=1, max_size=3))
    try:
        gb = Ideal(ring, gens).groebner()
    except InternalLimitError:
        return
    assert buchberger_criterion_holds(gb)


# a rational with numerator and denominator of up to 200 bits
_WIDE_RATIONAL = st.builds(Fraction, st.integers(-(1 << 200), 1 << 200),
                           st.integers(1, 1 << 200))


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_q_basis_with_large_coefficients(data):
    """Over Q with coefficients of up to 200 bits, the reduced basis passes
    Buchberger's criterion and contains every generator."""
    ring = PolyRing(("x", "y", "z", "w"), QQ)
    ideal = data.draw(small_homogeneous_ideal(ring, _WIDE_RATIONAL))
    gb = ideal.groebner()
    assert buchberger_criterion_holds(gb)
    assert all(gb.contains(g) for g in ideal.gens)


@st.composite
def batch_row(draw):
    """A row of a batch: terms in descending key order on columns with
    gaps, a key shift, the first term packed, and the slot width of a
    prime over that many columns."""
    p = draw(st.sampled_from((32003, 2 ** 31 - 1, 2 ** 61 - 1,
                              LARGEST_PRIME)))
    ncols = draw(st.integers(1, 80))
    keys = [3 * c + 5 for c in range(ncols)]  # column c has key keys[c]
    columns = sorted(draw(st.sets(st.integers(0, ncols - 1), min_size=1)),
                     reverse=True)
    mk = draw(st.integers(-5, 5))
    coeff = st.one_of(st.just(p - 1), st.integers(1, p - 1))
    terms = [(keys[c] - mk, None, draw(coeff)) for c in columns]
    col = {k: c for c, k in enumerate(keys)}
    return terms, mk, draw(st.integers(0, 2)), col, _slot_bytes(p, ncols)


@given(batch_row())
@settings(max_examples=300, deadline=None)
def test_pack_row_matches_slice_copies(row):
    """A row packed from big-endian chunks and zero runs is the int that
    the slice-by-slice bytearray gave, with the same shift."""
    assert groebner._pack_row(*row) == pack_by_slices(*row)


# an exponent field: mostly small, so that zeros and divisibility occur,
# and sometimes at the top of the packed range
_FIELD = st.one_of(st.integers(0, 3), st.integers(0, MAX_DEGREE),
                   st.sampled_from((MAX_DEGREE - 1, MAX_DEGREE)))


@st.composite
def exponent_pair(draw):
    """Two exponent tuples of 1 to 9 fields: an 8-variable file plus t."""
    nvars = draw(st.integers(1, 9))
    a = tuple(draw(_FIELD) for _ in range(nvars))
    if draw(st.booleans()):
        b = tuple(min(MAX_DEGREE, x + draw(_FIELD)) for x in a)
        if draw(st.booleans()):
            a, b = b, a
    else:
        b = tuple(draw(_FIELD) for _ in range(nvars))
    return a, b


@given(exponent_pair())
@settings(max_examples=400, deadline=None)
def test_packed_monomial_helpers_match_tuple_oracle(pair):
    """The packed lcm, divisibility, coprimality and degree used by the
    Gebauer-Moller bookkeeping agree with their exponent-tuple formulas."""
    a, b = pair
    nvars = len(a)
    guard = groebner._guard(nvars)
    wa, wb = _pack_plain(a), _pack_plain(b)
    lcm = groebner._lcm(wa, wb, guard)
    assert lcm == _pack_plain(lcm_exps(a, b))
    # the later word of two is dropped exactly when the earlier divides it
    assert (groebner._minimal([wa, wb], guard, guard) == [0]) == \
        divides_exps(a, b)
    assert (groebner._minimal([wb, wa], guard, guard) == [0]) == \
        divides_exps(b, a)
    assert (lcm == wa + wb) == coprime_exps(a, b)
    degree = _degree_func(nvars)
    assert degree(wa) == sum(a) and degree(lcm) == sum(lcm_exps(a, b))


@st.composite
def word_list(draw):
    """Packed words of 1 to 8 fields in up to two module components, with
    duplicates and fields at MAX_DEGREE, and the component mask."""
    nvars = draw(st.integers(1, 8))
    exps = st.tuples(*[_FIELD] * nvars)
    words = [(draw(st.integers(0, 1)), e)
             for e in draw(st.lists(exps, max_size=12))]
    if words:
        words += draw(st.lists(st.sampled_from(words), max_size=4))
    return nvars, words


@given(word_list(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_minimal_matches_tuple_selection(case, by_degree):
    """`_minimal` keeps the position of each word that no earlier word of
    its component divides, in ascending packed order or in a degree-first
    order, and the kept words are then the minimal ones, each once."""
    nvars, words = case
    shift = WIDTH * nvars
    guard = groebner._guard(nvars)
    mask = guard | (-1 << shift)
    if by_degree:
        words.sort(key=lambda cw: (sum(cw[1]), cw))
    else:
        words.sort(key=lambda cw: (cw[0] << shift) | _pack_plain(cw[1]))
    packed = [(c << shift) | _pack_plain(e) for c, e in words]
    want = [n for n, (c, e) in enumerate(words)
            if not any(cm == c and divides_exps(em, e)
                       for cm, em in words[:n])]
    assert groebner._minimal(packed, guard, mask) == want
    kept = {words[n] for n in want}
    assert len(kept) == len(want)
    assert kept == {(c, e) for c, e in words
                    if not any(cm == c and em != e and divides_exps(em, e)
                               for cm, em in words)}
