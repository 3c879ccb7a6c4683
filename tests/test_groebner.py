"""Groebner engine and ideal toolbox."""

import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (LARGEST_PRIME, FractionDividend,
                      buchberger_criterion_holds, colon, coprime_exps,
                      divides_exps, exact_divide,
                      intersect_by_ideals, lcm_exps,
                      membership_by_linear_algebra, merge_normal_form,
                      monomials_of_degree, power_of_variables, saturate,
                      saturate_by_variable, saturate_by_variables,
                      standard_monomial_count)
from singlocus import groebner, homology
from singlocus.arrangement import (jacobian_ideal, parse_arrangement,
                                   radical_comb, rule_powers,
                                   symbolic_intersection, top_comb)
from singlocus.corpus import arrangement_names, load_arrangement
from singlocus.errors import (InternalLimitError, InvariantError,
                              RingContextError, ValidationError)
from singlocus.groebner import (GroebnerBasis, Ideal, _DegreeCounter,
                                _Dividend, _elimination_key, _Engine,
                                _hilbert_target, _HilbertDrive, _to_internal,
                                intersect, intersect_many, radical_membership,
                                saturate_irrelevant)
from singlocus.homology import hilbert, is_saturated
from singlocus.polyring import (_MR_BOUND, GF, QQ, MAX_DEGREE, WIDTH,
                                PolyRing, _degree_func, _is_prime,
                                _pack_plain)


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


def _sweep_texts():
    """The `.arr` texts of the benchmark's 16-arrangement `sweep` pool."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return [gen.arr_text(rows) for rows in gen.pool(gen.POOL_SEED, 16)]


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
        for text in _sweep_texts():
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
        got = engine.normal_form(terms, lt_ws, lt_keys, basis)
        want = merge_normal_form(terms, lt_ws, lt_keys, basis, engine.guard,
                                 field.p)
        assert got == want
        reductions += got != terms
    assert reductions > 150


def _wide_fraction(rng):
    """A rational whose numerator and denominator are each small or above
    2^64."""
    num = rng.randint(1, 1 << rng.choice((3, 70, 130)))
    return Fraction(rng.choice((-num, num)),
                    rng.randint(1, 1 << rng.choice((2, 70, 130))))


def test_q_dividend_matches_fraction_oracle():
    """Over Q, `_Engine.reduce` on the int-pair dividend gives term for term
    the normal form and the quotient sink it gives on the `Fraction` one.

    Numerators and denominators run past 2^64, and the dividends carry
    multiples of the basis elements, so terms cancel.
    """
    rng = random.Random("q dividend")
    ring = PolyRing(("x", "y", "z", "w"), QQ)
    wide = cancelled = 0
    for _ in range(150):
        engine = _Engine(ring, rng.choice([None, _elimination_key(3)]))
        gens = [g for g in (_random_poly(rng, ring, rng.randint(1, 4), 3,
                                         _wide_fraction)
                            for _ in range(rng.randint(1, 4)))
                if g.total_degree()]  # a constant would reduce everything
        f = _random_poly(rng, ring, rng.randint(0, 6), 5, _wide_fraction)
        for g in gens:
            f = f + _random_poly(rng, ring, 1, 2, _wide_fraction) * g
        basis = [engine.monic(_to_internal(g, engine.key)) for g in gens]
        terms = _to_internal(f, engine.key)
        lt_ws = [t[0][1] for t in basis]
        lt_keys = [t[0][0] for t in basis]
        got_quotients, want_quotients = [], []
        got = engine.reduce(_Dividend(terms, None, engine.guard), lt_ws,
                            lt_keys, basis, quotients=got_quotients)
        want = engine.reduce(FractionDividend(terms, engine.guard), lt_ws,
                             lt_keys, basis, quotients=want_quotients)
        assert got == want
        assert got_quotients == want_quotients
        assert all(type(c) is Fraction for _, _, c in got)
        wide += any(max(abs(c.numerator), c.denominator) >> 64
                    for _, _, c in got)
        cancelled += len(got) < len(terms)
    assert wide > 100 and cancelled > 50


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["p", "q"])
def test_first_divisor_memo_matches_the_scan(field):
    """A memo shared while the basis grows by appending picks the same
    divisors as a fresh scan, so every normal form is the same."""
    rng = random.Random(f"divisor memo {field}")
    ring = PolyRing(("x", "y", "z", "w"), field)
    for _ in range(40):
        engine = _Engine(ring, rng.choice([None, _elimination_key(3)]))
        basis, lt_ws, lt_keys, memo = [], [], [], {}
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
                assert (engine.normal_form(terms, lt_ws, lt_keys, basis, memo)
                        == engine.normal_form(terms, lt_ws, lt_keys, basis))
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
        groebner._check_minimal(basis[:2], ring_p.nvars)


def _undriven_intersection(a, b):
    """The t-free part of the plain block elimination: the path that the
    Hilbert drive and the t-free finish replace, as engine terms."""
    ring = a.ring
    ext = PolyRing(("t",) + ring.names, ring.field)
    t = ext.variable(0)
    engine = _Engine(ext, _elimination_key(ring.nvars))
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


#: primes whose batch rows need slots wider than 64 bits
LARGE_PRIMES = [GF(2 ** 31 - 1), GF(2 ** 61 - 1), GF(LARGEST_PRIME)]
LARGE_IDS = ["p31", "p61", "p82"]


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
    drive = _HilbertDrive(2, _hilbert_target(2, ((1, 0, [x]), (1, 0, [x]))),
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
    assert groebner._divides(wa, wb, guard) == divides_exps(a, b)
    assert groebner._divides(wb, wa, guard) == divides_exps(b, a)
    assert (lcm == wa + wb) == coprime_exps(a, b)
    degree = _degree_func(nvars)
    assert degree(wa) == sum(a) and degree(lcm) == sum(lcm_exps(a, b))
