"""Polynomial layer: orders, arithmetic, Kronecker products, derivatives,
parsing."""

import functools
import gc
import itertools
import time
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import LARGEST_PRIME, monomials_of_degree, product_by_terms
from singlocus import polyring
from singlocus.errors import ParseError, RingContextError, ValidationError
from singlocus.groebner import _elimination_key
from singlocus.polyring import (GF, MAX_DEGREE, QQ, WIDTH, PolyRing,
                                _degree_slots, _grevlex_key, _is_prime,
                                _kronecker_product, _pack_plain, _slot,
                                expand_product, gradient, parse_linear_expr,
                                validate_linear_form)


def grevlex_reference(a, b):
    """Definition-level grevlex comparison, written independently."""
    da, db = sum(a), sum(b)
    if da != db:
        return (da > db) - (da < db)
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            # smaller trailing exponent means larger monomial
            return 1 if x < y else -1
    return 0


def is_prime_by_trial_division(n):
    return n > 1 and all(n % q for q in range(2, int(n ** 0.5) + 1))


class TestPrimeField:
    def test_agrees_with_trial_division(self):
        for n in range(-2, 20000):
            assert _is_prime(n) == is_prime_by_trial_division(n), n

    def test_large_prime_is_quick(self):
        start = time.perf_counter()
        field = GF(2 ** 61 - 1)
        assert time.perf_counter() - start < 0.5
        assert field.mul(field.inv(12345), 12345) == 1

    @pytest.mark.parametrize("n", [2, 561, 3215031751, 2 ** 61 + 1,
                                   3317044064679887385961981])
    def test_rejected(self, n):
        # 561 is a Carmichael number and 3215031751 a strong pseudoprime
        # to the bases 2, 3, 5 and 7; the last one is beyond the exact bound
        with pytest.raises(ValidationError):
            GF(n)


def grevlex_word_key(nvars):
    """The grevlex key on exponent tuples, through their packed words."""
    key = _grevlex_key(nvars)
    return lambda exps: key(_pack_plain(exps))


def compare(u, v):
    return (u > v) - (u < v)


class TestMonomialOrders:
    def test_grevlex_frozen_example(self):
        # all degree-3 monomials in 2 variables, sorted by the definition
        monos = monomials_of_degree(2, 3)
        ref = sorted(monos, key=functools.cmp_to_key(grevlex_reference),
                     reverse=True)
        key = grevlex_word_key(2)
        fast = sorted(monos, key=key, reverse=True)
        assert fast == ref == [(3, 0), (2, 1), (1, 2), (0, 3)]
        assert key((2, 1)) > key((1, 2))

    def test_reflexivity(self):
        key = grevlex_word_key(4)
        assert key((1, 2, 0, 4)) == key((1, 2, 0, 4))

    def test_total_order_laws_exhaustive(self):
        monos = [m for d in range(5) for m in monomials_of_degree(4, d)]
        key = grevlex_word_key(4)
        keys = {m: key(m) for m in monos}
        # antisymmetry and totality
        for a, b in itertools.combinations(monos, 2):
            assert (keys[a] > keys[b]) != (keys[b] > keys[a])
        # transitivity on every comparable triple
        ranked = sorted(monos, key=lambda m: keys[m])
        for a, b, c in itertools.combinations(ranked, 3):
            assert keys[a] < keys[b] < keys[c]
            assert keys[a] < keys[c]
        # multiplicativity: m*a vs m*b agrees with a vs b, all degree <= 4
        for m in monos:
            for a, b in itertools.combinations(monos, 2):
                ma = tuple(x + y for x, y in zip(m, a))
                mb = tuple(x + y for x, y in zip(m, b))
                assert (key(ma) > key(mb)) == (keys[a] > keys[b])

    def test_grevlex_matches_reference_on_degree_4(self):
        monos = [m for d in range(5) for m in monomials_of_degree(3, d)]
        key = grevlex_word_key(3)
        for a, b in itertools.combinations(monos, 2):
            assert compare(key(a), key(b)) == grevlex_reference(a, b)

    def test_elimination_key_blocks(self):
        # t is the lowest field of a word over (t, x, y, z)
        key = _elimination_key(3)
        t_free = [_pack_plain((0,) + m)
                  for d in range(5) for m in monomials_of_degree(3, d)]
        t_multiples = [w + t for w in t_free for t in (1, 2)]
        # any multiple of t beats anything without it, whatever the degree
        assert min(map(key, t_multiples)) > max(map(key, t_free))
        assert key(_pack_plain((1, 0, 0, 0))) > key(_pack_plain((0, 7, 3, 9)))
        # on t-free words it is grevlex on the ring without t
        grevlex = _grevlex_key(3)
        assert all(key(w) == grevlex(w >> WIDTH) for w in t_free)

    def test_key_additivity(self):
        a, b = (1, 2, 0, 3), (4, 0, 5, 1)
        wa, wb = _pack_plain(a), _pack_plain(b)
        for key in (_grevlex_key(4), _elimination_key(3)):
            assert key(wa + wb) == key(wa) + key(wb)


# an exponent field: mostly small, so that ties occur, and sometimes at
# the top of the packed range
_FIELD = st.one_of(st.integers(0, 3), st.integers(0, MAX_DEGREE),
                   st.sampled_from((MAX_DEGREE - 1, MAX_DEGREE)))


@st.composite
def exponent_triple(draw):
    """Three exponent tuples of the same length, 1 to 8 fields."""
    nvars = draw(st.integers(1, 8))
    return tuple(tuple(draw(_FIELD) for _ in range(nvars)) for _ in range(3))


@given(exponent_triple())
@settings(max_examples=400, deadline=None)
def test_word_keys_at_the_limits(triple):
    """Up to 8 variables with fields up to MAX_DEGREE: the grevlex key of
    the packed word compares as the definition does and adds whenever the
    sum stays guard-free; the elimination key, with the first field as t,
    compares by t first and then by grevlex on the rest."""
    a, b, c = triple
    nvars = len(a)
    wa, wb, wc = map(_pack_plain, triple)
    key = _grevlex_key(nvars)
    assert compare(key(wa), key(wb)) == grevlex_reference(a, b)
    ab = tuple(x + y for x, y in zip(a, b))
    if max(ab) <= MAX_DEGREE:
        assert key(wa + wb) == key(wa) + key(wb)
    if nvars > 1:
        elim = _elimination_key(nvars - 1)
        want = compare(a[0], c[0]) or grevlex_reference(a[1:], c[1:])
        assert compare(elim(wa), elim(wc)) == want
        if max(ab) <= MAX_DEGREE:
            assert elim(wa + wb) == elim(wa) + elim(wb)


class TestArithmetic:
    def test_basic_ring_ops(self, ring_p):
        x, y, z, w = ring_p.variables()
        f = (x + y) * (x - y)
        assert f == x * x - y * y
        assert (f - f).is_zero()
        assert f.total_degree() == 2
        assert f.is_homogeneous()

    def test_zero_degree_is_none(self, ring_p):
        assert ring_p.zero().total_degree() is None

    def test_rational_coefficients_lowest_terms(self, ring_q):
        x = ring_q.variable(0)
        f = x.scale(Fraction(2, 4))
        assert f.terms[(1, 0, 0, 0)] == Fraction(1, 2)
        assert f.terms[(1, 0, 0, 0)].denominator == 2

    def test_pow(self, ring_p):
        x, y = ring_p.variable(0), ring_p.variable(1)
        assert (x + y) ** 3 == x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3

    def test_mixed_ring_rejected(self, ring_p, ring_q):
        with pytest.raises(RingContextError):
            ring_p.variable(0) + ring_q.variable(0)


class TestDerivatives:
    def test_monomial_rule(self, ring_p):
        x, y, z, w = ring_p.variables()
        f = x * y * z * w
        assert f.partial_derivative(0) == y * z * w

    def test_char_p_power(self):
        ring = PolyRing(("x",), GF(5))
        x = ring.variable(0)
        assert (x * x).partial_derivative(0) == x.scale(2)
        assert (x ** 5).partial_derivative(0).is_zero()

    def test_hand_gradient(self, ring_p):
        x, y, z, w = ring_p.variables()
        f = x * y * (x + y)
        gx, gy, gz, gw = gradient(f)
        assert gx == 2 * x * y + y * y
        assert gy == x * x + 2 * x * y
        assert gz.is_zero() and gw.is_zero()


class TestProducts:
    def test_two_coordinates(self, ring_p):
        x, y = ring_p.variable(0), ring_p.variable(1)
        assert expand_product([x, y]) == x * y

    def test_hand_expansion(self, ring_p):
        x, y = ring_p.variable(0), ring_p.variable(1)
        f = expand_product([x, y, x + y])
        assert f == x**2 * y + x * y**2

    def test_empty_product_rejected(self):
        with pytest.raises(ValidationError):
            expand_product([])

    def test_fifteen_forms_degree(self, ring_p):
        from singlocus.corpus import load_arrangement
        arr = load_arrangement("fifteen_planes")
        assert arr.defining_polynomial().total_degree() == 15


class TestSubstitution:
    def test_identity(self, ring_p):
        x, y, z, w = ring_p.variables()
        f = x * y + z * w
        assert f.substitute([x, y, z, w]) == f

    def test_rename(self, ring_p):
        st2 = PolyRing(("s", "t"), ring_p.field)
        s, t = st2.variables()
        f = s * t
        x, y = ring_p.variable(0), ring_p.variable(1)
        assert f.substitute([x, y]) == x * y

    def test_against_independent_expansion(self, ring_p):
        st2 = PolyRing(("s", "t"), ring_p.field)
        s, t = st2.variables()
        g = s * s * t + s * t * t
        x, z = ring_p.variable(0), ring_p.variable(2)
        image = g.substitute([x, x + z])
        expected = expand_product([x, x + z, x + (x + z)])
        assert image == expected

    def test_homomorphism_laws(self, ring_p):
        st2 = PolyRing(("s", "t"), ring_p.field)
        s, t = st2.variables()
        x, y = ring_p.variable(0), ring_p.variable(1)
        images = [x + y, x - y]
        f, g = s * t + t * t, s + t
        assert (f * g).substitute(images) == \
            f.substitute(images) * g.substitute(images)
        assert (f + g).substitute(images) == \
            f.substitute(images) + g.substitute(images)

    def test_leaves_no_reference_cycle(self, ring_p):
        """The powers of the images are cached in plain lists, so a call
        leaves nothing for the cyclic collector to free."""
        x, y, z, w = ring_p.variables()
        f = (x + 2 * y) ** 3 * z
        images = [x + y, x - y, z + w, w]
        gc.collect()
        gc.disable()
        try:
            assert f.substitute(images) == (3 * x - y) ** 3 * (z + w)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_images_over_another_field_are_refused(self):
        """No coefficient is carried across fields: x - y from F_32003 would
        reach Q as s + 32002*t, and 1/7 has no image in F_7."""
        cases = [(lambda x, y: x - y, GF(32003), QQ),
                 (lambda x, y: x.scale(Fraction(1, 7)) + y, QQ, GF(7))]
        for make, src, dst in cases:
            f = make(*PolyRing(("x", "y"), src).variables())
            images = PolyRing(("s", "t"), dst).variables()
            with pytest.raises(RingContextError, match="substitution from"):
                f.substitute(images)


# ---------------------------------------------------------------------------
# property tests


def random_linear(draw, ring):
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=ring.nvars,
                           max_size=ring.nvars).filter(lambda c: any(c)))
    return ring.linear_form([ring.field.from_int(c) for c in coeffs])


@st.composite
def product_of_forms(draw, field=None):
    ring = PolyRing(("x", "y", "z", "w"), field if field else GF(32003))
    n = draw(st.integers(2, 10))
    return expand_product([random_linear(draw, ring) for _ in range(n)])


@given(product_of_forms())
@settings(max_examples=40, deadline=None)
def test_euler_identity(f):
    """x.grad(f) = deg(f) * f for homogeneous f."""
    ring = f.ring
    acc = ring.zero()
    for i, g in enumerate(gradient(f)):
        acc = acc + ring.variable(i) * g
    assert acc == f.scale(ring.field.from_int(f.total_degree()))


@st.composite
def sparse_poly(draw, ring):
    n = draw(st.integers(1, 6))
    terms = {}
    for _ in range(n):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(ring.nvars))
        terms[exps] = draw(st.integers(-20, 20))
    return ring.from_terms(terms)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_leibniz_rule(data):
    ring = PolyRing(("x", "y", "z", "w"), GF(32003))
    f = data.draw(sparse_poly(ring))
    g = data.draw(sparse_poly(ring))
    i = data.draw(st.integers(0, 3))
    lhs = (f * g).partial_derivative(i)
    rhs = f * g.partial_derivative(i) + g * f.partial_derivative(i)
    assert lhs == rhs


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_rational_prime_field_agreement(data):
    """Arithmetic over QQ reduces mod p to arithmetic over F_p."""
    p = 32003
    rq = PolyRing(("x", "y", "z", "w"), QQ)
    rp = PolyRing(("x", "y", "z", "w"), GF(p))
    f = data.draw(sparse_poly(rq))
    g = data.draw(sparse_poly(rq))

    def reduce_mod(poly):
        return rp.from_terms({e: int(c) % p for e, c in poly.terms.items()})

    fp, gp = reduce_mod(f), reduce_mod(g)
    assert reduce_mod(f * g) == fp * gp
    assert reduce_mod(f + g) == fp + gp
    assert reduce_mod(f.partial_derivative(1)) == fp.partial_derivative(1)


# ---------------------------------------------------------------------------
# products of forms by Kronecker substitution


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
    expected = product_by_terms(a, b)
    degree = a.total_degree() + b.total_degree()
    assert _kronecker_product(a, b, degree) == expected
    assert a * b == expected


@pytest.mark.parametrize("p", PRIMES)
def test_kronecker_product_at_the_slot_bound(p):
    """Dense forms with every coefficient p - 1: each slot of the product
    sums as many products (p - 1)^2 as it can."""
    ring = PolyRing(NAMES[:4], GF(p))
    a = ring.from_terms({e: p - 1 for e in monomials_of_degree(4, 5)})
    b = ring.from_terms({e: p - 1 for e in monomials_of_degree(4, 7)})
    expected = product_by_terms(a, b)
    assert _kronecker_product(a, b, 12) == expected
    assert a * b == expected


@pytest.mark.parametrize("nvars, degree", [(1, 6), (2, 6), (4, 5), (8, 2)])
def test_kronecker_slots(nvars, degree):
    """The one slot layout: additive while the base exceeds the degree,
    ascending as grevlex descends within one degree, and read back by
    bisection in `_degree_slots`'s table, whose slots in base degree + 1
    are distinct."""
    base = 2 * degree + 1
    key = _grevlex_key(nvars)
    mons = sorted(monomials_of_degree(nvars, degree),
                  key=lambda e: -key(_pack_plain(e)))
    slots = [_slot(e, base) for e in mons]
    assert slots == sorted(set(slots))
    for a, b in itertools.product(mons[::3], mons[1::4]):
        ab = tuple(x + y for x, y in zip(a, b))
        assert _slot(ab, base) == _slot(a, base) + _slot(b, base)
    table, exps = _degree_slots(nvars, degree)
    assert table == sorted(set(table)) and len(table) == len(mons)
    for e in mons:
        assert exps[bisect_left(table, _slot(e, degree + 1))] == e
    assert (table, exps) == (
        sorted(_slot(e, degree + 1) for e in mons),
        sorted(mons, key=lambda e: _slot(e, degree + 1)))


@pytest.fixture
def kronecker_calls(monkeypatch):
    """The product degree of every `_kronecker_product` call made while
    the test runs."""
    calls = []

    def recorded(a, b, degree):
        calls.append(degree)
        return _kronecker_product(a, b, degree)

    monkeypatch.setattr(polyring, "_kronecker_product", recorded)
    return calls


def test_product_paths(kronecker_calls):
    """Dense forms over F_p take the Kronecker kernel, two 4-term linear
    forms included; sparse 8-variable forms, forms over Q, inhomogeneous
    and scalar operands take the term loop, and so do two 3-term linear
    forms, whose 9 term pairs cost the loop less than the kernel's fixed
    cost (`_LOOP_PAIRS`)."""
    dense = PolyRing(NAMES[:4], GF(32003))
    a = dense.from_terms({e: i + 1 for i, e in
                          enumerate(monomials_of_degree(4, 4))})
    b = dense.from_terms({e: 2 * i + 1 for i, e in
                          enumerate(monomials_of_degree(4, 6))})
    x, y, z, w = dense.variables()
    for f, g in ((a, b), (x + 2 * y + 3 * z - w, 4 * x - y + 5 * z + 7 * w)):
        assert f * g == product_by_terms(f, g)
    assert kronecker_calls == [10, 2]
    v = PolyRing(NAMES, GF(32003)).variables()
    c = v[0] * v[1] + 3 * v[7] ** 2
    d = v[2] ** 3 - v[4] * v[5] * v[6]
    e = PolyRing(NAMES[:4], QQ).from_terms(
        {m: 1 for m in monomials_of_degree(4, 4)})
    loop = [(c, d), (e, e), (a + x, b), (1 + x, b), (dense.constant(5), b),
            (b, dense.one()), (x + 2 * y + 3 * z, 4 * x - y + w)]
    kronecker_calls.clear()
    for f, g in loop:
        assert f * g == product_by_terms(f, g)
    assert b * 3 == b.scale(3)
    assert kronecker_calls == []


def test_kronecker_product_at_the_degree_bound(kronecker_calls):
    """Two variables and product degree MAX_DEGREE: the slot base is
    2^(WIDTH - 1), and the exponent of x_0 is read from the degree."""
    ring = PolyRing(NAMES[:2], GF(2 ** 61 - 1))
    da = MAX_DEGREE // 2
    db = MAX_DEGREE - da
    a = ring.from_terms({(da - k, k): k + 1 for k in range(0, da + 1, 97)})
    b = ring.from_terms({(db - k, k): 2 ** 61 - 2 - k
                         for k in range(0, db + 1, 89)})
    assert a * b == product_by_terms(a, b)
    assert kronecker_calls == [MAX_DEGREE]


# ---------------------------------------------------------------------------
# expression parser


class TestParser:
    def test_simple(self, ring_p):
        f = parse_linear_expr(ring_p, "2w + 3x - 5z")
        x, z, w = ring_p.variable(0), ring_p.variable(2), ring_p.variable(3)
        assert f == 2 * w + 3 * x - 5 * z

    def test_star_and_signs(self, ring_p):
        f = parse_linear_expr(ring_p, "-x + 2*y - -3z")
        x, y, z = (ring_p.variable(i) for i in range(3))
        assert f == -x + 2 * y + 3 * z

    def test_rejects_constant(self, ring_p):
        with pytest.raises(ParseError):
            parse_linear_expr(ring_p, "x + 1")

    def test_rejects_unknown_variable(self, ring_p):
        with pytest.raises(ParseError):
            parse_linear_expr(ring_p, "x + q")

    def test_rejects_quadratic(self, ring_p):
        with pytest.raises(ParseError):
            parse_linear_expr(ring_p, "x y")

    def test_rejects_zero_form(self, ring_p):
        with pytest.raises(ParseError):
            parse_linear_expr(ring_p, "x - x")

    def test_linear_form_validation(self, ring_p):
        x = ring_p.variable(0)
        with pytest.raises(ValidationError):
            validate_linear_form(x * x)
        with pytest.raises(ValidationError):
            validate_linear_form(x + ring_p.one())
