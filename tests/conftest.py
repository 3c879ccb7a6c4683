"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own fast paths: ideal
membership goes through a Macaulay-style matrix, Hilbert values through
standard-monomial counting, Betti numbers and deficiency dimensions
through the constant strands of the raw (non-minimal) resolution,
deficiency dimensions also by a dense rank per degree of the dual of
the minimal resolution's last map (the scan `rao_dimensions` ran before
it read the Hilbert series of Ext^3; the library now reads Ext^3 from
the raw maps and never prunes),
normal forms through the copy-the-dividend merge the engine used before
its dividend accumulator, Q reductions through that accumulator with
`Fraction` coefficients, as it was before they became int pairs, and
with int pairs kept in lowest terms at every step, as it was before it
took its reducers in integer form, the
monomial lcm, divisibility and coprimality through exponent tuples (the
engine's Gebauer-Moller bookkeeping works on packed words), and the
radical of an arrangement through one intersection per flat prime, its
top part through one intersection per flat's pencil component, each
component built on an auxiliary pencil ring as it was before it was read
off the derivatives of the product of the flat's member forms
(`pencil_component_by_pencil_ring`), the
raw resolution through the Schreyer step with its own pair selection
and divisor search, as it was before the step ran on the Buchberger
kernel (`schreyer_resolution_by_tuples`, which reduces every level on
dividends and so is also the independent oracle of the Kronecker rows
that the first step reduces on over F_p), ideal intersections through
public `Ideal`s at every step of the tree, with the first input always
in the t-block, products of
forms through the term loop that Kronecker substitution replaces, and
the bases of liaison outputs through generators multiplied out by that
loop and reduced with no Hilbert drive, the packed rows of a batch
through the slice-by-slice bytearray copy they were packed by before,
the final tail reduction of a Buchberger run through the pass that
normal-formed every kept element (`tail_reduce_all`), and the leading
words of the Ext^3 reader's module basis through the pair-by-pair loop
that built it before it became a module `_Engine.buchberger` run
(`module_leads_by_pairs`, checked by `check_module_leads`).
Saturation by the irrelevant ideal is checked against the per-variable
path it replaced: one Groebner basis per variable, in a grevlex order
with that variable last, divided by its powers, and the n results
intersected; ideal quotients and saturations by other ideals go through
exact division of the generators of a ∩ (g).  Radical membership (the
Rabinowitsch test) and single syzygy steps live here too, since only
tests call them; symbolic intersections are checked against one
prime-power leaf per flat.

Over F_p the engine reduces the pairs of every Buchberger run as
batches of packed rows (`_Engine.reduce_batch`).  The oracles that must
stay independent of that kernel, the per-variable saturation bases, the
undriven liaison bases and `_undriven_intersection` in
`test_groebner.py`, run on `PairEngine`, which reduces pair by pair on
dividends over F_p as the engine does over Q.
"""

import importlib.util
import itertools
from fractions import Fraction
from heapq import heappop, heappush
from importlib.resources import files
from itertools import islice
from math import gcd
from pathlib import Path

import pytest

from singlocus import groebner, homology, linalg
from singlocus.arrangement import Arrangement, top_comb
from singlocus.errors import (InternalLimitError, InvariantError,
                              RingContextError, ValidationError)
from singlocus.groebner import (_CB, _CMAX, GroebnerBasis, Ideal,
                                _DegreeCounter, _Dividend, _Engine,
                                _elimination_key, _extend_ring,
                                _from_internal, _HilbertDrive, _minimal_lcms,
                                _to_internal, intersect, intersect_many)
from singlocus.homology import (_components, _in_schreyer_order,
                                _level_from_ring_gb, _public_maps,
                                _raw_resolution, _schreyer_step,
                                _SyzygyLevel, minimal_free_resolution)
from singlocus.polyring import (GF, QQ, DEFAULT_PRIME, MAX_DEGREE, WIDTH,
                                PolyRing, Polynomial, _pack_plain,
                                _unpack_plain)

#: the corpus `.arr` and `.graph` files shipped with the package
CORPUS_DIR = files("singlocus") / "arrangements"

#: the largest prime that `GF` accepts, the last below the bound of its
#: primality certificate
LARGEST_PRIME = 3317044064679887385961813

#: primes whose packed rows need slots wider than 64 bits
LARGE_PRIMES = [GF(2 ** 31 - 1), GF(2 ** 61 - 1), GF(LARGEST_PRIME)]
LARGE_IDS = ["p31", "p61", "p82"]


def tree_top(arr):
    """`top_comb` of `arr` by the intersection tree: a fresh copy of `arr`
    holds no memoized Jacobian ideal for the fast path to reuse."""
    return top_comb(Arrangement(arr.ring, arr.forms))


def sweep_texts(count=16):
    """The `.arr` texts of the first `count` arrangements of the
    benchmark's `sweep` pool (16 over F_32003; `sweep_q` takes 3 over Q)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return [gen.arr_text(rows) for rows in gen.pool(gen.POOL_SEED, count)]


@pytest.fixture
def ring_p():
    return PolyRing(("x", "y", "z", "w"), GF(DEFAULT_PRIME))


@pytest.fixture
def ring_q():
    return PolyRing(("x", "y", "z", "w"), QQ)


@pytest.fixture
def drives(monkeypatch):
    """Every `_HilbertDrive` built while the test runs."""
    built = []

    class Recorded(_HilbertDrive):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(groebner, "_HilbertDrive", Recorded)
    return built


@pytest.fixture
def ring_rows(monkeypatch):
    """Whether each Schreyer step run while the test runs reduced on
    Kronecker rows (`homology._ring_rows` gave it a kernel)."""
    took = []
    ring_rows = homology._ring_rows

    def recorded(*args):
        kernel = ring_rows(*args)
        took.append(kernel is not None)
        return kernel

    monkeypatch.setattr(homology, "_ring_rows", recorded)
    return took


@pytest.fixture
def module_runs(monkeypatch):
    """(engine, generators, basis) of every module `_Engine.buchberger`
    run, one built with twists, while the test runs."""
    runs = []
    buchberger = _Engine.buchberger

    def recorded(self, gens_internal, *args, **kwargs):
        basis = buchberger(self, gens_internal, *args, **kwargs)
        if self.twists is not None:
            runs.append((self, gens_internal, basis))
        return basis

    monkeypatch.setattr(_Engine, "buchberger", recorded)
    return runs


def check_module_leads(runs):
    """Assert that the leading words of each recorded module basis are,
    component by component, the minimalized leading words that
    `module_leads_by_pairs` finds for the same generators; returns the
    number of runs."""
    for engine, gens, basis in runs:
        nvars = engine.ring.nvars
        got = [terms[0][1] for terms in basis]
        want = module_leads_by_pairs(
            gens, [engine.degree(terms[0][1]) for terms in gens], engine.ring)
        by_comp = {}
        for w in want:
            by_comp.setdefault(w >> WIDTH * nvars, []).append(w)
        minimal = set()
        for words in by_comp.values():
            exps = [_unpack_plain(w, nvars) for w in words]
            minimal.update(w for w, e in zip(words, exps)
                           if not any(f != e and divides_exps(f, e)
                                      for f in exps))
        assert len(got) == len(set(got)) and set(got) == minimal
    return len(runs)


def monomials_of_degree(nvars, d):
    if d < 0:
        return []
    out = []
    for c in itertools.combinations_with_replacement(range(nvars), d):
        exps = [0] * nvars
        for i in c:
            exps[i] += 1
        out.append(tuple(exps))
    return sorted(out)


def poly_from_exps(ring, exps, coeff=1):
    return ring.from_terms({exps: coeff})


def power_of_variables(ring, k):
    """m^k for the ideal m of all variables, generated by its monomials of
    degree k."""
    return Ideal(ring, [ring.from_terms({e: 1})
                        for e in monomials_of_degree(ring.nvars, k)])


def s_polynomial(f, g):
    ring = f.ring
    ef, cf = f.leading_term()
    eg, cg = g.leading_term()
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    mf = Polynomial(ring, {tuple(l - a for l, a in zip(lcm, ef)): ring.field.inv(cf)})
    mg = Polynomial(ring, {tuple(l - a for l, a in zip(lcm, eg)): ring.field.inv(cg)})
    return mf * f - mg * g


def top_reduces_to_zero(f, polys):
    """Whether f top-reduces to zero against `polys` by public `Polynomial`
    arithmetic on exponent tuples.  Only `leading_term` packs a word, and
    it compares exponents below 2**WIDTH, so degrees up to twice
    MAX_DEGREE, as an S-polynomial of two basis elements has, are fine."""
    field = f.ring.field
    leads = [g.leading_term() for g in polys]
    while not f.is_zero():
        e, c = f.leading_term()
        for g, (eg, cg) in zip(polys, leads):
            if divides_exps(eg, e):
                m = {tuple(a - b for a, b in zip(e, eg)):
                     field.mul(c, field.inv(cg))}
                f = f - Polynomial(f.ring, m) * g
                break
        else:
            return False
    return True


def buchberger_criterion_holds(gb):
    """Every S-polynomial of the basis reduces to zero.  One of degree
    above MAX_DEGREE, which the packed normal form refuses, is
    top-reduced on exponent tuples instead."""
    polys = gb.polys
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            sp = s_polynomial(polys[i], polys[j])
            if sp.is_zero():
                continue
            if sp.total_degree() > MAX_DEGREE:
                if not top_reduces_to_zero(sp, polys):
                    return False
            elif not gb.normal_form(sp).is_zero():
                return False
    return True


def membership_by_linear_algebra(f, ideal):
    """Degree-graded Macaulay-matrix membership test for homogeneous f."""
    ring = f.ring
    field = ring.field
    if f.is_zero():
        return True
    assert f.is_homogeneous()
    d = f.total_degree()
    basis = monomials_of_degree(ring.nvars, d)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in ideal.gens:
        dg = g.total_degree()
        if dg is None or dg > d:
            continue
        for m in monomials_of_degree(ring.nvars, d - dg):
            row = [field.zero] * len(basis)
            for e, c in g.terms.items():
                row[index[tuple(a + b for a, b in zip(e, m))]] = c
            rows.append(row)
    target = [field.zero] * len(basis)
    for e, c in f.terms.items():
        target[index[e]] = c
    if not rows:
        return all(field.is_zero(c) for c in target)
    return linalg.solve_in_span(target, rows, field) is not None


def lcm_exps(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def divides_exps(a, b):
    return all(x <= y for x, y in zip(a, b))


def coprime_exps(a, b):
    return all(min(x, y) == 0 for x, y in zip(a, b))


# the engine with the F_p pair loop: a reference for the batch kernel
class PairEngine(_Engine):
    reduce_batch = _Engine.reduce_pairs


def radical_membership(f, a):
    """Whether f lies in the radical of a: 1 lies in the ideal that a and
    1 - s * f generate in a ring extended by s (Rabinowitsch's trick).

    The only inhomogeneous input the engine takes; the library checks its
    radicals by intersection trees, and this checks their generators
    against the Jacobian ideal by an unrelated route."""
    if f.ring != a.ring:
        raise RingContextError("polynomial from a different ring")
    if f.is_zero():
        return True
    ext, _ = _extend_ring(a.ring, "s0")
    s = ext.variable(0)

    def lift(poly):
        return Polynomial(ext, {(0,) + e: c for e, c in poly.terms.items()})

    gens = [lift(g) for g in a.gens]
    gens.append(ext.one() - s * lift(f))
    engine = groebner._Engine(ext)  # looked up here, so tests can record it
    basis = engine.buchberger([_to_internal(g, engine.key) for g in gens])
    return len(basis) == 1 and basis[0][0][1] == 0


def schreyer_resolution(ideal):
    """The raw Schreyer resolution with public maps: (twist_lists,
    map_entry_dicts), map_entry_dicts[k] holding {(r, c): Polynomial}
    for F_{k+1} -> F_k.  The library keeps these maps as engine vectors
    (`homology._raw_resolution`) and builds this form only for
    `Resolution.maps`; the tests read and compare it."""
    twist_lists, columns, orders = _raw_resolution(ideal)
    return twist_lists, _public_maps(ideal.ring, columns, orders)


def module_vector(entries, engine):
    """Engine form of sum_c p_c * e_c from (c, p_c) pairs, keyed by a
    module `_Engine` (one built with twists): term over position, with
    component c before c + 1 on a tie.  The terms come sorted by
    descending key.
    """
    shift = WIDTH * engine.ring.nvars
    terms = []
    for c, poly in entries:
        for e, co in poly.terms.items():
            w = (c << shift) | _pack_plain(e)
            terms.append((engine.key(w), w, co))
    terms.sort(reverse=True)
    return terms


def schreyer_syzygies(gens, twists=None):
    """Syzygies of a Groebner basis sitting in a graded free module, by one
    `_schreyer_step`.

    `gens` is either a list of polynomials (rank-1 case) or a list of
    equal-length polynomial vectors; `twists` gives the generator degrees
    of the ambient free module (all zero by default).  The input must be
    a Groebner basis: every S-vector has to reduce to zero against it,
    otherwise this raises.  Leading coefficients need not be 1.  Returned
    vectors pair to zero against `gens`.
    """
    if not gens:
        return []
    vectors_in = [[g] if isinstance(g, Polynomial) else list(g) for g in gens]
    rank = len(vectors_in[0])
    ring = vectors_in[0][0].ring
    if any(len(v) != rank for v in vectors_in):
        raise ValidationError("module elements of mixed rank")
    if twists is None:
        twists = [0] * rank
    engine = _Engine(ring)
    module = _Engine(ring, twists=twists)
    field = ring.field
    # term-over-position order on the ambient module, grevlex on monomials;
    # each vector is scaled to be monic, and its syzygy entries scaled back
    vectors = []
    degrees = []
    inv_lcs = []
    for vec in vectors_in:
        if any(poly.ring != ring for poly in vec):
            raise ValidationError("vector entries in mixed rings")
        terms = module_vector(enumerate(vec), module)
        if not terms:
            raise ValidationError("zero vector among the generators")
        inv = field.inv(terms[0][2])
        vectors.append([(vk, cw, field.mul(c, inv)) for vk, cw, c in terms])
        degrees.append(max(sum(e) + twists[comp] for comp, poly in enumerate(vec)
                           for e in poly.terms))
        inv_lcs.append(inv)
    level = _SyzygyLevel(vectors, degrees, mult=1 << _CB)
    try:
        nxt = _schreyer_step(level, engine)
    except InvariantError as exc:
        raise ValidationError(str(exc)) from exc
    out = []
    for syz in nxt.vectors if nxt else ():
        comps = _components(syz, ring.nvars)
        out.append([Polynomial(ring, {e: field.mul(co, inv_lcs[c])
                                      for e, co in comps.get(c, {}).items()})
                    for c in range(len(gens))])
    return out


def radical_by_flat_primes(arr):
    """The intersection of the flat primes, taken flat by flat."""
    return intersect_many([f.prime(arr.ring) for f in arr.flats()])


def pencil_component_by_pencil_ring(flat, ring, vecs):
    """`pencil_component` as it was built before it differentiated the
    product of the member forms: the member forms, whose coefficient rows
    `vecs` holds, are rewritten in the flat's basis (s, t) of an auxiliary
    pencil ring, their product g is differentiated, and (g_s, g_t) is
    pushed back through s, t."""
    b1, b2 = flat.basis_forms(ring)
    if flat.multiplicity == 2:
        return Ideal(ring, (b1, b2))
    field = ring.field
    pencil = PolyRing(("s@", "t@"), field)
    g = pencil.one()
    basis_rows = [list(flat.basis[0]), list(flat.basis[1])]
    for k in flat.members:
        coords = linalg.solve_in_span(vecs[k], basis_rows, field)
        if coords is None:
            raise InvariantError("member form fell out of its flat's span")
        g = g * pencil.linear_form(coords)
    gs = g.partial_derivative(0).substitute([b1, b2])
    gt = g.partial_derivative(1).substitute([b1, b2])
    return Ideal(ring, (gs, gt))


def top_by_flats(arr):
    """The intersection of the flats' pencil components, built on the
    pencil ring and taken flat by flat: the tree `top_comb` built before
    its leaves were grouped by plane and its components were read off
    the product of the member forms."""
    vecs = arr.coefficient_rows()
    return intersect_many([pencil_component_by_pencil_ring(f, arr.ring, vecs)
                           for f in arr.flats()])


def symbolic_by_flat_powers(arr, powers):
    """`symbolic_intersection` with no exponent checks, taken flat by flat:
    one leaf per flat of positive exponent."""
    ideals = [f.prime_power(arr.ring, powers[f]) for f in arr.flats()
              if powers[f] > 0]
    return intersect_many(ideals) if ideals else Ideal(arr.ring,
                                                       (arr.ring.one(),))


def intersect_by_ideals(a, b):
    """a ∩ b with t * G_a and (1 - t) * G_b as the elimination blocks,
    whatever the degrees, and the answer checked back as a public Ideal.

    It builds a `_HilbertDrive`, so over F_p its elimination runs the same
    batch kernel (`_Engine.reduce_batch`) as `intersect`: it checks the
    orientation and the fold, not that kernel.  The independent oracle
    for the batch kernel is `_undriven_intersection` in
    `test_groebner.py`, which runs on `PairEngine` and so reduces pair by
    pair on dividends."""
    if a.ring != b.ring:
        raise RingContextError("ideals in different rings")
    if a.is_zero() or b.is_unit():
        return Ideal(a.ring, a.gens)
    if b.is_zero() or a.is_unit():
        return Ideal(a.ring, b.gens)
    ring = a.ring
    ext, _ = _extend_ring(ring)
    engine = _Engine(ext, _elimination_key(ring.nvars))
    ga, gb = a.groebner(), b.groebner()
    t_key = engine.key(1)
    neg = ring.field.neg
    t_block = [[(k + t_key, (w << WIDTH) | 1, c) for k, w, c in terms]
               for terms in ga._polys]
    one_minus_t_block = [
        [(k + t_key, (w << WIDTH) | 1, neg(c)) for k, w, c in terms]
        + [(k, w << WIDTH, c) for k, w, c in terms]
        for terms in gb._polys]
    ca = _DegreeCounter(ring.nvars, ga._lt_ws)
    cb = _DegreeCounter(ring.nvars, gb._lt_ws)
    drive = _HilbertDrive(ring.nvars, lambda d: ca.count(d) + cb.count(d),
                          eliminate=True)
    t_mask = (1 << WIDTH) - 1
    basis = engine.buchberger([], blocks=(t_block, one_minus_t_block),
                              drive=drive, eliminate=t_mask)
    internal = [[(k, w >> WIDTH, c) for k, w, c in terms] for terms in basis]
    out = [_from_internal(terms, ring) for terms in internal]
    result = Ideal(ring, out)
    result._keep(GroebnerBasis(ring, internal, out), internal)
    return result


def product_by_terms(a, b):
    """a * b by every pair of terms, over F_p reduced after each
    product: the term loop that `Polynomial.__mul__` runs wherever it does
    not take Kronecker substitution, as it was before it reduced once per
    output term."""
    ring, f = a.ring, a.ring.field
    a, b = a.terms, b.terms
    if len(a) > len(b):
        a, b = b, a
    out = {}
    if f.p is not None:
        p = f.p
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = (out.get(e, 0) + c1 * c2) % p
        out = {e: c for e, c in out.items() if c}
    else:
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                acc = out.get(e)
                out[e] = c1 * c2 if acc is None else acc + c1 * c2
        out = {e: c for e, c in out.items() if c != 0}
    return Polynomial(ring, out)


def undriven_liaison_basis(step):
    """The reduced basis of a liaison step's output, as engine terms, by
    the paths that its Hilbert target and its Kronecker products replace:
    the generators form2 * g and form1 * g by `product_by_terms`, and a
    `PairEngine` run with no drive, pair by pair."""
    gens = [product_by_terms(step.form2, g) for g in step.ideal1.gens]
    if step.ideal2 is None:
        gens.append(step.form1)
    else:
        gens += [product_by_terms(step.form1, g) for g in step.ideal2.gens]
    engine = PairEngine(step.form1.ring)
    return engine.buchberger([_to_internal(g, engine.key) for g in gens])


def intersect_many_by_ideals(ideals):
    """The balanced tree of `intersect_by_ideals`, level by level."""
    items = list(ideals)
    if not items:
        raise ValidationError("empty intersection")
    while len(items) > 1:
        nxt = [intersect_by_ideals(items[i], items[i + 1])
               for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


_SATURATION_CAP = 64


def exact_divide(f, g):
    """Quotient f / g when g divides f exactly."""
    if g.is_zero():
        raise ValidationError("division by the zero polynomial")
    ring = f.ring
    engine = _Engine(ring)
    gt = _to_internal(g, engine.key)
    inv_lc = ring.field.inv(gt[0][2])
    gt = engine.monic(gt)
    quotients = []
    acc = _Dividend(_to_internal(f, engine.key), engine.p, engine.guard)
    if engine.reduce(acc, [gt[0][1]], [gt[0][0]], engine.reducers([gt]),
                     quotients=quotients):
        raise ValidationError("inexact polynomial division")
    mul = ring.field.mul
    return _from_internal([(k, w, mul(c, inv_lc)) for _, k, w, c in quotients],
                          ring)


def colon(a, b):
    """Ideal quotient a : b."""
    if a.ring != b.ring:
        raise RingContextError("ideals in different rings")
    result = None
    for g in b.gens:
        if g.is_zero():
            continue
        gi = Ideal(a.ring, (g,))
        inter = intersect(a, gi)
        quot = Ideal(a.ring, tuple(exact_divide(h, g) for h in inter.gens))
        result = quot if result is None else intersect(result, quot)
    if result is None:
        # b = (0): a : (0) = (1)
        return Ideal(a.ring, (a.ring.one(),))
    return result


def saturate(a, b):
    """(a : b^infinity, number of strictly growing colon steps)."""
    current = a
    for step in range(_SATURATION_CAP):
        nxt = colon(current, b)
        if nxt.equals(current):
            return current, step
        current = nxt
    raise InternalLimitError(
        f"saturation did not stabilize within {_SATURATION_CAP} colon steps")


def saturate_by_variable(a, i):
    """a : x_i^infinity via a Groebner basis with x_i as last variable.

    For a homogeneous ideal in a degree-reverse-lex order whose last
    variable is x_i, dividing every basis element by its x_i power
    generates (and is a basis of) the saturation with respect to x_i.
    The order is grevlex on a copy of the ring whose variables are
    renamed so that x_i comes last, and the basis is a `PairEngine` run.
    """
    ring = a.ring
    perm = [j for j in range(ring.nvars) if j != i] + [i]
    inverse = [perm.index(j) for j in range(ring.nvars)]
    moved = PolyRing([ring.names[j] for j in perm], ring.field)
    engine = PairEngine(moved)
    basis = engine.buchberger([
        _to_internal(Polynomial(moved, {tuple(e[j] for j in perm): c
                                        for e, c in g.terms.items()}),
                     engine.key)
        for g in a.gens])
    out = []
    for g in (_from_internal(terms, moved) for terms in basis):
        k = min(e[-1] for e in g.terms)
        out.append(Polynomial(ring, {
            tuple((e[:-1] + (e[-1] - k,))[pos] for pos in inverse): c
            for e, c in g.terms.items()}))
    return Ideal(ring, out)


def saturate_by_variables(a):
    """a : m^infinity as the intersection over all variables of
    a : x_i^infinity, which equals the m-saturation for any homogeneous
    ideal."""
    return intersect_many([saturate_by_variable(a, i)
                           for i in range(a.ring.nvars)])


class FractionDividend:
    """The Q dividend as it was before its coefficients became int pairs:
    the same dicts and heap, with `Fraction` coefficients and `Fraction`
    arithmetic.  It has `_Dividend`'s interface, so `_Engine.reduce`
    runs on either."""

    __slots__ = ("coeffs", "exps", "heap", "guard")

    def __init__(self, terms, guard):
        self.coeffs = {k: c for k, _, c in terms}
        self.exps = {k: w for k, w, _ in terms}
        self.heap = [-k for k, _, _ in terms]
        self.guard = guard

    def sub(self, g, c, mk, mw):
        coeffs = self.coeffs
        for gk, gw, gc in g[1:]:
            k = gk + mk
            v = coeffs.get(k)
            if v is None:
                coeffs[k] = -c * gc
                self.exps[k] = gw + mw
                heappush(self.heap, -k)
            else:
                coeffs[k] = v - c * gc

    def pop(self):
        while self.heap:
            k = -heappop(self.heap)
            c = self.coeffs.pop(k)
            w = self.exps.pop(k)
            if w & self.guard:
                raise InternalLimitError("a popped term reached a guard bit")
            if c:
                return k, w, c
        return None


class LowestTermsDividend:
    """The Q dividend as it was before it took integer reducers: int pairs
    (numerator, denominator) kept in lowest terms, with the gcd steps of
    `Fraction`'s product and difference run on the ints of every term it
    touches.  It has `_Dividend`'s interface and takes the reducers as
    `Fraction` terms lists, as `FractionDividend` does."""

    __slots__ = ("coeffs", "exps", "heap", "guard")

    def __init__(self, terms, guard):
        self.coeffs = {k: (c.numerator, c.denominator) for k, _, c in terms}
        self.exps = {k: w for k, w, _ in terms}
        self.heap = [-k for k, _, _ in terms]
        self.guard = guard

    def sub(self, g, c, mk, mw):
        coeffs = self.coeffs
        exps = self.exps
        heap = self.heap
        # c * gc: cancel across the cross terms; v - c * gc: the
        # denominators' gcd d, then gcd(t, d) cancels the difference
        cn = c.numerator
        cd = c.denominator
        for gk, gw, gc in islice(g, 1, None):
            k = gk + mk
            gn = gc.numerator
            gd = gc.denominator
            g1 = gcd(cn, gd)
            g2 = gcd(gn, cd)
            pn = (cn // g1) * (gn // g2)
            pd = (cd // g2) * (gd // g1)
            v = coeffs.get(k)
            if v is None:
                coeffs[k] = (-pn, pd)
                exps[k] = gw + mw
                heappush(heap, -k)
                continue
            vn, vd = v
            d = gcd(vd, pd)
            if d == 1:
                coeffs[k] = (vn * pd - pn * vd, vd * pd)
            else:
                s = vd // d
                t = vn * (pd // d) - pn * s
                d2 = gcd(t, d)
                coeffs[k] = (t // d2, s * (pd // d2))

    def pop(self):
        while self.heap:
            k = -heappop(self.heap)
            c = self.coeffs.pop(k)
            w = self.exps.pop(k)
            if w & self.guard:
                raise InternalLimitError("a popped term reached a guard bit")
            if c[0]:
                return k, w, Fraction(*c)
        return None


def merge_sub_p(f, i0, g, c, mk, mw, p):
    """f[i0:] - c * x^m * g over F_p, merged by descending key."""
    out = []
    push = out.append
    i, j = i0, 0
    nf, ng = len(f), len(g)
    while i < nf and j < ng:
        fi = f[i]
        gj = g[j]
        kg = gj[0] + mk
        kf = fi[0]
        if kf > kg:
            push(fi)
            i += 1
        elif kf < kg:
            push((kg, gj[1] + mw, (-c * gj[2]) % p))
            j += 1
        else:
            cc = (fi[2] - c * gj[2]) % p
            if cc:
                push((kf, fi[1], cc))
            i += 1
            j += 1
    if i < nf:
        out.extend(f[i:])
    while j < ng:
        gj = g[j]
        push((gj[0] + mk, gj[1] + mw, (-c * gj[2]) % p))
        j += 1
    return out


def merge_sub_q(f, i0, g, c, mk, mw):
    """Rational-coefficient variant of merge_sub_p."""
    out = []
    push = out.append
    i, j = i0, 0
    nf, ng = len(f), len(g)
    while i < nf and j < ng:
        fi = f[i]
        gj = g[j]
        kg = gj[0] + mk
        kf = fi[0]
        if kf > kg:
            push(fi)
            i += 1
        elif kf < kg:
            push((kg, gj[1] + mw, -c * gj[2]))
            j += 1
        else:
            cc = fi[2] - c * gj[2]
            if cc:
                push((kf, fi[1], cc))
            i += 1
            j += 1
    if i < nf:
        out.extend(f[i:])
    while j < ng:
        gj = g[j]
        push((gj[0] + mk, gj[1] + mw, -c * gj[2]))
        j += 1
    return out


def merge_normal_form(terms, lt_ws, lt_keys, polys, guard, p):
    """Full normal form of engine terms against monic engine polys.

    Reduces the largest reducible term by the first basis element whose
    leading monomial divides it, rebuilding the remaining dividend by a
    merge at every step (p is None over Q).
    """
    prefix = []
    work = terms
    i0 = 0
    while i0 < len(work):
        k, w, c = work[i0]
        red = next((idx for idx, lw in enumerate(lt_ws)
                    if ((w | guard) - lw) & guard == guard), -1)
        if red < 0:
            prefix.append(work[i0])
            i0 += 1
        elif p is None:
            work = merge_sub_q(work, i0, polys[red], c, k - lt_keys[red],
                               w - lt_ws[red])
            i0 = 0
        else:
            work = merge_sub_p(work, i0, polys[red], c, k - lt_keys[red],
                               w - lt_ws[red], p)
            i0 = 0
    return prefix


def pack_by_slices(terms, mk, start, col, nbytes):
    """`groebner._pack_row` as `reduce_batch` packed a row before: each
    coefficient copied into its slice of a little-endian bytearray."""
    slot = 8 * nbytes
    if len(terms) <= start:
        return 0, 0
    low = col[terms[-1][0] + mk]
    buf = bytearray(nbytes * (col[terms[start][0] + mk] + 1 - low))
    for gk, _, gc in islice(terms, start, None):
        at = (col[gk + mk] - low) * nbytes
        buf[at:at + nbytes] = gc.to_bytes(nbytes, "little")
    return int.from_bytes(buf, "little"), low * slot


def tail_reduce_all(engine, kept):
    """The reduced basis of the minimal basis `kept` (engine terms) as
    `_Engine.buchberger` finished every run before `_Engine.tail_reduce`:
    every element's tail normal-formed against all of them, through one
    memo, and every element copied."""
    kept_ws = [terms[0][1] for terms in kept]
    kept_keys = [terms[0][0] for terms in kept]
    memo = {}
    reducers = engine.reducers(kept)
    return [terms[:1] + engine.normal_form(terms[1:], kept_ws, kept_keys,
                                           reducers, memo)
            for terms in kept]


def standard_monomial_count(ideal, d):
    """dim (R/I)_d by counting monomials outside the leading-term ideal."""
    gb = ideal.groebner()
    leads = [tuple(e) for e in gb.leading_exponents()]
    count = 0
    for m in monomials_of_degree(ideal.ring.nvars, d):
        if not any(all(a >= b for a, b in zip(m, lt)) for lt in leads):
            count += 1
    return count


def series_numerator_by_tuples(gens, nvars, memo):
    """The Hilbert series numerator of R/I for the monomial ideal of the
    exponent tuples `gens`, minimal or not: the pivot recursion on tuples
    that `homology._series_numerator` runs on packed words, with the same
    pivot, the variable that most minimal generators use (the first on a
    tie)."""
    gens = tuple(sorted(minimalize_exps(gens)))
    got = memo.get(gens)
    if got is None:
        got = memo[gens] = _series_numerator_raw_by_tuples(gens, nvars, memo)
    return got


def _series_numerator_raw_by_tuples(gens, nvars, memo):
    if not gens:
        return [1]
    # pairwise coprime: numerator is the product of (1 - t^deg)
    if all(coprime_exps(gens[i], gens[j])
           for i in range(len(gens)) for j in range(i + 1, len(gens))):
        num = [1]
        for g in gens:
            num = homology._poly_add(num,
                                     homology._poly_mul_shift(num, sum(g), -1))
        return num
    counts = [sum(1 for g in gens if g[v]) for v in range(nvars)]
    v = max(range(nvars), key=lambda ix: counts[ix])
    # the pivot x_v^e, of the least positive exponent of x_v
    e = min(g[v] for g in gens if g[v])
    # I + (x_v^e)
    plus = [g for g in gens if g[v] == 0]
    plus.append(tuple(e if ix == v else 0 for ix in range(nvars)))
    num_plus = series_numerator_by_tuples(plus, nvars, memo)
    # I : x_v^e
    quot = [g[:v] + (max(g[v] - e, 0),) + g[v + 1:] for g in gens]
    num_quot = series_numerator_by_tuples(quot, nvars, memo)
    return homology._poly_add(num_plus,
                              homology._poly_mul_shift(num_quot, e, 1))


def minimalize_exps(gens):
    """The minimal exponent tuples of `gens`, each once."""
    out = []
    for g in sorted(set(gens), key=sum):
        if not any(divides_exps(h, g) for h in out):
            out.append(g)
    return out


def _strand_rank(entries, src_twists, tgt_twists, d, field):
    """Rank of the degree-d constant strand of one resolution map."""
    src = [c for c, t in enumerate(src_twists) if t == d]
    tgt = [r for r, t in enumerate(tgt_twists) if t == d]
    if not src or not tgt:
        return 0
    rows = []
    for c in src:
        row = []
        for r in tgt:
            p = entries.get((r, c))
            row.append(field.zero if p is None else p.constant_coefficient())
        rows.append(row)
    return linalg.rank(rows, field)


def betti_by_strand_homology(ideal):
    """Graded Betti numbers from the raw non-minimal resolution.

    beta_{i,d} = #gens_{i,d} - rank(strand_i)_d - rank(strand_{i+1})_d,
    computed over the constant parts only; independent of the pruning
    code in the library.
    """
    twist_lists, maps = schreyer_resolution(ideal)
    field = ideal.ring.field
    out = {}
    for i, twists in enumerate(twist_lists):
        for d in sorted(set(twists)):
            n = sum(1 for t in twists if t == d)
            r_in = (_strand_rank(maps[i], twist_lists[i + 1], twists, d, field)
                    if i < len(maps) else 0)
            r_out = (_strand_rank(maps[i - 1], twists, twist_lists[i - 1], d, field)
                     if i >= 1 else 0)
            b = n - r_in - r_out
            if b:
                out[(i, d - i)] = b
    return out


def _dual_strand_rank(entries, src_twists, tgt_twists, t, field, nvars=4):
    """Rank in degree t of the dual of one resolution map.

    The dual map goes F_tgt^dual -> F_src^dual with the transposed matrix.
    Column space: images of the degree-(t + a_r) monomial multiples of
    each dual generator r of F_tgt^dual.
    """
    basis = []
    for c, b in enumerate(src_twists):
        basis.extend((c, m) for m in monomials_of_degree(nvars, t + b))
    if not basis:
        return 0
    index = {cm: i for i, cm in enumerate(basis)}
    rows = []
    for r, a in enumerate(tgt_twists):
        images = [(c, entries.get((r, c))) for c in range(len(src_twists))]
        if all(p is None for _, p in images):
            continue
        for m in monomials_of_degree(nvars, t + a):
            row = [field.zero] * len(basis)
            any_entry = False
            for c, p in images:
                if p is None:
                    continue
                for e, co in p.terms.items():
                    row[index[(c, tuple(x + y for x, y in zip(e, m)))]] = co
                    any_entry = True
            if any_entry:
                rows.append(row)
    return linalg.rank(rows, field) if rows else 0


def deficiency_by_ext(ideal):
    """Deficiency table from the raw resolution via dual-complex homology.

    dim Ext^3(R/I, R)_t = dim(F_3^dual)_t - rank(d_4^dual)_t
                          - rank(d_3^dual)_t, re-indexed by t -> -t-4.
    Independent of both the pruning and the minimal-last-map route.
    """
    twist_lists, maps = schreyer_resolution(ideal)
    field = ideal.ring.field
    if len(maps) <= 2:
        return {}
    f3 = twist_lists[3]
    table = {}
    t = -max(f3)
    while t <= -min(f3) + 60:
        dim_f3 = sum(len(monomials_of_degree(4, t + b)) for b in f3)
        r3 = _dual_strand_rank(maps[2], twist_lists[3], twist_lists[2], t, field)
        r4 = (_dual_strand_rank(maps[3], twist_lists[4], twist_lists[3], t, field)
              if len(maps) > 3 else 0)
        dim = dim_f3 - r3 - r4
        if dim:
            table[-t - 4] = dim
        elif t >= -min(f3):
            break
        t += 1
    return table


def rao_by_degree_scan(ideal):
    """Deficiency table by a dense rank in each degree of the dual of the
    minimal resolution's last map, as `rao_dimensions` computed it before
    it read the table from the Hilbert series of Ext^3.  It prunes the
    resolution, which no library path does, so it is independent of the
    raw-map reader `unmixed_deficiency`.

    dim Ext^3(R/I, R)_t = dim(F_3^dual)_t - rank(sigma^dual)_t, from
    t = -max(F_3) up to the first zero at or above -min(F_3), re-indexed
    by t -> -t-4.  The scan never stops if Ext^3 has infinite length, so
    it gives up 60 degrees past -min(F_3).
    """
    res = minimal_free_resolution(ideal)
    if res.length <= 2:
        return {}
    entries = res.maps[2].entries  # first: the modules take its order
    f3 = res.modules[3].twists
    f2 = res.modules[2].twists
    table = {}
    t = -max(f3)
    while t <= -min(f3) + 60:
        dim = (sum(len(monomials_of_degree(4, t + b)) for b in f3)
               - _dual_strand_rank(entries, f3, f2, t, ideal.ring.field))
        if dim:
            table[-t - 4] = dim
        elif t >= -min(f3):
            break
        t += 1
    return table


def module_leads_by_pairs(vectors, degrees, ring):
    """Leading words of a module Groebner basis of the span of `vectors`,
    by the pair-by-pair loop that the Ext^3 reader ran before its module
    basis came from `_Engine.buchberger`.

    `vectors` are nonzero homogeneous `module_vector`s and `degrees`
    their degrees.  The generators are normal-formed in input order
    first; then each component's pairs are the ones `_minimal_lcms`
    keeps, taken one at a time by degree, and each S-vector is reduced
    on a dividend by a ring engine, whose divisor test masks the
    component in.  No product criterion is applied, and the basis is
    neither minimalized nor tail-reduced.
    """
    engine = _Engine(ring)
    guard = engine.guard
    shift = WIDTH * ring.nvars
    key = engine.key
    basis = []
    lt_ws = []
    lt_vkeys = []
    basis_degrees = []
    by_comp = {}
    pairs = []  # a heap of (degree, lcm vkey, i, j, lcm)
    memo = {}  # exact: the basis only grows by appending
    reducers = engine.reducers(basis)

    def add(terms, degree):
        terms = engine.monic(terms)
        w_new = terms[0][1]
        idxs = by_comp.setdefault(w_new >> shift, [])
        _, first = _minimal_lcms([lt_ws[i] for i in idxs], w_new, guard)
        for lcm, at in first.items():
            i = idxs[at]
            u = lcm - lt_ws[i]
            heappush(pairs, (sum(_unpack_plain(u, ring.nvars))
                             + basis_degrees[i],
                             lt_vkeys[i] + (key(u) << _CB), i, len(basis), lcm))
        idxs.append(len(basis))
        basis.append(terms)
        lt_ws.append(w_new)
        lt_vkeys.append(terms[0][0])
        basis_degrees.append(degree)

    for terms, degree in zip(vectors, degrees):
        if nf := engine.normal_form(terms, lt_ws, lt_vkeys, reducers, memo):
            add(nf, degree)
    while pairs:
        degree, lcm_vkey, i, j, lcm = heappop(pairs)
        sp = engine.s_dividend(reducers[i], reducers[j], lcm_vkey, lcm)
        if nf := engine.reduce(sp, lt_ws, lt_vkeys, reducers, memo):
            add(nf, degree)
    return lt_ws


def schreyer_step_by_tuples(level, engine):
    """One syzygy step with tuple pair selection and a per-component scan.

    Returns (next_level, columns), where columns[j] maps a component
    index to the (exps, coeff) list of the new map's column j.
    """
    ring = engine.ring
    guard = engine.guard
    nvars = ring.nvars
    shift = WIDTH * nvars
    key = engine.key
    vectors = level.vectors
    lt_cw = level.lt_cw
    lt_vkey = level.lt_vkey
    mult = level.mult
    reducers = engine.reducers(vectors)

    by_comp = {}
    for i, cw in enumerate(lt_cw):
        by_comp.setdefault(cw >> shift, []).append(i)

    # candidate pairs: per generator i, the minimal multipliers lcm/lt_i
    tasks = []
    for comp, idxs in by_comp.items():
        for a_pos, i in enumerate(idxs):
            ei = _unpack_plain(lt_cw[i], nvars)
            cand = {}
            for j in idxs[a_pos + 1:]:
                ej = _unpack_plain(lt_cw[j], nvars)
                u = tuple(max(x, y) - x for x, y in zip(ei, ej))
                if u not in cand:
                    cand[u] = j
            kept = []
            for u in sorted(cand, key=sum):
                if not any(all(a <= b for a, b in zip(v, u)) for v in kept):
                    kept.append(u)
            for u in kept:
                tasks.append((i, cand[u], u))
    tasks.sort(key=lambda t: (sum(t[2]) + level.degrees[t[0]], t[0], t[1]))

    next_vectors = []
    next_degrees = []
    columns = []
    field = ring.field
    one = field.one
    for i, j, u in tasks:
        ei = _unpack_plain(lt_cw[i], nvars)
        ej = _unpack_plain(lt_cw[j], nvars)
        lcm = tuple(a + b for a, b in zip(u, ei))
        uj = tuple(a - b for a, b in zip(lcm, ej))
        dw_i = _pack_plain(u)
        lcm_vkey = lt_vkey[i] + key(dw_i) * mult
        sp = engine.s_dividend(reducers[i], reducers[j], lcm_vkey,
                               lt_cw[i] + dw_i)
        quotients = [(i, dw_i, one), (j, _pack_plain(uj), field.neg(one))]
        while (term := sp.pop()) is not None:
            vk, cw, co = term
            red = -1
            wg = cw | guard
            for idx in by_comp.get(cw >> shift, ()):
                if (wg - lt_cw[idx]) & guard == guard:
                    red = idx
                    break
            if red < 0:
                raise InvariantError("S-vector does not reduce to zero")
            dm = cw - lt_cw[red]
            sp.sub(reducers[red], co, vk - lt_vkey[red], dm)
            quotients.append((red, dm, field.neg(co)))
        terms = []
        col = {}
        for comp, mw, coeff in quotients:
            vkey = ((lt_vkey[comp] + key(mw) * mult) << _CB) | (_CMAX - comp)
            terms.append((vkey, (comp << shift) | mw, coeff))
            col.setdefault(comp, []).append((_unpack_plain(mw, nvars), coeff))
        terms.sort(key=lambda t: -t[0])
        assert terms[0][1] == (i << shift) | dw_i
        next_vectors.append(terms)
        next_degrees.append(sum(u) + level.degrees[i])
        columns.append(col)

    if not next_vectors:
        return None, []
    return _SyzygyLevel(next_vectors, next_degrees, mult << _CB), columns


def schreyer_resolution_by_tuples(ideal):
    """`schreyer_resolution`, with each step taken by the oracle step."""
    ring = ideal.ring
    gb = ideal.groebner()
    if not len(gb):
        return [[0]], []
    level = _level_from_ring_gb(gb._polys,
                                [p.total_degree() for p in gb.polys])
    entries = {(0, c): p for c, p in enumerate(gb.polys)}
    twist_lists = [[0]]
    maps = []
    for _ in range(ring.nvars + 1):
        level, new_index = _in_schreyer_order(level, ring.nvars)
        entries = {(r, new_index[c]): p for (r, c), p in entries.items()}
        maps.append(entries)
        twist_lists.append(level.degrees)
        level, columns = schreyer_step_by_tuples(level, gb._engine)
        if level is None:
            return twist_lists, maps
        entries = {(r, c): Polynomial(ring, {tuple(e): co for e, co in terms})
                   for c, col in enumerate(columns) for r, terms in col.items()}
    raise AssertionError("resolution exceeded the variable-count bound")
