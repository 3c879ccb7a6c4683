"""Hyperplane arrangements and their singular-locus constructions.

An arrangement is an ordered list of pairwise independent linear forms.
The singular-locus ideals are built on the codimension-2 stratum: the
flats cut out by pairs of hyperplanes, each with its multiplicity (number
of member hyperplanes) and a canonical reduced-echelon basis of its
defining pair of linear forms.  Lattice isomorphism and the genericity
of a section also read the flats of higher rank (`_flats_by_rank`).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

from . import linalg
from .errors import (InternalLimitError, InvariantError, ParseError,
                     ValidationError)
from .groebner import Ideal, _ideal_from_basis, intersect_many
from .homology import hilbert, unmixed_deficiency
from .polyring import (GF, DEFAULT_PRIME, PolyRing, expand_product,
                       gradient, linear_coefficients, parse_linear_expr,
                       validate_linear_form)

_MAX_FILE_VARS = 8
_SECTION_RETRIES = 32


def standard_ring(field=None, names=("x", "y", "z", "w")):
    return PolyRing(names, field if field is not None else GF(DEFAULT_PRIME))


class Flat:
    """Codimension-2 intersection locus of two or more hyperplanes."""

    def __init__(self, basis, members):
        self.basis = tuple(tuple(row) for row in basis)
        self.members = tuple(members)
        if len(self.basis) != 2:
            raise ValidationError("a flat needs exactly two basis forms")
        if len(self.members) < 2:
            raise ValidationError("a flat needs at least two member hyperplanes")

    @property
    def multiplicity(self):
        return len(self.members)

    def basis_forms(self, ring):
        return (ring.linear_form(list(self.basis[0])),
                ring.linear_form(list(self.basis[1])))

    def prime(self, ring):
        return Ideal(ring, self.basis_forms(ring))

    def prime_power(self, ring, b):
        """The b-th power of the flat prime (symbolic = ordinary here)."""
        if b < 0:
            raise ValidationError("negative power of a flat prime")
        if b == 0:
            return Ideal(ring, (ring.one(),))
        b1, b2 = self.basis_forms(ring)
        gens = []
        for a in range(b + 1):
            gens.append(b1 ** a * b2 ** (b - a))
        return Ideal(ring, tuple(gens))

    def __eq__(self, other):
        return isinstance(other, Flat) and other.basis == self.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"Flat(e={self.multiplicity}, members={list(self.members)})"


class Arrangement:
    """Ordered list of pairwise independent linear forms in a fixed ring."""

    def __init__(self, ring, forms):
        forms = tuple(forms)
        for f in forms:
            if f.ring != ring:
                raise ValidationError("arrangement forms from a different ring")
            validate_linear_form(f)
        self.ring = ring
        self.forms = forms
        self._check_pairwise_independent()
        self._flats = None
        self._poly = None
        self._jacobian = None

    def _check_pairwise_independent(self):
        """Two nonzero linear forms are dependent exactly when their
        coefficient rows, scaled so that the first nonzero entry is 1,
        are equal."""
        field = self.ring.field
        first = {}  # scaled row -> index of its first form
        for j, f in enumerate(self.forms):
            row = linear_coefficients(f)
            inv = field.inv(next(c for c in row if c))
            i = first.setdefault(tuple(field.mul(c, inv) for c in row), j)
            if i != j:
                raise _DependentForms(i, j, self.forms)

    @property
    def d(self):
        return len(self.forms)

    @property
    def nvars(self):
        return self.ring.nvars

    def coefficient_rows(self):
        return [linear_coefficients(f) for f in self.forms]

    def defining_polynomial(self):
        if self._poly is None:
            self._poly = expand_product(list(self.forms))
        return self._poly

    def flats(self):
        if self._flats is None:
            self._flats = tuple(intersection_flats(self))
        return self._flats

    def flat_multiset(self):
        """Multiplicity counts, e.g. {3: 25, 2: 30}."""
        return Counter(f.multiplicity for f in self.flats())

    def membership_family(self):
        """The flat -> member-set hypergraph as a sorted tuple."""
        return tuple(sorted(f.members for f in self.flats()))

    def __repr__(self):
        return f"Arrangement({self.d} forms in {self.ring})"


class _DependentForms(ValidationError):
    """Forms i and j (from 0) of an arrangement are dependent."""

    def __init__(self, i, j, forms):
        super().__init__(f"forms {i + 1} and {j + 1} are dependent: "
                         f"{forms[i]} vs {forms[j]}")
        self.pair = (i, j)


# ---------------------------------------------------------------------------
# parsing


def parse_arrangement(text, field=None):
    """Parse the .arr format: 'vars:' header then one linear form per line."""
    field = field if field is not None else GF(DEFAULT_PRIME)
    ring = None
    forms = []
    lines_seen = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ring is None:
            if not line.startswith("vars:"):
                raise ParseError("expected a 'vars:' header first", lineno)
            names = line[len("vars:"):].split()
            if not names:
                raise ParseError("no variable names after 'vars:'", lineno)
            if len(names) > _MAX_FILE_VARS:
                raise ParseError(
                    f"at most {_MAX_FILE_VARS} variables supported, got {len(names)}",
                    lineno)
            ring = PolyRing(tuple(names), field)
            continue
        forms.append(parse_linear_expr(ring, line, line=lineno))
        lines_seen.append(lineno)
    if ring is None:
        raise ParseError("empty arrangement file")
    if not forms:
        raise ParseError("no linear forms in arrangement file")
    try:
        return Arrangement(ring, forms)
    except _DependentForms as exc:
        i, j = exc.pair
        raise ParseError(f"form duplicates line {lines_seen[i]} up to scale",
                         lines_seen[j]) from None


class Graph:
    """Simple undirected graph: no loops, no repeated edges."""

    def __init__(self, vertices, edges):
        self.vertices = vertices
        seen = set()
        out = []
        for a, b in edges:
            if a == b:
                raise ValidationError(f"loop at vertex {a}")
            if not (1 <= a <= vertices and 1 <= b <= vertices):
                raise ValidationError(f"edge ({a},{b}) out of range")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValidationError(f"repeated edge {key}")
            seen.add(key)
            out.append(key)
        self.edges = tuple(out)

    def triangles(self):
        """All 3-cycles as sorted vertex triples."""
        eset = set(self.edges)
        out = set()
        for (a, b), (c, d) in itertools.combinations(self.edges, 2):
            shared = {a, b} & {c, d}
            if len(shared) != 1:
                continue
            u = ({a, b} - shared).pop()
            v = ({c, d} - shared).pop()
            if (min(u, v), max(u, v)) in eset:
                out.add(tuple(sorted([u, v, shared.pop()])))
        return sorted(out)

    def __repr__(self):
        return f"Graph({self.vertices} vertices, {len(self.edges)} edges)"


def parse_graph(text):
    """Parse the .graph format: 'vertices: v' then 'edge: i j' lines."""
    vertices = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if vertices is None:
            if not line.startswith("vertices:"):
                raise ParseError("expected a 'vertices:' header first", lineno)
            try:
                vertices = int(line[len("vertices:"):].strip())
            except ValueError:
                raise ParseError("vertex count is not an integer", lineno)
            continue
        if not line.startswith("edge:"):
            raise ParseError(f"expected 'edge: i j', got {line!r}", lineno)
        parts = line[len("edge:"):].split()
        if len(parts) != 2:
            raise ParseError("an edge needs exactly two endpoints", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", lineno)
        edges.append((a, b))
    if vertices is None:
        raise ParseError("empty graph file")
    try:
        return Graph(vertices, edges)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# the intersection lattice (codimension-2 stratum)


def intersection_flats(arr):
    """Distinct codimension-2 flats with members and multiplicities.

    Groups the C(d,2) hyperplane pairs by the reduced echelon basis of
    their span; the pair-counting identity sum C(e,2) = C(d,2) is
    asserted on the way out.
    """
    field = arr.ring.field
    rows = arr.coefficient_rows()
    d = len(rows)
    if d < 2:
        raise ValidationError("need at least two hyperplanes for a flat")
    by_basis = {}
    for i in range(d):
        for j in range(i + 1, d):
            ech, _ = linalg.rref([rows[i], rows[j]], field)
            key = tuple(tuple(r) for r in ech)
            by_basis.setdefault(key, set()).update((i, j))
    flats = []
    pair_count = 0
    for basis, members in sorted(by_basis.items(), key=lambda kv: sorted(kv[1])):
        mem = sorted(members)
        flats.append(Flat(basis, mem))
        pair_count += len(mem) * (len(mem) - 1) // 2
    if pair_count != d * (d - 1) // 2:
        raise InvariantError("pair-counting identity failed on the flats")
    return flats


def _flats_by_rank(arr):
    """The member sets of the flats of rank 2, 3, ..., one rank at a time.

    A flat of rank r + 1 is the span of a rank-r flat and a plane outside
    it, grouped by the reduced echelon basis of that span.  Its members
    are the planes in the span: those of any rank-r flat G inside it, and
    every plane outside G, which spans it with G.  Each rank comes as a
    sorted tuple of sorted member tuples; the last is the whole
    arrangement's, at its rank.
    """
    field = arr.ring.field
    rows = arr.coefficient_rows()
    level = {f.basis: set(f.members) for f in arr.flats()}
    while level:
        yield tuple(sorted(tuple(sorted(m)) for m in level.values()))
        up = {}
        for basis, members in level.items():
            for i, row in enumerate(rows):
                if i not in members:
                    ech, _ = linalg.rref(list(basis) + [row], field)
                    up.setdefault(tuple(map(tuple, ech)), set()).update(
                        members, (i,))
        level = up


def combinatorial_degrees(arr):
    """(number of flats, total degree of the top-dimensional locus).

    A flat of multiplicity e contributes (e-1)^2 to the second, the
    degree of its local Jacobian ideal (`pencil_component`); for a double
    flat that ideal is its prime, of degree 1.
    """
    flats = arr.flats()
    return len(flats), sum((f.multiplicity - 1) ** 2 for f in flats)


# ---------------------------------------------------------------------------
# singular-locus ideals


def jacobian_ideal(arr):
    """Ideal of the partial derivatives of the defining polynomial.

    Always has height two for an arrangement of at least two planes;
    asserted via the Hilbert dimension of the quotient.  The ideal is
    memoized on the arrangement, with the basis and resolution it caches,
    so a later `top_comb(arr)` can reuse it.
    """
    if arr._jacobian is not None:
        return arr._jacobian
    if arr.d < 2:
        raise ValidationError("the singular locus needs at least two hyperplanes")
    _check_prime_safety(arr)
    F = arr.defining_polynomial()
    ideal = Ideal(arr.ring, tuple(g for g in gradient(F) if not g.is_zero()))
    codim = arr.ring.nvars - hilbert(ideal).dimension
    if codim != 2:
        raise InvariantError(f"Jacobian ideal has height {codim}, expected 2")
    arr._jacobian = ideal
    return ideal


def _plane_groups(arr, powers):
    """The leaves of the intersection of the powers p_f^powers[f] of the
    flat primes, grouped by plane, as (flats, leaf) pairs in plane order.

    Flats of exponent 0 contribute the unit ideal and are skipped.  Flats
    (H, L_1), ..., (H, L_k) with the same first member plane H and the
    same exponent b, each L_i another member plane, become one leaf
    (H, g)^b with g = L_1 * ... * L_k, placed where the group's first flat
    stands.  This is exact: (H, g)^b is a power of a complete
    intersection, so it is unmixed, and its associated primes are its
    minimal primes (H, L_i), distinct since distinct flats in H give
    non-proportional forms L_i modulo H.  At (H, L_i) the other L_j are
    units, so there (H, g)^b is (H, L_i)^b, which is primary; hence
    (H, g)^b is the intersection of the (H, L_i)^b.  A group of one flat
    is its prime power, and its prime when b = 1.  A flat's first member
    is its lowest plane, so with one exponent the groups shrink along the
    plane order: the last planes lie on few flats whose other members
    come later.
    """
    ring = arr.ring
    groups = {}
    for f in arr.flats():
        if powers[f]:
            groups.setdefault((f.members[0], powers[f]), []).append(f)
    out = []
    for (h, b), flats in groups.items():
        if len(flats) == 1:
            leaf = (flats[0].prime(ring) if b == 1
                    else flats[0].prime_power(ring, b))
        else:
            plane = arr.forms[h]
            product = expand_product([arr.forms[f.members[1]] for f in flats])
            leaf = Ideal(ring, tuple(plane ** a * product ** (b - a)
                                     for a in range(b, -1, -1)))
        out.append((flats, leaf))
    return out


def radical_comb(arr):
    """Intersection of all flat primes: the reduced singular locus.

    The flats are grouped by their first member plane (`_plane_groups`),
    so only the groups are intersected, at most one per plane instead of
    one per flat.  A single flat comes back as its prime, unchanged.
    """
    _check_prime_safety(arr)
    return intersect_many([leaf for _, leaf in
                           _plane_groups(arr, {f: 1 for f in arr.flats()})])


def pencil_component(flat, ring, vecs):
    """The component of top at one flat: the Jacobian ideal of the local
    arrangement of its members (Orlik and Terao 1992, "Arrangements of
    Hyperplanes").

    For multiplicity 2 this is the flat prime.  Otherwise the product G
    of the member forms, whose coefficient rows `vecs` holds, is
    differentiated at two columns where the flat's basis (b1, b2) has a
    nonzero 2x2 minor: for an echelon basis its pivot columns.  G is
    g(b1, b2) for a binary form g, so by the chain rule the two partials
    are g_s(b1, b2) and g_t(b1, b2) at the pivot columns, and an
    invertible recombination of them at any other pair; the result is
    primary to the flat prime with degree (e-1)^2.
    """
    if flat.multiplicity == 2:
        return flat.prime(ring)
    field = ring.field
    r1, r2 = flat.basis
    i, j = next((i, j) for i, j in itertools.combinations(range(ring.nvars), 2)
                if field.mul(r1[i], r2[j]) != field.mul(r1[j], r2[i]))
    G = expand_product([ring.linear_form(vecs[k]) for k in flat.members])
    return Ideal(ring, (G.partial_derivative(i), G.partial_derivative(j)))


def top_comb(arr):
    """Intersection of the flats' local Jacobian ideals.

    This is the height-two unmixed part of the Jacobian ideal; the
    containment and degree invariants exercised by the test suite certify
    the identification.  So when J is unmixed, top = J.  If `arr` already
    holds J (`jacobian_ideal` memoizes it) in 4 variables, J is certified
    unmixed when pd(R/J) <= 3 and Ext^3(R/J, R) has finite length
    (Eisenbud, Huneke and Vasconcelos 1992, "Direct methods for primary
    decomposition", Invent. Math. 110), read by `unmixed_deficiency` from
    J's resolution, which is cached on J.  Then J's reduced basis is
    returned, with J's Hilbert data and resolution; it is the basis the
    intersection would give, since an elimination key orders words free
    of the auxiliary variable as grevlex does.

    Otherwise the intersection is computed with one leaf per plane H:
    the plane group (H, L_1 * ... * L_k) of H's double flats
    (`_plane_groups`), intersected with the `pencil_component` C_f, the
    local Jacobian, of each flat f of multiplicity at least 3 whose first
    member is H.  The components of top at H's flats are the primes of
    the double ones and the C_f; the full plane group is not needed, since
    each C_f is primary to its flat prime P_f and so lies in it.  A leaf
    of one ideal is that ideal, so a pencil's top keeps the two
    generators its component was built with.  The leaves are intersected
    in reverse plane order: the groups shrink along the plane order, and
    in that order the balanced tree would carry the smallest leaf up as
    the odd one out, to meet everything else at a lopsided root.
    """
    _check_prime_safety(arr)
    ring = arr.ring
    J = arr._jacobian
    if J is not None and ring.nvars == 4 and unmixed_deficiency(J) is not None:
        top = _ideal_from_basis(ring, J.groebner()._polys)
        top._hilbert_cache = hilbert(J)
        top._resolution_cache = J._resolution_cache
        return top
    doubles = {f: int(f.multiplicity == 2) for f in arr.flats()}
    leaves = {flats[0].members[0]: [group]
              for flats, group in _plane_groups(arr, doubles)}
    vecs = arr.coefficient_rows()
    for f in arr.flats():
        if f.multiplicity >= 3:
            leaves.setdefault(f.members[0], []).append(
                pencil_component(f, ring, vecs))
    return intersect_many([intersect_many(leaves[h])
                           for h in sorted(leaves, reverse=True)])


def symbolic_intersection(arr, powers, override=False):
    """Intersection of chosen powers of the flat primes.

    `powers` maps each flat to an exponent.  Without `override`, flats of
    multiplicity 2 must get exponent 1 and flats of multiplicity e >= 3
    any exponent between 0 and e; zero exponents contribute the unit
    ideal (and are skipped).  `override` lifts these bounds, but a
    negative exponent is refused either way.  Flats with the same first
    member plane and exponent are intersected as one leaf
    (`_plane_groups`).
    """
    _check_prime_safety(arr)
    ring = arr.ring
    flats = arr.flats()
    missing = [f for f in flats if f not in powers]
    if missing:
        raise ValidationError(f"no exponent for flat {missing[0]!r}")
    negative = [f for f in flats if powers[f] < 0]
    if negative:
        raise ValidationError(f"negative exponent {powers[negative[0]]} for "
                              f"flat {negative[0]!r}")
    if not override:
        for f in flats:
            b = powers[f]
            if f.multiplicity == 2 and b != 1:
                raise ValidationError(
                    f"flat {f!r} has multiplicity 2 and needs exponent 1, got {b} "
                    "(pass override to force)")
            if f.multiplicity >= 3 and not 0 <= b <= f.multiplicity:
                raise ValidationError(
                    f"exponent {b} for flat {f!r} is outside 0..{f.multiplicity} "
                    "(pass override to force)")
    ideals = [leaf for _, leaf in _plane_groups(arr, powers)]
    if not ideals:
        return Ideal(ring, (ring.one(),))
    return intersect_many(ideals)


def rule_powers(arr, k):
    """Exponent map following the construction rule: e=2 flats get 1."""
    return {f: (k if f.multiplicity >= 3 else 1) for f in arr.flats()}


def uniform_powers(arr, k):
    """Exponent k for every flat (symbolic power of the radical)."""
    return {f: k for f in arr.flats()}


def _check_prime_safety(arr):
    """Refuse F_p with p <= d; then p also exceeds every flat multiplicity."""
    p = arr.ring.field.p
    if p is not None and p <= arr.d:
        raise ValidationError(
            f"field characteristic {p} is too small for degree {arr.d}; use QQ")


# ---------------------------------------------------------------------------
# shared-plane hypothesis and witnesses


def hypothesis_check(arr):
    """Whether no hyperplane lies in two distinct non-reduced flat primes.

    Returns (holds, witnesses); each witness is (plane_index, flat, flat).
    A flat's members are every plane through it (`intersection_flats`).
    """
    nonreduced = [f for f in arr.flats() if f.multiplicity >= 3]
    witnesses = []
    for i in range(arr.d):
        containing = [f for f in nonreduced if i in f.members]
        for a in range(len(containing)):
            for b in range(a + 1, len(containing)):
                witnesses.append((i, containing[a], containing[b]))
    return (not witnesses), witnesses


# ---------------------------------------------------------------------------
# graphic arrangements


def graphic_arrangement(graph, field=None):
    """One hyperplane x_i - x_j per edge, in variables x1..xv."""
    if len(graph.edges) < 2:
        raise ValidationError("a graphic arrangement needs at least two edges")
    field = field if field is not None else GF(DEFAULT_PRIME)
    names = tuple(f"x{i}" for i in range(1, graph.vertices + 1))
    ring = PolyRing(names, field)
    forms = []
    for a, b in graph.edges:
        coeffs = [field.zero] * graph.vertices
        coeffs[a - 1] = field.one
        coeffs[b - 1] = field.neg(field.one)
        forms.append(ring.linear_form(coeffs))
    return Arrangement(ring, forms)


def triangle_condition(graph):
    """Whether no two 3-cycles share an edge; witnesses are violations.

    Returns (holds, witnesses) with witnesses (edge, triangle, triangle).
    """
    triangles = graph.triangles()
    by_edge = {}
    for tri in triangles:
        a, b, c = tri
        for e in ((a, b), (a, c), (b, c)):
            by_edge.setdefault(e, []).append(tri)
    witnesses = []
    for e, tris in sorted(by_edge.items()):
        for i in range(len(tris)):
            for j in range(i + 1, len(tris)):
                witnesses.append((e, tris[i], tris[j]))
    return (not witnesses), witnesses


# ---------------------------------------------------------------------------
# generic hyperplane sections


def generic_section(arr, seed=0):
    """Cut an arrangement in P^n down to P^3 by a general linear section.

    The last n-3 variables are replaced by seeded random linear forms in
    the first four.  Genericity is re-verified: the sectioned forms must
    stay pairwise independent, and the member sets of the flats of rank 2
    and 3 (`_flats_by_rank`) must match the original arrangement's, since
    a special section can make new points without changing any line.
    Retries with fresh randomness up to 32 times, then gives up loudly.
    """
    if arr.nvars < 4:
        raise ValidationError("sections need an ambient dimension of at least 3")
    if arr.nvars == 4:
        return arr
    field = arr.ring.field
    target = PolyRing(tuple(arr.ring.names[:4]), field)
    reference = tuple(itertools.islice(_flats_by_rank(arr), 2))
    rng = random.Random(seed)
    for _ in range(_SECTION_RETRIES):
        images = [target.variable(i) for i in range(4)]
        for _ in range(arr.nvars - 4):
            images.append(target.linear_form(
                [field.from_int(rng.randint(-999, 999)) for _ in range(4)]))
        try:
            forms = [f.substitute(images) for f in arr.forms]
            sectioned = Arrangement(target, forms)
        except ValidationError:
            continue
        if tuple(itertools.islice(_flats_by_rank(sectioned), 2)) == reference:
            return sectioned
    raise InternalLimitError(
        f"no generic section found after {_SECTION_RETRIES} attempts (seed {seed})")


# ---------------------------------------------------------------------------
# lattice isomorphism


def lattice_isomorphic(a, b):
    """Whether a hyperplane bijection carries the intersection lattice of
    `a` onto that of `b`: the member sets of its flats of each rank
    (`_flats_by_rank`) onto those of the same rank."""
    if a.d != b.d:
        return False
    fa = [(r, frozenset(s)) for r, sets in enumerate(_flats_by_rank(a))
          for s in sets]
    fb = [(r, frozenset(s)) for r, sets in enumerate(_flats_by_rank(b))
          for s in sets]
    if sorted((r, len(s)) for r, s in fa) != sorted((r, len(s)) for r, s in fb):
        return False

    def signatures(d, family):
        sig = {i: tuple(sorted((r, len(s)) for r, s in family if i in s))
               for i in range(d)}
        # one refinement round over shared-flat neighborhoods
        refined = {}
        for i in range(d):
            local = []
            for r, s in family:
                if i in s:
                    local.append((r, len(s),
                                  tuple(sorted(sig[j] for j in s if j != i))))
            refined[i] = (sig[i], tuple(sorted(local)))
        return refined

    sig_a = signatures(a.d, fa)
    sig_b = signatures(b.d, fb)
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return False

    set_b = set(fb)
    through = {i: [(r, s) for r, s in fa if i in s] for i in range(a.d)}
    order = sorted(range(a.d),
                   key=lambda i: sum(1 for j in range(a.d) if sig_a[j] == sig_a[i]))
    assignment = {}
    used = set()

    def feasible(i):
        # every fully mapped flat of a through i must map onto a flat of b
        # of its rank; the flats that miss i were checked before it joined
        for r, s in through[i]:
            if all(k in assignment for k in s):
                img = frozenset(assignment[k] for k in s)
                if (r, img) not in set_b:
                    return False
        return True

    def backtrack(pos):
        if pos == len(order):
            return True
        i = order[pos]
        for j in range(b.d):
            if j in used or sig_b[j] != sig_a[i]:
                continue
            assignment[i] = j
            used.add(j)
            if feasible(i) and backtrack(pos + 1):
                return True
            del assignment[i]
            used.discard(j)
        return False

    return backtrack(0)


# ---------------------------------------------------------------------------
# seeded generic data helpers shared with the liaison layer


def random_linear_form(ring, rng):
    while True:
        coeffs = [ring.field.from_int(rng.randint(-999, 999))
                  for _ in range(ring.nvars)]
        if any(not ring.field.is_zero(c) for c in coeffs):
            return ring.linear_form(coeffs)


def random_coordinate_change(rng, field, size=4, bound=9):
    """Integer matrix with entries in [-bound, bound], invertible over
    `field`."""
    while True:
        M = [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]
        if linalg.rank([[field.from_int(c) for c in row] for row in M],
                       field) == size:
            return M


def apply_coordinate_change(arr, matrix):
    """New arrangement with every form composed with the matrix."""
    ring = arr.ring
    field = ring.field
    out = []
    for row in arr.coefficient_rows():
        new = [field.zero] * ring.nvars
        for jj in range(ring.nvars):
            acc = field.zero
            for ii in range(ring.nvars):
                acc = field.add(acc, field.mul(row[ii],
                                               field.from_int(matrix[ii][jj])))
            new[jj] = acc
        out.append(ring.linear_form(new))
    return Arrangement(ring, out)
