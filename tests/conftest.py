"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own fast paths: ideal
membership goes through a Macaulay-style matrix, Hilbert values through
standard-monomial counting, Betti numbers and deficiency dimensions
through the constant strands of the raw (non-minimal) resolution.
"""

import itertools
from importlib.resources import files

import pytest

from singlocus import linalg
from singlocus.groebner import GREVLEX
from singlocus.homology import _schreyer_resolution
from singlocus.polyring import GF, QQ, DEFAULT_PRIME, PolyRing

#: the corpus `.arr` and `.graph` files shipped with the package
CORPUS_DIR = files("singlocus") / "arrangements"


@pytest.fixture
def ring_p():
    return PolyRing(("x", "y", "z", "w"), GF(DEFAULT_PRIME))


@pytest.fixture
def ring_q():
    return PolyRing(("x", "y", "z", "w"), QQ)


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


def membership_by_linear_algebra(f, ideal, order=GREVLEX):
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


def standard_monomial_count(ideal, d):
    """dim (R/I)_d by counting monomials outside the leading-term ideal."""
    gb = ideal.groebner()
    leads = [tuple(e) for e in gb.leading_exponents()]
    count = 0
    for m in monomials_of_degree(ideal.ring.nvars, d):
        if not any(all(a >= b for a, b in zip(m, lt)) for lt in leads):
            count += 1
    return count


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
    twist_lists, maps = _schreyer_resolution(ideal)
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
    twist_lists, maps = _schreyer_resolution(ideal)
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
