"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each criterion prints a PASS line with its elapsed time against the
stated budget; run with `pytest -s tests/test_acceptance.py` to watch
them stream by.  Randomized property suites run 200 seeded trials each
and log their seeds.
"""

import os
import random
import time

import pytest

from conftest import monomials_of_degree, undriven_liaison_basis
from singlocus.arrangement import (Arrangement, generic_section,
                                   graphic_arrangement, hypothesis_check,
                                   jacobian_ideal, radical_comb,
                                   standard_ring, top_comb,
                                   triangle_condition)
from singlocus.corpus import (entry_names, load_arrangement, load_graph,
                              run_regressions)
from singlocus.groebner import Ideal, radical_membership, saturate_irrelevant
from singlocus.homology import betti_of, hilbert, is_cm, rao_dimensions
from singlocus.liaison import (LiaisonStep, basic_double_link, construct_lr,
                               construct_lr_radical,
                               hilbert_additivity_holds, liaison_addition,
                               shifted_rao_sum, verify_construction)
from singlocus.polyring import QQ, expand_product, gradient


class _Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds
        self.start = time.monotonic()

    def done(self, detail=""):
        elapsed = time.monotonic() - self.start
        line = f"ACCEPT {self.label}: PASS ({elapsed:.1f}s <= {self.seconds}s)"
        if detail:
            line += f"  {detail}"
        print(line)
        assert elapsed <= self.seconds, \
            f"{self.label} exceeded its runtime budget: {elapsed:.1f}s"


def _assert_field_agreement(name):
    """The q and p:32003 pipelines agree on a small corpus arrangement."""
    ap = load_arrangement(name)
    aq = load_arrangement(name, field=QQ)
    jp, jq = jacobian_ideal(ap), jacobian_ideal(aq)
    assert hilbert(jp).hp_string() == hilbert(jq).hp_string()
    assert betti_of(jp).entries == betti_of(jq).entries
    rp, rq = radical_comb(ap), radical_comb(aq)
    assert betti_of(rp).entries == betti_of(rq).entries
    assert is_cm(rp) == is_cm(rq)
    tp, tq = top_comb(ap), top_comb(aq)
    assert betti_of(tp).entries == betti_of(tq).entries
    assert is_cm(tp) == is_cm(tq)


# Criteria 1-9 each run their corpus entries, which hold the expected
# values, and add only the checks the corpus does not carry: the
# saturation of J, the Q cross-checks and the liaison constructions.
_CRITERION_ENTRIES = {
    "C1": ("fifteen_planes",),
    "C2": ("seven_planes",),
    "C3": ("emb_point",),
    "C4": ("catalogue",),
    "C5": ("fat_nine",),
    "C6": ("free_not_cm",),
    "C7": ("same_lattice",),
    "C8": ("graphic",),
    "C9": ("rao_blocks",),
}


def _run_corpus(criterion):
    """Run the criterion's corpus entries; every check must pass."""
    results = run_regressions(names=_CRITERION_ENTRIES[criterion])
    failed = [r for r in results if not r.ok]
    for r in failed:
        print(r.line())
    assert results and not failed, \
        f"{criterion}: {len(failed)} of {len(results)} corpus checks failed"
    return f"{len(results)} corpus checks"


def test_criteria_run_every_corpus_entry():
    named = [n for names in _CRITERION_ENTRIES.values() for n in names]
    assert sorted(named) == sorted(entry_names())


def test_criterion_1_fifteen_planes():
    budget = _Budget("C1 15-plane example", 600)
    checked = _run_corpus("C1")
    J = jacobian_ideal(load_arrangement("fifteen_planes"))
    assert saturate_irrelevant(J).equals(J)          # J = J^sat
    budget.done(checked)


def test_criterion_2_seven_planes():
    budget = _Budget("C2 7-plane example (with QQ cross-check)", 30)
    checked = _run_corpus("C2")
    _assert_field_agreement("seven_planes")
    budget.done(checked)


def test_criterion_3_embedded_point():
    budget = _Budget("C3 embedded-point example (with QQ cross-check)", 30)
    checked = _run_corpus("C3")
    J = jacobian_ideal(load_arrangement("four_planes_point"))
    assert saturate_irrelevant(J).equals(J)
    _assert_field_agreement("four_planes_point")
    _assert_field_agreement("five_planes_point")
    budget.done(checked)


def test_criterion_4_catalogue():
    budget = _Budget("C4 8/9-plane catalogue and stars", 120)
    checked = _run_corpus("C4")
    for name in ("pencil_three", "star_pencil", "star_four", "eight_planes",
                 "nine_planes", "radical_block"):
        _assert_field_agreement(name)
    budget.done(checked)


def test_criterion_5_symbolic_square():
    budget = _Budget("C5 symbolic square of the 9-plane radical", 300)
    budget.done(_run_corpus("C5"))


def test_criterion_6_free_not_cm():
    budget = _Budget("C6 free-but-radical-not-CM 10 planes", 300)
    budget.done(_run_corpus("C6"))


def test_criterion_7_same_lattice_different_betti():
    budget = _Budget("C7 equal lattices, different Betti tables", 600)
    budget.done(_run_corpus("C7"))


def test_criterion_8_octahedron():
    budget = _Budget("C8 octahedron graphic arrangement", 600)
    budget.done(_run_corpus("C8"))


@pytest.mark.skipif(not os.environ.get("SINGLOCUS_STRETCH"),
                    reason="stretch goal: dodecahedron CM verdicts "
                           "(no time bound); set SINGLOCUS_STRETCH=1")
def test_criterion_8_stretch_dodecahedron_cm():
    arr = generic_section(graphic_arrangement(load_graph("dodecahedron")),
                          seed=11)
    assert is_cm(radical_comb(arr)) is True
    assert is_cm(top_comb(arr)) is True


def test_criterion_9_deficiency_constructions():
    budget = _Budget("C9 deficiency-module constructions", 1800)
    checked = _run_corpus("C9")
    # one extra double link shifts the support degree by one
    c_h1 = construct_lr(1, h=1, seed=7)
    assert c_h1.predicted_rao == {9: 1}
    report_h1 = verify_construction(c_h1)
    assert report_h1["ok"], report_h1
    # the heaviest run: two glued blocks, verified end to end
    c2 = construct_lr(2, seed=7)
    assert c2.predicted_rao == {17: 2}
    assert c2.predicted_degree == 165
    report = verify_construction(c2)
    assert report["rao_computed"] == {17: 2}, report
    assert report["degree_computed"] == 165, report
    assert report["ok"], report
    assert all(hilbert_additivity_holds(s) for s in c2.steps)
    # the bases driven by the liaison Hilbert function are the undriven ones
    for step in c_h1.steps + c2.steps:
        assert step.output.groebner()._polys == undriven_liaison_basis(step)
    budget.done(checked)


@pytest.mark.skipif(not os.environ.get("SINGLOCUS_STRETCH"),
                    reason="stretch goal: four glued blocks "
                           "(no time bound); set SINGLOCUS_STRETCH=1")
@pytest.mark.parametrize("build, planes, rao", [
    (lambda: construct_lr(4), 36, {35: 4}),
    (lambda: construct_lr_radical(4), 32, {28: 4}),
], ids=["lr4", "radical4"])
def test_criterion_9_stretch_four_blocks(build, planes, rao):
    """The "any r" theorem at r = 4, end to end, and each step's driven
    basis against the undriven oracle."""
    start = time.monotonic()
    c = build()
    built = time.monotonic()
    assert c.arrangement.d == planes and c.predicted_rao == rao
    report = verify_construction(c)
    verified = time.monotonic()
    assert report["rao_computed"] == rao and report["ok"], report
    for step in c.steps:
        assert step.output.groebner()._polys == undriven_liaison_basis(step)
    print(f"ACCEPT C9 stretch {planes} planes: construction "
          f"{built - start:.1f}s, verification {verified - built:.1f}s, "
          f"oracle {time.monotonic() - verified:.1f}s")


# ---------------------------------------------------------------------------
# criterion 10: property suites, 200 seeded trials each


_TRIALS = 200


def _random_forms(ring, rng, max_forms=8, force_pencils=True):
    """Random small-coefficient arrangement, biased toward shared flats."""
    field = ring.field
    target = rng.randint(3, max_forms)
    rows = []
    guard = 0
    while len(rows) < target and guard < 200:
        guard += 1
        if force_pencils and len(rows) >= 2 and rng.random() < 0.45:
            i, j = rng.sample(range(len(rows)), 2)
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            cand = [field.add(field.mul(field.from_int(a), u),
                              field.mul(field.from_int(b), v))
                    for u, v in zip(rows[i], rows[j])]
        else:
            cand = [field.from_int(rng.randint(-3, 3)) for _ in range(4)]
        if all(field.is_zero(c) for c in cand):
            continue
        from singlocus import linalg
        if any(linalg.rank([r, cand], field) < 2 for r in rows):
            continue
        rows.append(cand)
    if len(rows) < 3:
        return None
    try:
        return Arrangement(ring, [ring.linear_form(r) for r in rows])
    except Exception:
        return None


def _seeded(label, base_seed):
    print(f"ACCEPT C10 {label}: base seed {base_seed}, {_TRIALS} trials")
    return random.Random(base_seed)


def test_criterion_10a_euler_identity():
    ring = standard_ring()
    rng = _seeded("Euler identity", 1001)
    for trial in range(_TRIALS):
        n = rng.randint(2, 10)
        forms = []
        while len(forms) < n:
            coeffs = [ring.field.from_int(rng.randint(-9, 9)) for _ in range(4)]
            if any(not ring.field.is_zero(c) for c in coeffs):
                forms.append(ring.linear_form(coeffs))
        f = expand_product(forms)
        acc = ring.zero()
        for i, g in enumerate(gradient(f)):
            acc = acc + ring.variable(i) * g
        assert acc == f.scale(ring.field.from_int(n)), f"trial {trial}"
    print("ACCEPT C10 Euler identity: PASS")


def test_criterion_10b_pair_counting():
    ring = standard_ring()
    rng = _seeded("pair counting", 1002)
    done = 0
    while done < _TRIALS:
        arr = _random_forms(ring, rng)
        if arr is None:
            continue
        total = sum(f.multiplicity * (f.multiplicity - 1) // 2
                    for f in arr.flats())
        assert total == arr.d * (arr.d - 1) // 2
        done += 1
    print("ACCEPT C10 pair counting: PASS")


def test_criterion_10c_containments():
    ring = standard_ring()
    rng = _seeded("containments J in top in radical", 1003)
    done = 0
    while done < _TRIALS:
        arr = _random_forms(ring, rng, max_forms=6)
        if arr is None:
            continue
        J = jacobian_ideal(arr)
        top = top_comb(arr)
        rad = radical_comb(arr)
        gb_top, gb_rad = top.groebner(), rad.groebner()
        assert all(gb_top.contains(g) for g in J.gens)
        assert all(gb_rad.contains(g) for g in top.gens)
        done += 1
    print("ACCEPT C10 containments: PASS")


def test_criterion_10d_radical_equality():
    ring = standard_ring()
    rng = _seeded("radical equality certificate", 1004)
    done = 0
    while done < _TRIALS:
        arr = _random_forms(ring, rng, max_forms=5)
        if arr is None:
            continue
        J = jacobian_ideal(arr)
        rad = radical_comb(arr)
        # combinatorial radical contains J, and each of its generators
        # lies in sqrt(J); as an intersection of primes it is radical,
        # so the two ideals agree exactly
        gb_rad = rad.groebner()
        assert all(gb_rad.contains(g) for g in J.gens)
        assert all(radical_membership(g, J) for g in gb_rad.polys)
        done += 1
    print("ACCEPT C10 radical equality: PASS")


def test_criterion_10e_betti_hilbert_identity():
    ring = standard_ring()
    rng = _seeded("Betti/Hilbert alternating sum", 1005)
    for trial in range(_TRIALS):
        gens = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 3)
            terms = {}
            for m in monomials_of_degree(4, d):
                if rng.random() < 0.3:
                    terms[m] = rng.randint(-4, 4)
            g = ring.from_terms(terms)
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        ideal = Ideal(ring, tuple(gens))
        if ideal.is_unit():
            continue
        table = betti_of(ideal)
        h = hilbert(ideal)
        acc = {}
        for (i, j), v in table.entries.items():
            acc[i + j] = acc.get(i + j, 0) + (-1) ** i * v
        for d in range(max(list(acc) + [len(h.numerator) - 1]) + 1):
            want = h.numerator[d] if d < len(h.numerator) else 0
            assert acc.get(d, 0) == want, f"trial {trial}"
    print("ACCEPT C10 Betti/Hilbert identity: PASS")


def test_criterion_10f_sufficient_criterion_property():
    ring = standard_ring()
    rng = _seeded("shared-plane hypothesis implies both CM", 1006)
    done = 0
    held = 0
    while done < _TRIALS:
        arr = _random_forms(ring, rng, max_forms=8)
        if arr is None:
            continue
        done += 1
        holds, _ = hypothesis_check(arr)
        if not holds:
            continue
        held += 1
        assert is_cm(top_comb(arr)), f"top part not CM for {arr.forms}"
        assert is_cm(radical_comb(arr)), f"radical not CM for {arr.forms}"
    assert held >= 20, "hypothesis held too rarely for a meaningful suite"
    print(f"ACCEPT C10 sufficient criterion: PASS "
          f"(hypothesis held in {held}/{done} trials)")


def test_criterion_10g_graphic_condition_property():
    rng = _seeded("triangle condition implies hypothesis", 1007)
    from singlocus.arrangement import Graph
    done = 0
    while done < _TRIALS:
        v = rng.randint(4, 6)
        edges = [(i, j) for i in range(1, v + 1) for j in range(i + 1, v + 1)
                 if rng.random() < 0.55]
        if len(edges) < 2:
            continue
        graph = Graph(v, edges)
        holds, _ = triangle_condition(graph)
        if not holds:
            continue
        arr = generic_section(graphic_arrangement(graph), seed=rng.randint(0, 10**6))
        h_holds, _ = hypothesis_check(arr)
        assert h_holds, f"edges {edges}"
        done += 1
    print("ACCEPT C10 graphic condition: PASS")


def test_criterion_10h_additivity_and_shift():
    ring = standard_ring()
    x, y, z, w = ring.variables()
    from singlocus.groebner import intersect
    rng = _seeded("Hilbert additivity and deficiency shift", 1008)

    def random_linear(nonzero_at=None):
        while True:
            coeffs = [ring.field.from_int(rng.randint(-5, 5)) for _ in range(4)]
            if any(not ring.field.is_zero(c) for c in coeffs):
                return ring.linear_form(coeffs)

    done = 0
    while done < _TRIALS:
        l1, l2 = random_linear(), random_linear()
        m1, m2 = random_linear(), random_linear()
        from singlocus import linalg
        from singlocus.polyring import linear_coefficients
        if linalg.rank([linear_coefficients(l1), linear_coefficients(l2)],
                       ring.field) < 2:
            continue
        if linalg.rank([linear_coefficients(m1), linear_coefficients(m2)],
                       ring.field) < 2:
            continue
        i1 = Ideal(ring, (l1, l2))
        i2 = Ideal(ring, (m1, m2))
        f1 = l1 * random_linear()
        f2 = m1
        ci = Ideal(ring, (f1, f2))
        if ring.nvars - hilbert(ci).dimension != 2:
            continue
        out = liaison_addition(i1, f1, i2, f2)
        step = LiaisonStep("addition", i1, f1, i2, f2, out)
        assert hilbert_additivity_holds(step)
        assert out.groebner()._polys == undriven_liaison_basis(step)
        assert hilbert(out).degree() == 1 + 1 + f1.total_degree() * 1
        done += 1

    # deficiency shift under double links, on a non-ACM curve
    skew = intersect(Ideal(ring, (x, y)), Ideal(ring, (z, w)))
    assert rao_dimensions(skew) == {0: 1}
    done = 0
    while done < _TRIALS:
        ell = random_linear()
        ci = Ideal(ring, (x * z, ell))
        if ring.nvars - hilbert(ci).dimension != 2:
            continue
        out = basic_double_link(skew, x * z, ell)
        step = LiaisonStep("bdl", skew, x * z, None, ell, out)
        assert out.groebner()._polys == undriven_liaison_basis(step)
        assert rao_dimensions(out) == {1: 1}
        assert shifted_rao_sum(step) == {1: 1}
        assert hilbert_additivity_holds(step)
        done += 1
    print("ACCEPT C10 additivity and shift: PASS")


@pytest.mark.skipif(not os.environ.get("SINGLOCUS_STRETCH"),
                    reason="stretch goal: the 31-plane arrangement "
                           "(no time bound); set SINGLOCUS_STRETCH=1")
def test_criterion_11_stretch_large_arrangement():
    arr = load_arrangement("thirty_one_planes")
    top = top_comb(arr)
    bt = betti_of(top)
    assert bt.totals() == [1, 10, 10, 1]
    assert tuple(bt.row(29)) == (0, 5, 0, 0)
    assert tuple(bt.row(35)) == (0, 5, 10, 0)
    assert tuple(bt.row(37)) == (0, 0, 0, 1)
