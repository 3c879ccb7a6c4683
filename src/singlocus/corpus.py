"""Named regression corpus: arrangements, graphs, and expected values.

Every entry reproduces a computed example from the literature on
singular loci of plane arrangements; `run_regressions` recomputes each
one and compares against the recorded values.  The arrangement (`.arr`)
and graph (`.graph`) files ship in the package's `arrangements`
directory.
"""

from __future__ import annotations

from importlib.resources import files

from .arrangement import (_check_prime_safety, combinatorial_degrees,
                          generic_section, graphic_arrangement,
                          hypothesis_check, jacobian_ideal,
                          lattice_isomorphic, parse_arrangement, parse_graph,
                          radical_comb, rule_powers, symbolic_intersection,
                          top_comb, triangle_condition, uniform_powers)
from .errors import ValidationError
from .homology import (betti_of, hilbert, is_cm, is_saturated,
                       minimal_free_resolution, rao_dimensions)

_DATA = files(__package__) / "arrangements"


def _names(suffix):
    return sorted(entry.name[:-len(suffix)] for entry in _DATA.iterdir()
                  if entry.name.endswith(suffix))


def arrangement_names():
    return _names(".arr")


def _read(name, suffix, kind):
    if name not in _names(suffix):
        raise ValidationError(f"unknown corpus {kind} {name!r}")
    return (_DATA / f"{name}{suffix}").read_text(encoding="utf-8")


def load_arrangement(name, field=None):
    return parse_arrangement(_read(name, ".arr", "arrangement"), field=field)


def load_graph(name):
    return parse_graph(_read(name, ".graph", "graph"))


# ---------------------------------------------------------------------------
# regression checks


class CheckResult:
    def __init__(self, entry, check, ok, detail=""):
        self.entry = entry
        self.check = check
        self.ok = ok
        self.detail = detail

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        tail = f"  [{self.detail}]" if self.detail and not self.ok else ""
        return f"{status}  {self.entry}: {self.check}{tail}"


def _betti_rows(table):
    return {j: tuple(table.row(j)) for j in range(table.nrows)
            if any(table.row(j))}


def _check(results, entry, name, got, want):
    ok = got == want
    results.append(CheckResult(entry, name, ok,
                               "" if ok else f"got {got!r}, want {want!r}"))


def _fifteen_planes(field, results):
    arr = load_arrangement("fifteen_planes", field)
    _check(results, "fifteen_planes", "lattice 25 triple + 30 double flats",
           dict(arr.flat_multiset()), {3: 25, 2: 30})
    _check(results, "fifteen_planes", "combinatorial degrees (55, 130)",
           combinatorial_degrees(arr), (55, 130))
    J = jacobian_ideal(arr)
    top = top_comb(arr)
    _check(results, "fifteen_planes", "Jacobian ideal saturated",
           is_saturated(J), True)
    _check(results, "fifteen_planes", "Jacobian ideal unmixed",
           J.equals(top), True)
    hj = hilbert(J)
    _check(results, "fifteen_planes", "HP(R/J) = 130t - 1150",
           hj.hp_string(), "130t - 1150")
    bj = betti_of(J)
    _check(results, "fifteen_planes", "Betti totals (1,4,4,1)",
           bj.totals(), [1, 4, 4, 1])
    _check(results, "fifteen_planes", "generators in row 13",
           tuple(bj.row(13)), (0, 4, 0, 0))
    _check(results, "fifteen_planes", "last syzygies (4,1) in row 17",
           tuple(bj.row(17)), (0, 0, 4, 1))
    _check(results, "fifteen_planes", "R/J not CM", is_cm(J), False)
    rad = radical_comb(arr)
    _check(results, "fifteen_planes", "HP(R/radical) = 55t - 275",
           hilbert(rad).hp_string(), "55t - 275")
    br = betti_of(rad)
    _check(results, "fifteen_planes", "radical Betti row 9 = (11, 10)",
           tuple(br.row(9)), (0, 11, 10))
    _check(results, "fifteen_planes", "radical Betti totals (1,11,10)",
           br.totals(), [1, 11, 10])
    _check(results, "fifteen_planes", "radical is CM", is_cm(rad), True)
    holds, _ = hypothesis_check(arr)
    _check(results, "fifteen_planes", "hypothesis fails", holds, False)


def _seven_planes(field, results):
    arr = load_arrangement("seven_planes", field)
    J = jacobian_ideal(arr)
    _check(results, "seven_planes", "HP(R/J) = 24t - 64",
           hilbert(J).hp_string(), "24t - 64")
    bj = betti_of(J)
    _check(results, "seven_planes", "J Betti rows {5: 4 gens, 6: 3 syz}",
           _betti_rows(bj), {0: (1, 0, 0), 5: (0, 4, 0), 6: (0, 0, 3)})
    rad = radical_comb(arr)
    _check(results, "seven_planes", "HP(R/radical) = 15t - 25",
           hilbert(rad).hp_string(), "15t - 25")
    _check(results, "seven_planes", "radical Betti row 4 = (6, 5)",
           tuple(betti_of(rad).row(4)), (0, 6, 5))
    _check(results, "seven_planes", "both CM",
           (is_cm(J), is_cm(rad)), (True, True))
    _check(results, "seven_planes", "J equals its top part",
           J.equals(top_comb(arr)), True)
    holds, witnesses = hypothesis_check(arr)
    _check(results, "seven_planes", "hypothesis fails, every witness plane x",
           (holds, bool(witnesses) and all(w[0] == 0 for w in witnesses)),
           (False, True))
    _check(results, "seven_planes", "combinatorial degrees (15, 24)",
           combinatorial_degrees(arr), (15, 24))


def _emb_point(field, results):
    arr = load_arrangement("four_planes_point", field)
    J = jacobian_ideal(arr)
    _check(results, "four_planes_point", "J Betti totals (1,3,3,1)",
           betti_of(J).totals(), [1, 3, 3, 1])
    _check(results, "four_planes_point", "HP(R/J) = 6t - 1",
           hilbert(J).hp_string(), "6t - 1")
    _check(results, "four_planes_point", "J saturated",
           is_saturated(J), True)
    top = top_comb(arr)
    _check(results, "four_planes_point", "HP(R/top) = 6t - 2",
           hilbert(top).hp_string(), "6t - 2")
    _check(results, "four_planes_point", "embedded point detected",
           J.equals(top), False)
    arr5 = load_arrangement("five_planes_point", field)
    J5 = jacobian_ideal(arr5)
    _check(results, "five_planes_point", "HP(R/J) = 10t - 9",
           hilbert(J5).hp_string(), "10t - 9")
    _check(results, "five_planes_point", "HP(R/top) = 10t - 10",
           hilbert(top_comb(arr5)).hp_string(), "10t - 10")


def _catalogue(field, results):
    arr8 = load_arrangement("eight_planes", field)
    _check(results, "eight_planes", "top CM, radical not",
           (is_cm(top_comb(arr8)), is_cm(radical_comb(arr8))), (True, False))
    arr9 = load_arrangement("nine_planes", field)
    _check(results, "nine_planes", "neither top nor radical CM",
           (is_cm(top_comb(arr9)), is_cm(radical_comb(arr9))), (False, False))
    for name in ("pencil_three", "star_pencil", "star_four"):
        arr = load_arrangement(name, field)
        _check(results, name, "top and radical both CM",
               (is_cm(top_comb(arr)), is_cm(radical_comb(arr))), (True, True))


def _fat_nine(field, results):
    arr = load_arrangement("nine_planes", field)
    fat = symbolic_intersection(arr, rule_powers(arr, 2))
    _check(results, "nine_planes", "rule-power square is CM", is_cm(fat), True)
    sym2 = symbolic_intersection(arr, uniform_powers(arr, 2), override=True)
    _check(results, "nine_planes", "symbolic square is CM", is_cm(sym2), True)


def _free_not_cm(field, results):
    arr = load_arrangement("free_not_cm", field)
    rad = radical_comb(arr)
    br = betti_of(rad)
    _check(results, "free_not_cm", "radical Betti row 6 = (9,9,1)",
           tuple(br.row(6)), (0, 9, 9, 1))
    _check(results, "free_not_cm", "radical not CM", is_cm(rad), False)
    J = jacobian_ideal(arr)
    bj = betti_of(J)
    _check(results, "free_not_cm", "J Betti rows {8: 4 gens, 10: 3 syz}",
           _betti_rows(bj), {0: (1, 0, 0), 8: (0, 4, 0), 10: (0, 0, 3)})
    _check(results, "free_not_cm", "J is CM with pd 2",
           (is_cm(J), minimal_free_resolution(J).length), (True, 2))


def _same_lattice(field, results):
    a = load_arrangement("same_lattice_a", field)
    b = load_arrangement("same_lattice_b", field)
    _check(results, "same_lattice", "incidence lattices isomorphic",
           lattice_isomorphic(a, b), True)
    _check(results, "same_lattice", "top Betti totals (1,8,7) vs (1,6,5)",
           (betti_of(top_comb(a)).totals(), betti_of(top_comb(b)).totals()),
           ([1, 8, 7], [1, 6, 5]))
    _check(results, "same_lattice", "radical Betti totals (1,5,4) vs (1,6,5)",
           (betti_of(radical_comb(a)).totals(),
            betti_of(radical_comb(b)).totals()),
           ([1, 5, 4], [1, 6, 5]))
    _check(results, "same_lattice", "HP 51t - 223 vs 51t - 222",
           (hilbert(jacobian_ideal(a)).hp_string(),
            hilbert(jacobian_ideal(b)).hp_string()),
           ("51t - 223", "51t - 222"))


def _rao_blocks(field, results):
    arr9 = load_arrangement("top_block", field)
    top9 = top_comb(arr9)
    _check(results, "top_block", "deficiency table {8: 1}",
           rao_dimensions(top9), {8: 1})
    _check(results, "top_block", "curve degree 42", hilbert(top9).degree(), 42)
    arr8 = load_arrangement("radical_block", field)
    _check(results, "radical_block", "radical deficiency table {4: 1}",
           rao_dimensions(radical_comb(arr8)), {4: 1})
    arr11 = load_arrangement("eleven_planes", field)
    top11 = top_comb(arr11)
    b11 = betti_of(top11)
    _check(results, "eleven_planes", "top Betti totals (1,7,8,2)",
           b11.totals(), [1, 7, 8, 2])
    _check(results, "eleven_planes", "deficiency table {10: 2}",
           rao_dimensions(top11), {10: 2})


def _graphic(field, results):
    octa = load_graph("octahedron")
    holds, _ = triangle_condition(octa)
    _check(results, "octahedron", "shares a triangle edge", holds, False)
    graphic = graphic_arrangement(octa, field)
    # a field too small for the 12 planes is refused here, before the
    # section can fail to find a generic cut in it
    _check_prime_safety(graphic)
    arr = generic_section(graphic, seed=11)
    rad = radical_comb(arr)
    _check(results, "octahedron", "radical Betti row 9 = (16,20,5)",
           tuple(betti_of(rad).row(9)), (0, 16, 20, 5))
    _check(results, "octahedron", "HP(radical) = 50t - 230",
           hilbert(rad).hp_string(), "50t - 230")
    top = top_comb(arr)
    _check(results, "octahedron", "top Betti totals (1,6,6,1)",
           betti_of(top).totals(), [1, 6, 6, 1])
    _check(results, "octahedron", "top Betti rows 10..12",
           {j: tuple(betti_of(top).row(j)) for j in (10, 11, 12)},
           {10: (0, 5, 0, 0), 11: (0, 1, 2, 0), 12: (0, 0, 4, 1)})
    _check(results, "octahedron", "HP(top) = 74t - 454",
           hilbert(top).hp_string(), "74t - 454")
    dodeca = load_graph("dodecahedron")
    holds, _ = triangle_condition(dodeca)
    _check(results, "dodecahedron", "no two triangles share an edge",
           holds, True)


_ENTRIES = {
    "seven_planes": _seven_planes,
    "emb_point": _emb_point,
    "catalogue": _catalogue,
    "rao_blocks": _rao_blocks,
    "fat_nine": _fat_nine,
    "free_not_cm": _free_not_cm,
    "same_lattice": _same_lattice,
    "graphic": _graphic,
    "fifteen_planes": _fifteen_planes,
}

QUICK_ENTRIES = ("seven_planes", "emb_point", "catalogue", "rao_blocks")


def entry_names():
    """Names of the regression entries, in the order a full run takes."""
    return tuple(_ENTRIES)


def run_regressions(field=None, names=None, quick=False):
    """Recompute corpus entries; returns a list of CheckResult."""
    if names is None:
        names = QUICK_ENTRIES if quick else entry_names()
    results = []
    for name in names:
        if name not in _ENTRIES:
            raise ValidationError(f"unknown corpus entry {name!r}; "
                                  f"choose from {sorted(_ENTRIES)}")
        _ENTRIES[name](field, results)
    return results
