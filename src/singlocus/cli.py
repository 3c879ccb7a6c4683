"""Command-line surface: load arrangements, run any pipeline stage.

Every command accepts --field, --seed and --json, and emits
either human-readable text (Betti diagrams in the fixed-width layout) or
a versioned JSON report.  Exit codes: 0 success, 1 usage, validation or
parse error, 2 internal limit (packed-exponent degree, saturation retries or
reseed caps), 3 internal invariant failure (a bug; please report it).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import corpus
from .arrangement import (_check_prime_safety, combinatorial_degrees,
                          generic_section, graphic_arrangement,
                          hypothesis_check, jacobian_ideal,
                          lattice_isomorphic, parse_arrangement, parse_graph,
                          radical_comb, rule_powers, symbolic_intersection,
                          top_comb, triangle_condition, uniform_powers)
from .errors import (InternalLimitError, InvariantError, SingError,
                     ValidationError)
from .groebner import saturate_irrelevant
from .homology import (betti_json, betti_of, betti_text, dimensions, hilbert,
                       is_cm, is_saturated, rao_dimensions)
from .liaison import (LiaisonStep, _fresh_linear,
                      arrangement_product_hypotheses, basic_double_link,
                      construct_lr, construct_lr_radical,
                      hilbert_additivity_holds, liaison_addition,
                      shifted_rao_sum, verify_construction)
from .polyring import (GF, QQ, DEFAULT_PRIME, linear_coefficients,
                       parse_linear_expr)


def _parse_field(text):
    if text in ("q", "Q", "qq", "QQ"):
        return QQ, "q"
    if text.startswith("p:"):
        text = text[2:]
    try:
        p = int(text)
    except ValueError:
        raise ValidationError(f"bad --field value {text!r}; use 'q' or 'p:<prime>'")
    return GF(p), f"p:{p}"


class Report:
    """Envelope for one command run: echo, field, seed, artifact, timing."""

    def __init__(self, argv, field_label, seed):
        self.argv = list(argv)
        self.field_label = field_label
        self.seed = seed
        self.artifact = {}
        self.lines = []
        self.started = time.monotonic()

    def say(self, text=""):
        self.lines.append(text)

    def emit(self, as_json):
        if as_json:
            payload = {
                "schema": 1,
                "command": self.argv,
                "field": self.field_label,
                "seed": self.seed,
                "order": "grevlex",  # the order every command computes in
                "artifact": self.artifact,
                "elapsed_seconds": round(time.monotonic() - self.started, 3),
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in self.lines:
                print(line)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_arrangement(path, field):
    """Parse an arrangement file; a characteristic too small for it is a
    `ValidationError`."""
    arr = parse_arrangement(_read(path), field=field)
    _check_prime_safety(arr)
    return arr


_IDEAL_CHOICES = ("jacobian", "radical", "top", "saturation")


def _build_ideal(arr, which):
    if which == "jacobian":
        return jacobian_ideal(arr)
    if which == "radical":
        return radical_comb(arr)
    if which == "top":
        return top_comb(arr)
    if which == "saturation":
        return saturate_irrelevant(jacobian_ideal(arr))
    raise ValidationError(f"unknown ideal selector {which!r}")


def _hilbert_payload(h):
    return {
        "hilbert_polynomial": h.hp_string(),
        "dimension": h.dimension,
        "degree": h.degree(),
        "regularity_index": h.regularity_index,
        "series_numerator": list(h.numerator),
    }


def _degree_table(table):
    return {str(k): v for k, v in sorted(table.items())}


def _rao_text(table):
    return table if table else "{} (ACM)"


# Each section of an ideal report has one writer, shared by the ideal
# commands (jacobian, radical, top, symbolic) and the selector commands.


def _hilbert_section(report, ideal):
    h = hilbert(ideal)
    report.artifact["hilbert"] = _hilbert_payload(h)
    report.say(f"Hilbert polynomial: {h.hp_string()}")
    report.say(f"degree: {h.degree()}")
    report.say(f"regularity index: {h.regularity_index}")


def _cm_section(report, ideal):
    krull, codim, pd = dimensions(ideal)
    verdict = is_cm(ideal)
    report.artifact["dimensions"] = {"krull": krull, "codim": codim,
                                     "projective": pd}
    report.artifact["cohen_macaulay"] = verdict
    report.say(f"dimensions: krull {krull}, codim {codim}, pd {pd}")
    report.say(f"Cohen-Macaulay: {verdict}")


def _betti_section(report, ideal):
    table = betti_of(ideal)
    report.artifact["betti"] = betti_json(table)
    report.say(betti_text(table))


def _rao_section(report, ideal):
    table = rao_dimensions(ideal)
    report.artifact["rao"] = _degree_table(table)
    report.say(f"deficiency table: {_rao_text(table)}")


_SECTIONS = {"hilbert": _hilbert_section, "cm": _cm_section,
             "betti": _betti_section, "rao": _rao_section}


def _ideal_report(report, ideal, name, args):
    """Write the sections asked for (Hilbert data and CM by default);
    returns their names."""
    asked = [k for k in _SECTIONS if getattr(args, k)] or ["hilbert", "cm"]
    report.artifact["ideal"] = name
    report.artifact["generators"] = len(ideal.gens)
    report.say(f"{name}: {len(ideal.gens)} generators")
    for kind in asked:
        _SECTIONS[kind](report, ideal)
    return asked


def _add_ideal_flags(sub):
    for kind in _SECTIONS:
        sub.add_argument(f"--{kind}", action="store_true")


# ---------------------------------------------------------------------------
# commands


def _cmd_lattice(args, field, report):
    arr = _load_arrangement(args.file, field)
    if args.other:
        other = _load_arrangement(args.other, field)
        same = lattice_isomorphic(arr, other)
        report.artifact["isomorphic"] = same
        report.say(f"incidence lattices isomorphic: {same}")
        return
    flats = arr.flats()
    counts = arr.flat_multiset()
    deg_red, deg_top = combinatorial_degrees(arr)
    report.artifact["flats"] = [
        {"multiplicity": f.multiplicity, "members": [m + 1 for m in f.members]}
        for f in flats]
    report.artifact["counts"] = {str(k): v for k, v in sorted(counts.items())}
    report.artifact["degrees"] = {"reduced": deg_red, "top": deg_top}
    report.say(f"{arr.d} hyperplanes, {len(flats)} flats")
    for e in sorted(counts, reverse=True):
        report.say(f"  multiplicity {e}: {counts[e]} flats")
    report.say(f"degrees: reduced {deg_red}, top {deg_top}")


def _cmd_ideal(which):
    def run(args, field, report):
        arr = _load_arrangement(args.file, field)
        ideal = _build_ideal(arr, which)
        asked = _ideal_report(report, ideal, which, args)
        if which == "jacobian" and "cm" in asked:
            # J <= J^sat <= top, both saturated: equal Hilbert polynomials
            # force J^sat = top, since top/J^sat then has finite length
            # inside R/J^sat, which has positive depth
            report.artifact["saturated"] = is_saturated(ideal)
            report.artifact["unmixed"] = (hilbert(ideal).hp_coeffs
                                          == hilbert(top_comb(arr)).hp_coeffs)
            report.say(f"saturated: {report.artifact['saturated']}")
            report.say(f"unmixed (saturation equals top part): "
                       f"{report.artifact['unmixed']}")
    return run


def _cmd_symbolic(args, field, report):
    arr = _load_arrangement(args.file, field)
    if args.uniform is not None:
        powers = uniform_powers(arr, args.uniform)
    else:
        powers = rule_powers(arr, args.rule if args.rule is not None else 2)
    ideal = symbolic_intersection(arr, powers, override=args.override)
    _ideal_report(report, ideal, "symbolic", args)


def _cmd_selector(kind):
    def run(args, field, report):
        arr = _load_arrangement(args.file, field)
        _SECTIONS[kind](report, _build_ideal(arr, args.ideal))
    return run


def _cmd_hypothesis(args, field, report):
    arr = _load_arrangement(args.file, field)
    holds, witnesses = hypothesis_check(arr)
    report.artifact["holds"] = holds
    report.artifact["witnesses"] = [
        {"plane": i + 1,
         "flats": [sorted(m + 1 for m in f1.members),
                   sorted(m + 1 for m in f2.members)]}
        for i, f1, f2 in witnesses]
    report.say(f"holds: {holds}")
    for i, f1, f2 in witnesses:
        report.say(f"  plane {i + 1} ({arr.forms[i]}) lies in two non-reduced "
                   f"flats: members {sorted(m + 1 for m in f1.members)} and "
                   f"{sorted(m + 1 for m in f2.members)}")


def _arr_to_text(arr):
    lines = [f"vars: {' '.join(arr.ring.names)}"]
    p = arr.ring.field.p
    for form in arr.forms:
        parts = []
        for name, c in zip(arr.ring.names, linear_coefficients(form)):
            if arr.ring.field.is_zero(c):
                continue
            if p is not None:
                c = int(c) if c <= p // 2 else int(c) - p
            parts.append((c, name))
        text = ""
        for c, name in parts:
            c = int(c)
            if not text:
                prefix = "-" if c < 0 else ""
            else:
                prefix = " - " if c < 0 else " + "
            mag = abs(c)
            text += prefix + (name if mag == 1 else f"{mag}{name}")
        lines.append(text)
    return "\n".join(lines) + "\n"


def _cmd_graphic(args, field, report):
    graph = parse_graph(_read(args.file))
    arr = graphic_arrangement(graph, field)
    text = _arr_to_text(arr)
    report.artifact["variables"] = list(arr.ring.names)
    report.artifact["forms"] = arr.d
    report.artifact["arrangement"] = text
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        report.say(f"wrote {arr.d} forms to {args.output}")
    else:
        report.say(text.rstrip("\n"))


def _cmd_triangles(args, field, report):
    graph = parse_graph(_read(args.file))
    holds, witnesses = triangle_condition(graph)
    report.artifact["holds"] = holds
    report.artifact["triangles"] = [list(t) for t in graph.triangles()]
    report.artifact["witnesses"] = [
        {"edge": list(e), "triangles": [list(t1), list(t2)]}
        for e, t1, t2 in witnesses]
    report.say(f"3-cycles: {len(graph.triangles())}")
    report.say(f"no two 3-cycles share an edge: {holds}")
    for e, t1, t2 in witnesses:
        report.say(f"  edge {e} shared by {t1} and {t2}")


def _cmd_section(args, field, report):
    arr = _load_arrangement(args.file, field)
    sectioned = generic_section(arr, seed=args.seed)
    text = _arr_to_text(sectioned)
    report.artifact["arrangement"] = text
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        report.say(f"wrote sectioned arrangement to {args.output}")
    else:
        report.say(text.rstrip("\n"))


def _curve_of(arr, which):
    return top_comb(arr) if which == "top" else radical_comb(arr)


_STEP_NAMES = {"addition": "a liaison addition", "bdl": "a basic double link"}


def _verify_step(report, step):
    """Check Hilbert additivity and the shifted deficiency table of a step."""
    additivity = hilbert_additivity_holds(step)
    predicted = shifted_rao_sum(step)
    computed = rao_dimensions(step.output)
    report.artifact["verify"] = {
        "hilbert_additivity": additivity,
        "rao_predicted": _degree_table(predicted),
        "rao_computed": _degree_table(computed),
        "rao_ok": predicted == computed,
    }
    report.say(f"Hilbert additivity: {additivity}")
    report.say(f"deficiency table: predicted {_rao_text(predicted)}, "
               f"computed {_rao_text(computed)}")
    if not (additivity and predicted == computed):
        raise ValidationError(
            f"verification failed on {_STEP_NAMES[step.kind]}")


def _cmd_liaison_add(args, field, report):
    a = _load_arrangement(args.file1, field)
    b = _load_arrangement(args.file2, field)
    if a.ring != b.ring:
        raise ValidationError("the two arrangements use different variables")
    ok, witnesses = arrangement_product_hypotheses(a, b)
    report.artifact["hypotheses"] = ok
    if not ok:
        side, j, flat = witnesses[0]
        raise ValidationError(
            f"product hypotheses fail: form {j + 1} of arrangement "
            f"{'B' if side == 'b' else 'A'} lies in a flat of the other")
    ia, ib = _curve_of(a, args.ideal), _curve_of(b, args.ideal)
    fa, fb = a.defining_polynomial(), b.defining_polynomial()
    out = liaison_addition(ia, fa, ib, fb)
    h = hilbert(out)
    report.artifact["degree"] = h.degree()
    report.artifact["hilbert"] = _hilbert_payload(h)
    report.say(f"liaison addition of {args.ideal} curves: degree {h.degree()}, "
               f"HP {h.hp_string()}")
    if args.verify:
        _verify_step(report, LiaisonStep("addition", ia, fa, ib, fb, out))


def _cmd_bdl(args, field, report):
    arr = _load_arrangement(args.file, field)
    ideal = _curve_of(arr, args.ideal)
    f1 = arr.defining_polynomial()
    if args.form:
        ell = parse_linear_expr(arr.ring, args.form)
    else:
        ell = _fresh_linear(arr, random.Random(args.seed))
    out = basic_double_link(ideal, f1, ell)
    h = hilbert(out)
    report.artifact["link_form"] = str(ell)
    report.artifact["degree"] = h.degree()
    report.say(f"basic double link by {ell}: degree {h.degree()}, "
               f"HP {h.hp_string()}")
    if args.verify:
        _verify_step(report, LiaisonStep("bdl", ideal, f1, None, ell, out))


def _cmd_construct(radical):
    def run(args, field, report):
        build = construct_lr_radical if radical else construct_lr
        construction = build(args.r, h=args.h, seed=args.seed, field=field)
        report.artifact["planes"] = construction.arrangement.d
        report.artifact["predicted_rao"] = _degree_table(
            construction.predicted_rao)
        report.artifact["predicted_degree"] = construction.predicted_degree
        report.say(f"constructed {construction.arrangement.d}-plane arrangement")
        report.say(f"predicted deficiency table: {construction.predicted_rao}")
        report.say(f"predicted curve degree: {construction.predicted_degree}")
        if args.verify:
            outcome = verify_construction(construction, deep=args.deep)
            report.artifact["verify"] = {
                k: _degree_table(v) if isinstance(v, dict) else v
                for k, v in outcome.items()}
            report.say(f"computed deficiency table: {outcome['rao_computed']}")
            report.say(f"computed degree: {outcome['degree_computed']}")
            report.say(f"verification: {'ok' if outcome['ok'] else 'FAILED'}")
            if not outcome["ok"]:
                raise ValidationError("construction verification failed")
    return run


def _cmd_corpus(args, field, report):
    names = args.entry if args.entry else None
    results = corpus.run_regressions(field=field, names=names,
                                     quick=args.quick)
    failed = [r for r in results if not r.ok]
    report.artifact["results"] = [
        {"entry": r.entry, "check": r.check, "ok": r.ok, "detail": r.detail}
        for r in results]
    report.artifact["passed"] = len(results) - len(failed)
    report.artifact["failed"] = len(failed)
    for r in results:
        report.say(r.line())
    report.say(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        raise ValidationError(f"{len(failed)} corpus checks failed")


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default=f"p:{DEFAULT_PRIME}",
                        help="coefficient field: q or p:<prime> "
                             f"(default p:{DEFAULT_PRIME})")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for any randomized choice (default 0)")
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")

    parser = argparse.ArgumentParser(
        prog="sing",
        description="Singular-locus ideals of hyperplane arrangements")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("lattice", parents=[common],
                        help="flats of an arrangement, or lattice comparison")
    sp.add_argument("file")
    sp.add_argument("other", nargs="?", default=None)
    sp.set_defaults(run=_cmd_lattice)

    for name in ("jacobian", "radical", "top"):
        sp = sub.add_parser(name, parents=[common],
                            help=f"the {name} ideal of an arrangement")
        sp.add_argument("file")
        _add_ideal_flags(sp)
        sp.set_defaults(run=_cmd_ideal(name))

    sp = sub.add_parser("symbolic", parents=[common],
                        help="intersection of powers of the flat primes")
    sp.add_argument("file")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--rule", type=int, default=None,
                       help="exponent for multiplicity >= 3 flats "
                            "(doubles get 1)")
    group.add_argument("--uniform", type=int, default=None,
                       help="same exponent for every flat")
    sp.add_argument("--override", action="store_true",
                    help="skip the exponent-rule validation")
    _add_ideal_flags(sp)
    sp.set_defaults(run=_cmd_symbolic)

    for kind in ("betti", "hilbert", "cm", "rao"):
        sp = sub.add_parser(kind, parents=[common],
                            help=f"{kind} data for a chosen ideal")
        sp.add_argument("file")
        sp.add_argument("--ideal", choices=_IDEAL_CHOICES, default="jacobian")
        sp.set_defaults(run=_cmd_selector(kind))

    sp = sub.add_parser("hypothesis", parents=[common],
                        help="check the shared-plane hypothesis")
    sp.add_argument("file")
    sp.set_defaults(run=_cmd_hypothesis)

    sp = sub.add_parser("graphic", parents=[common],
                        help="arrangement of a graph")
    sp.add_argument("file")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(run=_cmd_graphic)

    sp = sub.add_parser("triangles", parents=[common],
                        help="3-cycle sharing condition of a graph")
    sp.add_argument("file")
    sp.set_defaults(run=_cmd_triangles)

    sp = sub.add_parser("section", parents=[common],
                        help="generic hyperplane section down to 4 variables")
    sp.add_argument("file")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(run=_cmd_section)

    sp = sub.add_parser("liaison-add", parents=[common],
                        help="liaison addition of two arrangement curves")
    sp.add_argument("file1")
    sp.add_argument("file2")
    sp.add_argument("--ideal", choices=("top", "radical"), default="top")
    sp.add_argument("--verify", action="store_true")
    sp.set_defaults(run=_cmd_liaison_add)

    sp = sub.add_parser("bdl", parents=[common],
                        help="basic double link of an arrangement curve")
    sp.add_argument("file")
    sp.add_argument("--form", default=None,
                    help="linear form to link with (seeded random if absent)")
    sp.add_argument("--ideal", choices=("top", "radical"), default="top")
    sp.add_argument("--verify", action="store_true")
    sp.set_defaults(run=_cmd_bdl)

    for name, radical in (("construct-lr", False),
                          ("construct-lr-radical", True)):
        sp = sub.add_parser(name, parents=[common],
                            help="build a curve with prescribed deficiency")
        sp.add_argument("--r", type=int, required=True)
        sp.add_argument("--h", type=int, default=0)
        sp.add_argument("--verify", action="store_true")
        sp.add_argument("--deep", action="store_true",
                        help="also recheck every intermediate step")
        sp.set_defaults(run=_cmd_construct(radical))

    sp = sub.add_parser("corpus", parents=[common],
                        help="run the regression corpus")
    sp.add_argument("--quick", action="store_true")
    sp.add_argument("--entry", action="append", default=None,
                    help="run a single named entry (repeatable)")
    sp.set_defaults(run=_cmd_corpus)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: usage error (2) or --help (0)
        return 1 if exc.code else 0
    try:
        field, field_label = _parse_field(args.field)
    except SingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = Report(argv, field_label, args.seed)
    try:
        args.run(args, field, report)
    except InternalLimitError as exc:
        report.emit(args.json)
        print(f"internal limit: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        report.emit(args.json)
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return 3
    except SingError as exc:
        report.emit(args.json)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.emit(args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
