"""The four workloads: inputs, ops and the per-op correctness checks.

An op is a callable that returns a list of problems (empty when the
answer checks out) or raises.  The harness times it and types the
outcome: `ok`, `wrong` (problems returned) or `error` (it raised).
Every call into the program goes through the `singlocus` package
namespace at call time, so the traced run sees it.

Each workload runs a fixed set of ops per cycle, and the seed sets their
order.  The inputs themselves are pinned: the cost of one random
arrangement or construction varies by orders of magnitude, so runs of
different inputs would not agree within any useful bound.
"""

from __future__ import annotations

import random

import gen

CORPUS_ENTRIES = ("seven_planes", "emb_point", "catalogue", "rao_blocks",
                  "fat_nine", "free_not_cm", "same_lattice", "graphic",
                  "fifteen_planes")

# Construction seed of the liaison workload: the cost of
# construct_lr_radical(2) moves by 4x across seeds.
LIAISON_SEED = 7
TOP_BLOCK = {"planes": 9, "degree": 42, "rao_degree": 8}
RADICAL_BLOCK = {"planes": 8, "degree": 20, "rao_degree": 4}


class Op:
    def __init__(self, name, fn):
        self.name = name
        self.fn = fn


class Workload:
    """A warm-up op list and a cycle of ops in seeded order.

    A run, timed or traced, runs one cycle.  `groups` returns the cycle's
    ops in groups that must stay in order (the three ops of one
    arrangement).
    """

    def __init__(self, sl, seed):
        self.sl = sl
        self.seed = seed

    def warmup(self):
        raise NotImplementedError

    def groups(self):
        raise NotImplementedError

    def cycle(self):
        groups = self.groups()
        random.Random(f"order:{self.seed}").shuffle(groups)
        return [op for group in groups for op in group]

    def describe(self):
        return {}


# ---------------------------------------------------------------------------
# corpus


class Corpus(Workload):
    def _entry_op(self, name):
        def run():
            results = self.sl.corpus.run_regressions(names=[name])
            if not results:
                return [f"{name}: no checks ran"]
            return [r.line() for r in results if not r.ok]
        return Op(f"corpus.{name}", run)

    def warmup(self):
        return [self._entry_op("seven_planes")]

    def groups(self):
        return [[self._entry_op(n)] for n in CORPUS_ENTRIES]


# ---------------------------------------------------------------------------
# sweep and sweep_q


def betti_numerator(table):
    """Alternating sum of the Betti numbers as a coefficient list."""
    out = {}
    for (i, j), v in table.entries.items():
        out[i + j] = out.get(i + j, 0) + (-1) ** i * v
    top = max((d for d, c in out.items() if c), default=-1)
    return [out.get(d, 0) for d in range(top + 1)]


class _Case:
    """One arrangement; its three ops share the parsed arrangement."""

    def __init__(self, sl, item, field):
        self.sl = sl
        self.item = item
        self.field = field
        self._arr = None
        self._ideals = {}

    def arr(self):
        if self._arr is None:
            self._arr = self.sl.parse_arrangement(self.item["text"], self.field)
        return self._arr

    def ideal(self, which):
        if which not in self._ideals:
            build = {"J": self.sl.jacobian_ideal, "top": self.sl.top_comb,
                     "rad": self.sl.radical_comb}[which]
            self._ideals[which] = build(self.arr())
        return self._ideals[which]

    def invariants(self, which, degree):
        sl = self.sl
        ideal = self.ideal(which)
        h = sl.hilbert(ideal)
        betti = sl.betti_of(ideal)
        cm = sl.is_cm(ideal)
        problems = []
        if h.degree() != degree:
            problems.append(f"{which}: degree {h.degree()}, lattice says {degree}")
        num = list(h.numerator)
        while num and num[-1] == 0:
            num.pop()
        if betti_numerator(betti) != num:
            problems.append(f"{which}: Betti sums {betti_numerator(betti)} "
                            f"!= Hilbert numerator {num}")
        return problems, cm

    def contained(self, small, big):
        gb = self.ideal(big).groebner()
        if all(gb.contains(g) for g in self.ideal(small).gens):
            return []
        return [f"{small} not contained in {big}"]

    def op_j(self):
        problems, _ = self.invariants("J", self.item["deg_top"])
        return problems

    def op_top(self):
        problems, cm = self.invariants("top", self.item["deg_top"])
        top = self.ideal("top")
        if self.sl.minimal_free_resolution(top).length <= 3:
            rao = self.sl.rao_dimensions(top)
            if (not rao) != cm:
                problems.append(f"top: deficiency table {rao} but CM is {cm}")
        return problems + self.contained("J", "top")

    def op_rad(self):
        """The last op of the arrangement; it drops the shared state."""
        try:
            problems, cm = self.invariants("rad", self.item["deg_red"])
            problems += self.contained("top", "rad")
            if self.item["hypothesis"]:
                if not (cm and self.sl.is_cm(self.ideal("top"))):
                    problems.append("hypothesis holds but top or rad is not CM")
            return problems
        finally:
            self._arr = None
            self._ideals.clear()


class Sweep(Workload):
    """Random 5-8 plane arrangements in P^3; three ops per arrangement."""

    arrangements = 16
    prime = gen.PRIME  # None for Q

    def field(self):
        return self.sl.GF(self.prime) if self.prime else self.sl.QQ

    def _ops(self, rows, tag):
        case = _Case(self.sl, gen.case(rows, self.prime), self.field())
        return [Op(f"{tag}.J", case.op_j), Op(f"{tag}.top", case.op_top),
                Op(f"{tag}.rad", case.op_rad)]

    def warmup(self):
        return self._ops(gen.warmup_rows(), "warmup")

    def groups(self):
        pool = gen.pool(gen.POOL_SEED, self.arrangements)
        return [self._ops(rows, f"arr{k}") for k, rows in enumerate(pool)]

    def describe(self):
        return {"field": str(self.field()), "pool_seed": gen.POOL_SEED,
                "arrangements": self.arrangements,
                "texts": [gen.arr_text(r)
                          for r in gen.pool(gen.POOL_SEED, self.arrangements)]}


class SweepQ(Sweep):
    """The first three arrangements of the same pool (5, 6 and 7 planes)
    over Q."""

    arrangements = 3
    prime = None


# ---------------------------------------------------------------------------
# liaison


def predicted_top(h):
    """Degree and deficiency table of construct_lr(1, h)."""
    planes, degree = TOP_BLOCK["planes"], TOP_BLOCK["degree"]
    for k in range(h):
        degree += planes + k
    return degree, {TOP_BLOCK["rao_degree"] + h: 1}


def predicted_radical_pair():
    """Degree and deficiency table of construct_lr_radical(2)."""
    planes, degree = RADICAL_BLOCK["planes"], RADICAL_BLOCK["degree"]
    return (2 * degree + planes * planes,
            {RADICAL_BLOCK["rao_degree"] + planes: 2})


class Liaison(Workload):
    def _op(self, name, build, want):
        def run():
            report = self.sl.verify_construction(build())
            problems = [] if report["ok"] else [f"{name}: report not ok"]
            got = (report["degree_computed"], report["rao_computed"])
            if got != want:
                problems.append(f"{name}: got {got}, want {want}")
            return problems
        return Op(name, run)

    def _lr(self, h):
        return self._op(f"construct_lr(1,h={h})",
                        lambda: self.sl.construct_lr(1, h=h, seed=LIAISON_SEED),
                        predicted_top(h))

    def warmup(self):
        return [self._lr(0)]

    def groups(self):
        return [[self._lr(1)], [self._lr(2)],
                [self._op("construct_lr_radical(2)",
                          lambda: self.sl.construct_lr_radical(
                              2, seed=LIAISON_SEED),
                          predicted_radical_pair())]]


WORKLOADS = {"corpus": Corpus, "sweep": Sweep, "sweep_q": SweepQ,
             "liaison": Liaison}
