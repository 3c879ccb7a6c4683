"""Inputs for the sweep workloads, made without the program.

Arrangements are written as `.arr` text; the oracle data each check
needs (flats, degrees, the shared-plane hypothesis) is computed here from
the integer coefficient rows, so no check shares a code path with the
result it checks.
"""

from __future__ import annotations

import itertools
import math
import random

PRIME = 32003
POOL_SEED = 1
NAMES = ("x", "y", "z", "w")
SIZES = (5, 6, 7, 8)


def _minors_vanish(rows, p):
    """Whether the integer rows are linearly dependent (mod p when p)."""
    k = len(rows)
    for cols in itertools.combinations(range(len(rows[0])), k):
        det = _det([[r[c] for c in cols] for r in rows])
        if (det % p if p else det) != 0:
            return False
    return True


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


def _primitive(v):
    g = math.gcd(*v)
    return [c // g for c in v] if g > 1 else v


def random_rows(rng, size):
    """`size` pairwise independent forms with small integer coefficients.

    Biased toward shared flats: with probability 0.45 a new form is a
    small combination of two earlier ones, so it lies on their flat.
    The forms are independent both over Q and mod PRIME, so the same rows
    serve either field.
    """
    rows = []
    while len(rows) < size:
        if len(rows) >= 2 and rng.random() < 0.45:
            i, j = rng.sample(range(len(rows)), 2)
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            cand = _primitive([a * u + b * v for u, v in zip(rows[i], rows[j])])
        else:
            cand = [rng.randint(-3, 3) for _ in NAMES]
        if not any(c % PRIME for c in cand):
            continue
        if any(_minors_vanish([r, cand], q) for r in rows for q in (None, PRIME)):
            continue
        rows.append(cand)
    return rows


def arr_text(rows):
    lines = ["vars: " + " ".join(NAMES)]
    for row in rows:
        out = ""
        for c, name in zip(row, NAMES):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            term = name if abs(c) == 1 else f"{abs(c)}*{name}"
            out = (f"-{term}" if sign == "-" else term) if not out \
                else f"{out} {sign} {term}"
        lines.append(out)
    return "\n".join(lines) + "\n"


def flats(rows, p):
    """Codimension-2 flats as sorted tuples of member indices."""
    found = set()
    for i, j in itertools.combinations(range(len(rows)), 2):
        members = tuple(k for k in range(len(rows))
                        if k in (i, j)
                        or _minors_vanish([rows[i], rows[j], rows[k]], p))
        found.add(members)
    return sorted(found)


def oracle(rows, p):
    """Degrees of the reduced and top loci, and the shared-plane hypothesis."""
    fl = flats(rows, p)
    deg_red = len(fl)
    deg_top = sum((len(f) - 1) ** 2 if len(f) >= 3 else 1 for f in fl)
    fat = [set(f) for f in fl if len(f) >= 3]
    hypothesis = all(sum(i in f for f in fat) <= 1 for i in range(len(rows)))
    return {"deg_red": deg_red, "deg_top": deg_top, "hypothesis": hypothesis}


def case(rows, p):
    """The `.arr` text of one arrangement and its oracle data over F_p or Q
    (p None)."""
    return {"text": arr_text(rows), **oracle(rows, p)}


def warmup_rows():
    """A 5-plane arrangement outside the pool, for the warm-up op."""
    return random_rows(random.Random("warmup"), 5)


def pool(seed, count):
    """`count` coefficient-row lists; sizes run through a shuffled 5..8 in
    each block of 4."""
    rng = random.Random(f"sweep:{seed}")
    out = []
    while len(out) < count:
        block = list(SIZES)
        rng.shuffle(block)
        out.extend(random_rows(rng, size) for size in block)
    return out[:count]
