"""Exact sparse multivariate polynomial arithmetic.

Coefficients live in QQ (arbitrary-precision rationals, always in lowest
terms) or in a prime field F_p.  A monomial is a tuple of non-negative
exponents, one per ring variable; a polynomial is an immutable wrapper
around a dict mapping exponent tuples to nonzero coefficients.

Every ideal is computed in grevlex.  A monomial packs into one int with
a WIDTH-bit field per variable (`_pack_plain`), and `_grevlex_key` maps
that word to an integer sort key with key(a*b) = key(a) + key(b), whose
integer comparison is grevlex; the Groebner engine relies on this
additivity for fast arithmetic.

Over F_p the product of two forms is made by Kronecker substitution
(`_kronecker_product`) whenever there are more than a few term pairs and
the packed ints stay small against their number; every other product
runs the term loop.  Its slot layout (`_slot`, read back by the table of
`_degree_slots`) also lays out the rows of the first syzygy step over F_p
in `homology`.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache

from .errors import ParseError, RingContextError, ValidationError


# ---------------------------------------------------------------------------
# coefficient fields


class RationalField:
    """QQ with Fraction coefficients."""

    p = None
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


#: Miller-Rabin with these bases decides primality exactly below the bound
#: (Sorenson and Webster 2017, "Strong pseudoprimes to twelve prime bases")
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin test, exact for 0 <= n < _MR_BOUND."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p for an odd prime p, elements stored as ints in [0, p)."""

    def __init__(self, p):
        if p >= _MR_BOUND:
            raise ValidationError(
                f"field characteristic {p} is too large to certify as a prime")
        if p < 3 or not _is_prime(p):
            raise ValidationError(f"field characteristic {p} is not an odd prime")
        self.p = p
        self.zero = 0
        self.one = 1
        self._inv = {}

    def from_int(self, n):
        if isinstance(n, Fraction):
            return self.mul(n.numerator % self.p, self.inv(n.denominator % self.p))
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("division by zero in prime field")
        r = self._inv.get(a)
        if r is None:
            r = pow(a, self.p - 2, self.p)
            self._inv[a] = r
        return r

    def is_zero(self, a):
        return a == 0

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()

#: default prime for heavy runs; larger than every degree in the corpus
DEFAULT_PRIME = 32003


def GF(p):
    return PrimeField(p)


# ---------------------------------------------------------------------------
# packed monomials and the grevlex key

#: bits per packed exponent field; degrees must stay below 2**(WIDTH - 1)
WIDTH = 16
MAX_DEGREE = (1 << (WIDTH - 1)) - 1


def _slot_bytes(p, count):
    """The width in bytes of a packed slot that sums `count` products of
    residues mod p: each is below p^2, so 2 * bitlen(p) + bitlen(count)
    + 1 bits never carry into the next slot."""
    return (2 * p.bit_length() + count.bit_length() + 8) // 8


def _pack_plain(exps):
    """The exponent tuple as one int, x_0 in the lowest WIDTH bits."""
    w = 0
    for e in reversed(exps):
        w = (w << WIDTH) | e
    return w


def _unpack_plain(w, nvars):
    mask = (1 << WIDTH) - 1
    return tuple((w >> (i * WIDTH)) & mask for i in range(nvars))


def _degree_func(nvars):
    """Total degree of a packed monomial whose fields are below 2**WIDTH.

    The even and the odd fields are masked apart, so each lands in its own
    2*WIDTH-bit chunk; since 2**(2*WIDTH) is 1 modulo 2**(2*WIDTH) - 1,
    the remainder is the sum of the chunks, which stays below the modulus
    for any ring of fewer than 2**WIDTH variables.
    """
    even = 0
    for i in range(0, nvars, 2):
        even |= ((1 << WIDTH) - 1) << (i * WIDTH)
    mod = (1 << (2 * WIDTH)) - 1

    def degree(w):
        return (w & even) % mod + ((w >> WIDTH) & even) % mod

    return degree


def _grevlex_key(nvars):
    """packed monomial -> int sort key for grevlex, additive under
    multiplication: key(a * b) = key(a) + key(b).

    The degree comes first; on a tie, the smaller exponent of the last
    variable wins, then of the one before it, down to the second.  Those
    fields are the word shifted past x_0, read as one number with the
    last variable on top, so subtracting it from the shifted degree
    compares them all at once.
    """
    degree = _degree_func(nvars)
    topshift = max(nvars - 1, 0) * WIDTH

    def key(w):
        return (degree(w) << topshift) - (w >> WIDTH)

    return key


class _Grevlex:
    """The type of `GREVLEX`.  `Ideal.groebner` caches its basis under
    `tag`; the keys come from `_grevlex_key`."""

    tag = "grevlex"

    def __repr__(self):
        return "grevlex"


#: the monomial order of every ideal
GREVLEX = _Grevlex()


# ---------------------------------------------------------------------------
# rings and polynomials


class PolyRing:
    """Polynomial ring context: variable names plus coefficient field."""

    def __init__(self, names, field):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValidationError(f"repeated variable names in {names}")
        self.names = names
        self.nvars = len(names)
        self.field = field
        self._zero_exps = (0,) * self.nvars

    # constructors ---------------------------------------------------------
    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c = self.field.from_int(c) if isinstance(c, (int, Fraction)) else c
        if self.field.is_zero(c):
            return Polynomial(self, {})
        return Polynomial(self, {self._zero_exps: c})

    def variable(self, i):
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): self.field.one})

    def variables(self):
        return [self.variable(i) for i in range(self.nvars)]

    def from_terms(self, terms):
        """Build a polynomial from {exps: coefficient-like}, normalizing."""
        out = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != self.nvars:
                raise RingContextError(
                    f"exponent tuple {exps} has wrong length for {self}")
            if any(e < 0 for e in exps):
                raise ValidationError(f"negative exponent in {exps}")
            c = self.field.from_int(c) if isinstance(c, (int, Fraction)) else c
            if not self.field.is_zero(c):
                acc = out.get(exps)
                c = c if acc is None else self.field.add(acc, c)
                if self.field.is_zero(c):
                    del out[exps]
                else:
                    out[exps] = c
        return Polynomial(self, out)

    def linear_form(self, coeffs):
        """Linear form sum(coeffs[i] * x_i); validates the result."""
        p = self.from_terms({
            tuple(1 if j == i else 0 for j in range(self.nvars)): c
            for i, c in enumerate(coeffs)
        })
        return validate_linear_form(p)

    def __repr__(self):
        return f"{self.field}[{', '.join(self.names)}]"

    def __eq__(self, other):
        return (isinstance(other, PolyRing)
                and other.names == self.names and other.field == self.field)

    def __hash__(self):
        return hash((self.names, self.field))


class Polynomial:
    """Immutable sparse polynomial over a PolyRing.

    The term dict never stores zero coefficients.  Degree of the zero
    polynomial is None (an explicit "undefined" sentinel).
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # basic queries ---------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def total_degree(self):
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        degs = {sum(e) for e in self.terms}
        return len(degs) == 1

    def is_constant(self):
        return not self.terms or set(self.terms) == {self.ring._zero_exps}

    def constant_coefficient(self):
        return self.terms.get(self.ring._zero_exps, self.ring.field.zero)

    def leading_term(self):
        """(exps, coeff) of the largest monomial in grevlex."""
        if not self.terms:
            raise ValidationError("zero polynomial has no leading term")
        key = _grevlex_key(self.ring.nvars)
        exps = max(self.terms, key=lambda e: key(_pack_plain(e)))
        return exps, self.terms[exps]

    # arithmetic ------------------------------------------------------------
    def _check(self, other):
        if self.ring != other.ring:
            raise RingContextError(f"mixed rings {self.ring} and {other.ring}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        self._check(other)
        f = self.ring.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                s = f.add(acc, c)
                if f.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
        return Polynomial(self.ring, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        f = self.ring.field
        return Polynomial(self.ring, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(self.ring.field.from_int(other))
        self._check(other)
        f = self.ring.field
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        p = f.p
        if p is not None and a:
            # forms of positive degree, read from one term each, with
            # more than `_LOOP_PAIRS` term pairs, whose packed size passes
            # the `_BYTES_PER_PAIR` rule
            da, db = sum(next(iter(a))), sum(next(iter(b)))
            slots = (da + db + 1) ** (self.ring.nvars - 1)
            pairs = len(a) * len(b)
            if (da and db and pairs > _LOOP_PAIRS
                    and slots * _slot_bytes(p, len(a)) <= _BYTES_PER_PAIR * pairs
                    and self.is_homogeneous() and other.is_homogeneous()):
                return _kronecker_product(self, other, da + db)
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                acc = out.get(e)
                out[e] = c1 * c2 if acc is None else acc + c1 * c2
        if p is not None:
            out = {e: c % p for e, c in out.items()}
        return Polynomial(self.ring, {e: c for e, c in out.items() if c})

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c):
        f = self.ring.field
        if f.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, {e: f.mul(cc, c) for e, cc in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValidationError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # calculus and substitution ---------------------------------------------
    def partial_derivative(self, i):
        """Formal partial derivative with respect to variable i."""
        if not 0 <= i < self.ring.nvars:
            raise ValidationError(f"variable index {i} out of range")
        f = self.ring.field
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            c2 = f.mul(c, f.from_int(e[i]))
            if f.is_zero(c2):
                continue
            e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[e2] = c2
        return Polynomial(self.ring, out)

    def substitute(self, images):
        """Ring homomorphism sending x_i to images[i].

        Images must all live in one ring over this polynomial's field,
        which becomes the result ring.
        """
        if len(images) != self.ring.nvars:
            raise RingContextError(
                f"need {self.ring.nvars} images, got {len(images)}")
        target = images[0].ring
        for im in images:
            if im.ring != target:
                raise RingContextError("substitution images in mixed rings")
        if target.field != self.ring.field:
            raise RingContextError(
                f"substitution from {self.ring.field} into {target.field}")
        # powers[i][k] = images[i]^k up to the largest exponent of x_i
        powers = []
        for i, image in enumerate(images):
            row = [target.one()]
            for _ in range(max((e[i] for e in self.terms), default=0)):
                row.append(row[-1] * image)
            powers.append(row)
        out = target.zero()
        for e, c in self.terms.items():
            term = target.constant(c)
            for i, k in enumerate(e):
                if k:
                    term = term * powers[i][k]
            out = out + term
        return out

    # display ----------------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        key = _grevlex_key(self.ring.nvars)
        names = self.ring.names
        parts = []
        for e in sorted(self.terms, key=lambda e: key(_pack_plain(e)),
                        reverse=True):
            c = self.terms[e]
            mono = "*".join(
                n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
            cs = str(c)
            if mono:
                piece = mono if cs == "1" else (f"-{mono}" if cs == "-1" else f"{cs}*{mono}")
            else:
                piece = cs
            parts.append(piece)
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return f"<{self} over {self.ring}>"

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == {} if other == 0 else self == self.ring.constant(other)
        return (isinstance(other, Polynomial)
                and other.ring == self.ring and other.terms == self.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash


# ---------------------------------------------------------------------------
# products of forms by Kronecker substitution

#: a product of forms over F_p goes through Kronecker substitution when
#: its packed size, (deg + 1)^(n - 1) slots of `_slot_bytes` each, is at
#: most this many bytes per term pair that it replaces; measured over
#: F_32003 and F_(2^61 - 1) in 3-8 variables, the two ways cost the same
#: at 20-40
_BYTES_PER_PAIR = 24

#: the kernel also costs about 10 us whatever its size, which is what the
#: term loop takes for about 10 term pairs; a product of at most this many
#: pairs runs the loop
_LOOP_PAIRS = 10


def _slot(exps, base):
    """The Kronecker slot of x^exps: the sum of exps[i] * base^(i - 1) over
    the variables x_1..x_{n-1}; x_0 follows from the degree.

    While `base` exceeds every degree in play, no digit carries, so
    slot(x^a * x^b) = slot(x^a) + slot(x^b), and among the monomials of
    one degree the slots ascend as grevlex descends: both read the
    exponents of x_1..x_{n-1} as one number with the last variable on top.
    """
    k = 0
    for x in reversed(exps[1:]):
        k = k * base + x
    return k


@lru_cache(maxsize=64)
def _degree_slots(nvars, degree):
    """The monomials of `degree` in `nvars` variables, by Kronecker slot
    (`_slot`) in base degree + 1.

    Returns two parallel lists sorted by slot: the slots and the exponent
    tuples.
    """
    rows = [()]  # exponents of x_1.. so far
    for _ in range(1, nvars):
        rows = [e + (a,) for e in rows for a in range(degree - sum(e) + 1)]
    pairs = sorted((_slot(e, degree + 1), e)
                   for e in ((degree - sum(r),) + r for r in rows))
    return [k for k, _ in pairs], [e for _, e in pairs]


def _kronecker_product(a, b, degree):
    """The product of two nonzero forms over F_p of total degree `degree`,
    by Kronecker substitution.

    Each form becomes one int with a byte-aligned slot (`_slot`, in base
    degree + 1) per monomial, from its lowest slot up; the slot of a
    product term is the sum of its factors' slots.  A slot takes at
    most min(len(a), len(b)) products below p^2, so `_slot_bytes` never
    carries.  Only the slots of monomials of `degree` are read back.
    """
    p = a.ring.field.p
    base = degree + 1
    nbytes = _slot_bytes(p, min(len(a.terms), len(b.terms)))

    def pack(f):
        slots = {_slot(e, base): c for e, c in f.terms.items()}
        low, high = min(slots), max(slots)
        buf = bytearray(nbytes * (high + 1 - low))
        for k, c in slots.items():
            at = (k - low) * nbytes
            buf[at:at + nbytes] = c.to_bytes(nbytes, "little")
        return int.from_bytes(buf, "little"), low, high

    packed_a, low_a, high_a = pack(a)
    packed_b, low_b, high_b = pack(b)
    low, high = low_a + low_b, high_a + high_b
    buf = (packed_a * packed_b).to_bytes(nbytes * (high + 1 - low), "little")
    slots, exps = _degree_slots(a.ring.nvars, degree)
    out = {}
    for i in range(bisect_left(slots, low), bisect_right(slots, high)):
        at = (slots[i] - low) * nbytes
        c = int.from_bytes(buf[at:at + nbytes], "little") % p
        if c:
            out[exps[i]] = c
    return Polynomial(a.ring, out)


# ---------------------------------------------------------------------------
# linear forms and products


def validate_linear_form(p):
    """Check degree exactly 1 with zero constant term; returns p."""
    if p.is_zero() or p.total_degree() != 1:
        raise ValidationError(f"not a linear form: {p}")
    if not p.ring.field.is_zero(p.constant_coefficient()):
        raise ValidationError(f"linear form has a constant term: {p}")
    return p


def linear_coefficients(p):
    """Coefficient vector of a linear form."""
    ring = p.ring
    out = [ring.field.zero] * ring.nvars
    for e, c in p.terms.items():
        i = next(j for j, k in enumerate(e) if k)
        out[i] = c
    return out


def expand_product(forms):
    """Multiply out a nonempty list of linear forms."""
    if not forms:
        raise ValidationError("empty product of linear forms")
    out = forms[0].ring.one()
    for f in forms:
        validate_linear_form(f)
        out = out * f
    d = out.total_degree()
    if d is None or d > MAX_DEGREE:
        raise ValidationError("product degree exceeds the packed-exponent bound")
    return out


def gradient(p):
    return [p.partial_derivative(i) for i in range(p.ring.nvars)]


# ---------------------------------------------------------------------------
# linear-form expression parser
#
# Grammar: integer coefficients, declared variable names, '+', '-', and an
# optional '*' between coefficient and variable, e.g. "2w + 3x - 5z".

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([+\-*]))")


def parse_linear_expr(ring, text, line=None):
    pos = 0
    n = len(text)
    sign = 1
    coeff = None
    pending_var = None
    acc = [0] * ring.nvars
    index = {name: i for i, name in enumerate(ring.names)}
    expect_term = True

    def flush():
        nonlocal coeff, pending_var, sign
        if pending_var is None and coeff is None:
            return
        c = coeff if coeff is not None else 1
        if pending_var is None:
            raise ParseError(f"constant term {sign * c} not allowed in a linear form",
                             line)
        acc[pending_var] += sign * c
        coeff = None
        pending_var = None
        sign = 1

    while pos < n:
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"unexpected character {text[pos:].lstrip()[:1]!r} in "
                             f"{text.strip()!r}", line)
        pos = m.end()
        num, name, op = m.groups()
        if num is not None:
            if coeff is not None:
                raise ParseError(f"two coefficients in a row in {text.strip()!r}", line)
            if pending_var is not None:
                raise ParseError(f"coefficient after variable in {text.strip()!r}", line)
            coeff = int(num)
            expect_term = False
        elif name is not None:
            if name not in index:
                raise ParseError(f"unknown variable {name!r}", line)
            if pending_var is not None:
                raise ParseError(f"two variables multiplied in {text.strip()!r} "
                                 "(only linear forms allowed)", line)
            pending_var = index[name]
            expect_term = False
        elif op == "*":
            if coeff is None or pending_var is not None:
                raise ParseError(f"misplaced '*' in {text.strip()!r}", line)
        else:  # + or -
            if expect_term and op == "+":
                raise ParseError(f"misplaced '+' in {text.strip()!r}", line)
            if not expect_term:
                flush()
            if op == "-":
                sign = -sign
            expect_term = True
    if expect_term and coeff is None and pending_var is None:
        raise ParseError(f"dangling operator in {text.strip()!r}", line)
    flush()
    if all(c == 0 for c in acc):
        raise ParseError(f"{text.strip()!r} is the zero form", line)
    return ring.linear_form([ring.field.from_int(c) for c in acc])
