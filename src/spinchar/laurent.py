"""Exact sparse Laurent-polynomial arithmetic over the integers.

A polynomial lives in the ring  Z[z_1^{±1/2}, ..., z_r^{±1/2}, t, q^{±1/2}]
and is represented as a dictionary mapping monomials to nonzero integer
coefficients.  Half-integer exponents are stored as *doubled* integers, so
all exponent arithmetic is exact integer arithmetic; no floating point is
used anywhere in this module.

  Monomial = (z: tuple of doubled exponents, t: plain exponent >= 0,
              q: doubled exponent)

Operations keyed by variable name (substitute, evaluate, coefficient_of and
parse) see a monomial as one doubled exponent list (z_1, ..., z_r, 2t, q);
LaurentPoly._slot maps a name to its position there, and _doubled /
_monomial convert between that list and a Monomial.

The zero polynomial has an empty term map.  Monomials compare
lexicographically as (z, t, q), which is a total order compatible with
multiplication; serialization lists terms in descending order of this key,
so output is byte-stable.

Text grammar (used by golden files, see README):

  poly   := "0" | term (" + " term)*
  term   := coef | coef " * " factor (" " factor)*
  coef   := integer (sign included, always printed)
  factor := name | name "^{" exp "}"        -- "^{1}" is omitted
  name   := "z"<index> | "t" | "q"
  exp    := integer | odd-integer "/2"       -- e.g. "3", "-2", "11/2"

Zero-exponent factors are omitted entirely.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union


class RankMismatchError(ValueError):
    """Raised when combining polynomials over different z-variable counts."""


class NonExactDivisionError(ArithmeticError):
    """Raised by div_exact when the divisor does not divide the dividend.

    The offending remainder (at the point the division got stuck) is kept
    on the exception for diagnostics.
    """

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class SubstitutionError(ValueError):
    """Raised when a substitution cannot be performed exactly."""


class Monomial(NamedTuple):
    """Exponent data of one term; z and q entries are doubled exponents."""

    z: tuple
    t: int
    q: int

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(
            tuple(a + b for a, b in zip(self.z, other.z)),
            self.t + other.t,
            self.q + other.q,
        )

    def divide(self, other: "Monomial") -> "Monomial":
        return Monomial(
            tuple(a - b for a, b in zip(self.z, other.z)),
            self.t - other.t,
            self.q - other.q,
        )


def _format_exp(twice: int) -> str:
    if twice % 2 == 0:
        return str(twice // 2)
    return f"{twice}/2"


def _twice(value) -> int:
    """Twice a half-integer given as an int, or as a Fraction (or anything
    Fraction accepts) with denominator 1 or 2."""
    if isinstance(value, int):
        return 2 * value
    frac = Fraction(value)
    if frac.denominator not in (1, 2):
        raise ValueError(f"not a half-integer: {value!r}")
    return int(frac * 2)


_FACTOR_RE = re.compile(r"^(z\d+|t|q)(?:\^\{(-?\d+(?:/2)?)\})?$")
_Z_NAME_RE = re.compile(r"z([1-9][0-9]*)")

# A product with at least this many pairs of terms is multiplied on packed
# keys.  Most products are far smaller (tiny q-polynomials), and there
# packing and unpacking cost as much as the pairs save, or more.
PACKED_MIN_PAIRS = 4096


def _mul_dict(a: dict, b: dict) -> dict:
    """Term map of the product of two term maps, one Monomial per pair."""
    out = {}
    for ma, ca in a.items():
        za, ta, qa = ma
        for mb, cb in b.items():
            key = Monomial(
                tuple(x + y for x, y in zip(za, mb.z)), ta + mb.t, qa + mb.q
            )
            val = out.get(key, 0) + ca * cb
            if val:
                out[key] = val
            else:
                del out[key]
    return out


def _mul_packed(a: dict, b: dict) -> dict:
    """Term map of the product of two term maps, multiplied on packed keys.

    Each monomial becomes one int: its exponent of every variable (z_1..z_r,
    t, q), less that factor's minimum, fills a bit field as wide as the two
    factors' spans added, so a sum of two keys never carries between fields
    and adding keys multiplies monomials.  Python ints are unbounded, so the
    result is exact for any exponents and coefficients.
    """
    if not a or not b:
        return {}
    cols_a = [*zip(*(m.z for m in a)), [m.t for m in a], [m.q for m in a]]
    cols_b = [*zip(*(m.z for m in b)), [m.t for m in b], [m.q for m in b]]
    keys_a, keys_b = [0] * len(a), [0] * len(b)
    fields = []  # (offset, mask, exponent of field value 0) per variable
    offset = 0
    for col_a, col_b in zip(cols_a, cols_b):
        lo_a, lo_b = min(col_a), min(col_b)
        width = (max(col_a) - lo_a + max(col_b) - lo_b).bit_length()
        keys_a = [k + ((e - lo_a) << offset) for k, e in zip(keys_a, col_a)]
        keys_b = [k + ((e - lo_b) << offset) for k, e in zip(keys_b, col_b)]
        fields.append((offset, (1 << width) - 1, lo_a + lo_b))
        offset += width

    out = {}
    get = out.get
    pairs_b = list(zip(keys_b, b.values()))
    for ka, ca in zip(keys_a, a.values()):
        for kb, cb in pairs_b:
            key = ka + kb
            out[key] = get(key, 0) + ca * cb

    rank = len(fields) - 2
    terms = {}
    while out:  # popped as decoded: each packed key is freed as its term is built
        key, coef = out.popitem()
        if coef:
            e = [((key >> off) & mask) + lo for off, mask, lo in fields]
            terms[Monomial(tuple(e[:rank]), e[rank], e[rank + 1])] = coef
    return terms


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients.

    ``rank`` is the number of z-variables; rank 0 polynomials involve only
    t and q and embed into any positive rank via :meth:`embed`.
    """

    __slots__ = ("terms", "rank")

    def __init__(self, terms: Mapping[Monomial, int], rank: int):
        canon = {}
        for mono, coef in terms.items():
            if not isinstance(mono, Monomial):
                mono = Monomial(tuple(mono[0]), mono[1], mono[2])
            if len(mono.z) != rank:
                raise RankMismatchError(
                    f"monomial has {len(mono.z)} z-exponents, rank is {rank}"
                )
            if mono.t < 0:
                raise ValueError("negative t exponent")
            if coef:
                canon[mono] = coef
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, *args):  # pragma: no cover
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _make(terms: dict, rank: int) -> "LaurentPoly":
        # Internal fast path: terms already canonical (no zeros, right rank).
        self = object.__new__(LaurentPoly)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "rank", rank)
        return self

    @staticmethod
    def zero(rank: int) -> "LaurentPoly":
        return LaurentPoly._make({}, rank)

    @staticmethod
    def const(value: int, rank: int) -> "LaurentPoly":
        if value == 0:
            return LaurentPoly.zero(rank)
        return LaurentPoly._make({Monomial((0,) * rank, 0, 0): int(value)}, rank)

    @staticmethod
    def one(rank: int) -> "LaurentPoly":
        return LaurentPoly.const(1, rank)

    @staticmethod
    def monomial(rank: int, zexp=(), texp: int = 0, qexp=0, coef: int = 1) -> "LaurentPoly":
        """Single term; zexp entries and qexp are half-integers (int or Fraction)."""
        zt = list(zexp) + [0] * (rank - len(list(zexp)))
        z = tuple(_twice(e) for e in zt)
        mono = Monomial(z, texp, _twice(qexp))
        if coef == 0:
            return LaurentPoly.zero(rank)
        return LaurentPoly({mono: coef}, rank)

    @staticmethod
    def z_var(rank: int, i: int, half: bool = False) -> "LaurentPoly":
        """The variable z_i (1-based), or z_i^{1/2} when half is set."""
        if not 1 <= i <= rank:
            raise RankMismatchError(f"z{i} out of range for rank {rank}")
        z = [0] * rank
        z[i - 1] = 1 if half else 2
        return LaurentPoly._make({Monomial(tuple(z), 0, 0): 1}, rank)

    @staticmethod
    def t_var(rank: int) -> "LaurentPoly":
        return LaurentPoly._make({Monomial((0,) * rank, 1, 0): 1}, rank)

    @staticmethod
    def q_var(rank: int, half: bool = False) -> "LaurentPoly":
        return LaurentPoly._make({Monomial((0,) * rank, 0, 1 if half else 2): 1}, rank)

    # -- ring operations ---------------------------------------------------

    def _check_rank(self, other: "LaurentPoly"):
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other, self.rank)
        self._check_rank(other)
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            val = out.get(mono, 0) + coef
            if val:
                out[mono] = val
            else:
                out.pop(mono, None)
        return LaurentPoly._make(out, self.rank)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._make({m: -c for m, c in self.terms.items()}, self.rank)

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other, self.rank)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero(self.rank)
            return LaurentPoly._make(
                {m: c * other for m, c in self.terms.items()}, self.rank
            )
        self._check_rank(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        mul = _mul_packed if len(a) * len(b) >= PACKED_MIN_PAIRS else _mul_dict
        return LaurentPoly._make(mul(a, b), self.rank)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            inv = self.inverse_monomial()
            return inv ** (-n)
        result = LaurentPoly.one(self.rank)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse_monomial(self) -> "LaurentPoly":
        """Inverse of a single-term polynomial with coefficient ±1."""
        if len(self.terms) != 1:
            raise NonExactDivisionError("only monomials are invertible", self)
        (mono, coef), = self.terms.items()
        if coef not in (1, -1):
            raise NonExactDivisionError("unit coefficient required", self)
        inv = Monomial(tuple(-e for e in mono.z), -mono.t, -mono.q)
        if inv.t < 0:
            raise NonExactDivisionError("negative t exponent in inverse", self)
        return LaurentPoly._make({inv: coef}, self.rank)

    def shift(self, mono: Monomial, coef: int = 1) -> "LaurentPoly":
        """Multiply by a single monomial (fast path, no dict merging)."""
        return LaurentPoly._make(
            {m.mul(mono): c * coef for m, c in self.terms.items()}, self.rank
        )

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == LaurentPoly.const(other, self.rank).terms
        return (
            isinstance(other, LaurentPoly)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    # -- structure ---------------------------------------------------------

    def embed(self, rank: int) -> "LaurentPoly":
        """Lift a polynomial into a larger rank with zero new z-exponents."""
        if rank == self.rank:
            return self
        if rank < self.rank:
            raise RankMismatchError("cannot shrink rank")
        pad = (0,) * (rank - self.rank)
        return LaurentPoly._make(
            {Monomial(m.z + pad, m.t, m.q): c for m, c in self.terms.items()}, rank
        )

    def leading(self) -> Monomial:
        return max(self.terms)

    # -- division ----------------------------------------------------------

    def div_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient; raises NonExactDivisionError when b does not divide.

        Greedy leading-term cancellation in the lexicographic order.  Newton
        polytope bounds on the quotient guarantee termination: every quotient
        exponent must lie, coordinate by coordinate, between the least
        exponent of a minus that of b and the greatest of a minus that of b.
        """
        self._check_rank(divisor)
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return LaurentPoly.zero(self.rank)

        lead_b = divisor.leading()
        coef_b = divisor.terms[lead_b]

        def extremes(poly):
            monos = list(poly.terms)
            los, his = [], []
            for i in range(poly.rank):
                vals = [m.z[i] for m in monos]
                los.append(min(vals))
                his.append(max(vals))
            los += [min(m.t for m in monos), min(m.q for m in monos)]
            his += [max(m.t for m in monos), max(m.q for m in monos)]
            return los, his

        alo, ahi = extremes(self)
        blo, bhi = extremes(divisor)
        lo = [x - y for x, y in zip(alo, blo)]
        hi = [x - y for x, y in zip(ahi, bhi)]

        def in_box(m: Monomial) -> bool:
            flat = list(m.z) + [m.t, m.q]
            return all(l <= x <= h for l, x, h in zip(lo, flat, hi))

        rem = dict(self.terms)
        quo = {}
        while rem:
            lead_r = max(rem)
            qmono = lead_r.divide(lead_b)
            if rem[lead_r] % coef_b:
                raise NonExactDivisionError(
                    "leading coefficient does not divide",
                    LaurentPoly._make(rem, self.rank),
                )
            qcoef = rem[lead_r] // coef_b
            if qmono.t < 0 or not in_box(qmono):
                raise NonExactDivisionError(
                    "non-exact Laurent division", LaurentPoly._make(rem, self.rank)
                )
            quo[qmono] = qcoef
            for mono, coef in divisor.terms.items():
                key = qmono.mul(mono)
                val = rem.get(key, 0) - qcoef * coef
                if val:
                    rem[key] = val
                else:
                    rem.pop(key, None)
        return LaurentPoly._make(quo, self.rank)

    # -- the variable layout -------------------------------------------------

    def _slot(self, name: str) -> int:
        """Position of a variable in the doubled exponent list (z_1..z_r, 2t, q)."""
        r = self.rank
        if name == "t":
            return r
        if name == "q":
            return r + 1
        m = _Z_NAME_RE.fullmatch(name)
        if m and int(m.group(1)) <= r:
            return int(m.group(1)) - 1
        raise RankMismatchError(
            f"no variable {name} at rank {r} (variables: {', '.join(self._names())})"
        )

    def _names(self) -> list:
        """Variable names, one per slot; built only for error messages."""
        return [f"z{i}" for i in range(1, self.rank + 1)] + ["t", "q"]

    @staticmethod
    def _doubled(mono: Monomial) -> list:
        """Doubled exponent list (z_1..z_r, 2t, q) of a monomial."""
        return [*mono.z, 2 * mono.t, mono.q]

    def _monomial(self, e) -> Monomial:
        """The monomial of a doubled exponent list whose t slot is even."""
        r = self.rank
        return Monomial(tuple(e[:r]), e[r] // 2, e[r + 1])

    # -- substitution and evaluation ----------------------------------------

    @staticmethod
    def _rational_power(base: Fraction, twice_exp: int) -> Fraction:
        """base ** (twice_exp/2), exact; requires an exact square root if odd."""
        if twice_exp < 0 and base == 0:
            raise SubstitutionError("zero to a negative power")
        if twice_exp % 2 == 0:
            return base ** (twice_exp // 2)
        if base < 0:
            raise SubstitutionError("no exact square root of a negative value")
        num, den = base.numerator, base.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn != num or rd * rd != den:
            raise SubstitutionError(f"{base} is not an exact square")
        return Fraction(rn, rd) ** twice_exp

    def _bind(self, bindings: Mapping) -> dict:
        """Term map, with Fraction coefficients, of the polynomial with each
        named variable replaced by a number or a single-term polynomial.

        All variables are replaced at once: a binding's own variables are
        not bound again.
        """
        r = self.rank
        slots, values = [], []
        for name, value in bindings.items():
            slots.append(self._slot(name))
            if isinstance(value, LaurentPoly):
                if value.rank != r:
                    raise RankMismatchError("binding rank mismatch")
                if len(value.terms) != 1:
                    raise SubstitutionError(
                        "a polynomial binding must be a single term"
                    )
                (bm, bc), = value.terms.items()
                square = not (any(x % 2 for x in bm.z) or bm.t % 2 or bm.q % 2)
                spread = [(i, x) for i, x in enumerate(self._doubled(bm)) if x]
                value = (Fraction(bc), spread, square)
            else:
                value = Fraction(value)
            values.append(value)
        acc: dict = {}
        for mono, coef in self.terms.items():
            rat = Fraction(coef)
            e = self._doubled(mono)
            twices = [e[s] for s in slots]
            for s in slots:
                e[s] = 0
            for value, twice in zip(values, twices):
                if not twice:
                    continue
                if type(value) is Fraction:
                    rat *= self._rational_power(value, twice)
                    continue
                bc, spread, square = value
                if twice % 2 and not square:
                    raise SubstitutionError("binding is not an exact square monomial")
                rat *= self._rational_power(bc, twice)
                for i, x in spread:  # times twice/2, exact by the square check
                    e[i] += twice * x // 2
            if e[r] < 0:
                raise SubstitutionError("negative t exponent produced")
            key = self._monomial(e)
            acc[key] = acc[key] + rat if key in acc else rat
        return acc

    def substitute(self, bindings: Mapping[str, Union[int, Fraction, "LaurentPoly"]]) -> "LaurentPoly":
        """Exact substitution of variables by rationals or single-term polynomials.

        Keys are variable names ("z1", ..., "t", "q"); a name that is not a
        variable at this rank raises RankMismatchError.  A variable
        appearing with half-integer exponents needs a binding with an exact
        square root (a square rational, or a single-term square monomial).
        Raises SubstitutionError on a polynomial binding of more than one
        term, or if the result would have fractional coefficients.
        """
        out = {}
        for key, val in self._bind(bindings).items():
            if val.denominator != 1:
                raise SubstitutionError(
                    f"substitution leaves fractional coefficient {val}; "
                    "use evaluate() for numeric values"
                )
            if val:
                out[key] = int(val)
        return LaurentPoly._make(out, self.rank)

    def evaluate(self, assignments: Mapping[str, Union[int, Fraction]]) -> Fraction:
        """Fully numeric exact evaluation; every occurring variable must bind."""
        acc = self._bind(assignments)
        for key in acc:
            if any(key.z) or key.t or key.q:
                e = self._doubled(key)
                name = self._names()[next(i for i, x in enumerate(e) if x)]
                raise SubstitutionError(f"unbound variable {name}")
        # Every term is now constant: at most one key is left.
        return acc.popitem()[1] if acc else Fraction(0)

    def coefficient_of(self, constraints: Mapping[str, object]) -> "LaurentPoly":
        """Sub-polynomial multiplying the constrained exponents.

        ``constraints`` maps variable names to required exponents (int or
        Fraction half-integers; t needs an integer); matching terms are
        returned with those exponents cleared, in the same rank.
        """
        want = []
        for name, value in constraints.items():
            slot, twice = self._slot(name), _twice(value)
            if slot == self.rank and twice % 2:
                raise ValueError("t exponent must be an integer")
            want.append((slot, twice))
        # Matching terms agree on every constrained slot, so clearing those
        # slots keeps their monomials distinct.
        out = {}
        for mono, coef in self.terms.items():
            e = self._doubled(mono)
            if all(e[s] == w for s, w in want):
                for s, _ in want:
                    e[s] = 0
                out[self._monomial(e)] = coef
        return LaurentPoly._make(out, self.rank)

    # -- serialization -----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        z = zpart = None
        # Sorted on (z, t, q), the terms of one z-part are adjacent, so each
        # distinct z-part is formatted once.
        for mono in sorted(self.terms, reverse=True):
            coef = self.terms[mono]
            if mono.z != z:
                z = mono.z
                zpart = " ".join(
                    f"z{i + 1}" if e == 2 else f"z{i + 1}^{{{_format_exp(e)}}}"
                    for i, e in enumerate(z)
                    if e
                )
            factors = [zpart] if zpart else []
            if mono.t == 1:
                factors.append("t")
            elif mono.t:
                factors.append(f"t^{{{mono.t}}}")
            if mono.q == 2:
                factors.append("q")
            elif mono.q:
                factors.append(f"q^{{{_format_exp(mono.q)}}}")
            if factors:
                parts.append(f"{coef} * " + " ".join(factors))
            else:
                parts.append(str(coef))
        return " + ".join(parts)

    __repr__ = __str__

    @staticmethod
    def parse(text: str, rank: int) -> "LaurentPoly":
        """Inverse of str(); accepts the grammar documented in the module."""
        text = text.strip()
        if text == "0":
            return LaurentPoly.zero(rank)
        shell = LaurentPoly.zero(rank)  # owns the variable layout
        terms: dict = {}
        for chunk in text.split(" + "):
            pieces = chunk.split(" * ")
            coef = int(pieces[0])
            e = [0] * (rank + 2)
            if len(pieces) == 2:
                for factor in pieces[1].split():
                    m = _FACTOR_RE.match(factor)
                    if not m:
                        raise ValueError(f"bad factor {factor!r}")
                    name, exp = m.groups()
                    e[shell._slot(name)] = 2 if exp is None else _twice(exp)
            elif len(pieces) > 2:
                raise ValueError(f"bad term {chunk!r}")
            if e[rank] % 2:
                raise ValueError("fractional t exponent")
            mono = shell._monomial(e)
            terms[mono] = terms.get(mono, 0) + coef
        return LaurentPoly(terms, rank)


def prod(polys: Iterable[LaurentPoly], rank: int) -> LaurentPoly:
    out = LaurentPoly.one(rank)
    for p in polys:
        out = out * p
    return out
