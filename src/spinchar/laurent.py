"""Exact sparse Laurent-polynomial arithmetic over the integers.

A polynomial lives in the ring  Z[z_1^{±1/2}, ..., z_r^{±1/2}, t, q^{±1/2}]
and is represented as a dictionary mapping monomials to nonzero integer
coefficients.  A monomial is keyed by one flat tuple of *doubled* exponents,

  (z_1, ..., z_r, 2t, q)

t included, so half-integer exponents are exact integers and every
exponent is handled the same way; no floating point is used anywhere in
this module.  The t slot is even and >= 0.  Monomial(z, t, q) builds a key
and is the one place that knows this order; LaurentPoly._slot maps a
variable name to its position in the key.  Multiplying monomials adds their
keys element by element.

The zero polynomial has an empty term map.  Keys compare lexicographically,
which orders terms as (z, t, q) and is a total order compatible with
multiplication; serialization lists terms in descending order of the key,
so output is byte-stable.

Text grammar (see README):

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
from operator import add, sub
from typing import Iterable, Mapping, Union


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


def Monomial(z: tuple, t: int = 0, q: int = 0) -> tuple:
    """Key (z_1, ..., z_r, 2t, q) of z^(z/2) t^t q^(q/2): the z entries and
    q are doubled exponents, t is the plain exponent."""
    return (*z, 2 * t, q)


def _format_exp(twice: int) -> str:
    if twice % 2 == 0:
        return str(twice // 2)
    return f"{twice}/2"


def _factors(names, twices) -> list:
    """Text factors of the nonzero doubled exponents, one rule for every
    variable: the bare name for exponent 1."""
    return [
        name if e == 2 else f"{name}^{{{_format_exp(e)}}}"
        for name, e in zip(names, twices)
        if e
    ]


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
    """Term map of the product of two term maps, one key sum per pair."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(map(add, ma, mb))
            val = out.get(key, 0) + ca * cb
            if val:
                out[key] = val
            else:
                del out[key]
    return out


def _mul_packed(a: dict, b: dict) -> dict:
    """Term map of the product of two term maps, multiplied on packed keys.

    Each monomial becomes one int: every entry of its key, less that
    factor's minimum in the same slot, fills a bit field as wide as the two
    factors' spans added, so a sum of two keys never carries between fields
    and adding keys multiplies monomials.  Python ints are unbounded, so the
    result is exact for any exponents and coefficients.
    """
    if not a or not b:
        return {}
    keys_a, keys_b = [0] * len(a), [0] * len(b)
    fields = []  # (offset, mask, exponent of field value 0) per slot
    offset = 0
    for col_a, col_b in zip(zip(*a), zip(*b)):
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

    terms = {}
    while out:  # popped as decoded: each packed key is freed as its term is built
        key, coef = out.popitem()
        if coef:
            e = [((key >> off) & mask) + lo for off, mask, lo in fields]
            terms[tuple(e)] = coef
    return terms


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients.

    ``rank`` is the number of z-variables; rank 0 polynomials involve only
    t and q and embed into any positive rank via :meth:`embed`.
    """

    __slots__ = ("terms", "rank")

    def __init__(self, terms: Mapping[tuple, int], rank: int):
        canon = {}
        for mono, coef in terms.items():
            if len(mono) != rank + 2:
                raise RankMismatchError(
                    f"key {mono} has {len(mono)} slots, rank {rank} needs {rank + 2}"
                )
            if mono[rank] < 0 or mono[rank] % 2:
                raise ValueError(f"t exponent of key {mono} is not an integer >= 0")
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
        return LaurentPoly._make({Monomial((0,) * rank): int(value)}, rank)

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
        return LaurentPoly._make({Monomial(z): 1}, rank)

    @staticmethod
    def t_var(rank: int) -> "LaurentPoly":
        return LaurentPoly._make({Monomial((0,) * rank, 1): 1}, rank)

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
        inv = tuple(-e for e in mono)
        if inv[self.rank] < 0:
            raise NonExactDivisionError("negative t exponent in inverse", self)
        return LaurentPoly._make({inv: coef}, self.rank)

    def shift(self, mono: tuple, coef: int = 1) -> "LaurentPoly":
        """Multiply by a single monomial key (fast path, no dict merging)."""
        return LaurentPoly._make(
            {tuple(map(add, m, mono)): c * coef for m, c in self.terms.items()},
            self.rank,
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
        r, pad = self.rank, (0,) * (rank - self.rank)
        return LaurentPoly._make(
            {m[:r] + pad + m[r:]: c for m, c in self.terms.items()}, rank
        )

    def leading(self) -> tuple:
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
        cols = list(zip(zip(*self.terms), zip(*divisor.terms)))
        lo = [min(a) - min(b) for a, b in cols]
        hi = [max(a) - max(b) for a, b in cols]

        rem = dict(self.terms)
        quo = {}
        while rem:
            lead_r = max(rem)
            qmono = tuple(map(sub, lead_r, lead_b))
            if rem[lead_r] % coef_b:
                raise NonExactDivisionError(
                    "leading coefficient does not divide",
                    LaurentPoly._make(rem, self.rank),
                )
            qcoef = rem[lead_r] // coef_b
            in_box = all(l <= x <= h for l, x, h in zip(lo, qmono, hi))
            if qmono[self.rank] < 0 or not in_box:
                raise NonExactDivisionError(
                    "non-exact Laurent division", LaurentPoly._make(rem, self.rank)
                )
            quo[qmono] = qcoef
            for mono, coef in divisor.terms.items():
                key = tuple(map(add, qmono, mono))
                val = rem.get(key, 0) - qcoef * coef
                if val:
                    rem[key] = val
                else:
                    rem.pop(key, None)
        return LaurentPoly._make(quo, self.rank)

    # -- the variable layout -------------------------------------------------

    def _slot(self, name: str) -> int:
        """Position of a variable in the key (z_1..z_r, 2t, q)."""
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
        """Variable names, one per slot of the key."""
        return [f"z{i}" for i in range(1, self.rank + 1)] + ["t", "q"]

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
                # A square root of t^n needs n even: its doubled slot is 0 mod 4.
                square = not (any(x % 2 for x in bm) or bm[r] % 4)
                spread = [(i, x) for i, x in enumerate(bm) if x]
                value = (Fraction(bc), spread, square)
            else:
                value = Fraction(value)
            values.append(value)
        acc: dict = {}
        for mono, coef in self.terms.items():
            rat = Fraction(coef)
            e = list(mono)
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
            key = tuple(e)
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
            if any(key):
                name = self._names()[next(i for i, x in enumerate(key) if x)]
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
            if all(mono[s] == w for s, w in want):
                e = list(mono)
                for s, _ in want:
                    e[s] = 0
                out[tuple(e)] = coef
        return LaurentPoly._make(out, self.rank)

    # -- serialization -----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        r, names = self.rank, self._names()
        parts = []
        z = zpart = None
        tails = {}  # the factors of each distinct (t, q) part
        # Sorted on the key, the terms of one z-part are adjacent, so each
        # distinct z-part is formatted once, and so is each (t, q) part.
        for mono in sorted(self.terms, reverse=True):
            coef = self.terms[mono]
            if mono[:r] != z:
                z = mono[:r]
                zpart = _factors(names, z)
            tail = mono[r:]
            if tail not in tails:
                tails[tail] = _factors(names[r:], tail)
            factors = zpart + tails[tail]
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
            mono = tuple(e)
            terms[mono] = terms.get(mono, 0) + coef
        return LaurentPoly(terms, rank)


def prod(polys: Iterable[LaurentPoly], rank: int) -> LaurentPoly:
    out = LaurentPoly.one(rank)
    for p in polys:
        out = out * p
    return out
