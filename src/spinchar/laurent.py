"""Exact sparse Laurent-polynomial arithmetic over the integers.

A polynomial lives in the ring  Z[z_1^{±1/2}, ..., z_r^{±1/2}, t, q^{±1/2}]
and is represented as a dictionary mapping monomials to nonzero integer
coefficients.  Half-integer exponents are stored as *doubled* integers, so
all exponent arithmetic is exact integer arithmetic; no floating point is
used anywhere in this module.

  Monomial = (z: tuple of doubled exponents, t: plain exponent >= 0,
              q: doubled exponent)

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
from dataclasses import dataclass
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


@dataclass(frozen=True, order=True)
class HalfInt:
    """An element of (1/2)Z, stored as twice its value.

    The value is ``twice / 2``; it is an integer iff ``twice`` is even.
    Arithmetic and comparison are exact.
    """

    twice: int

    @staticmethod
    def of(value) -> "HalfInt":
        """Coerce an int, Fraction with denominator 1 or 2, or HalfInt."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return HalfInt(2 * value)
        frac = Fraction(value)
        if frac.denominator not in (1, 2):
            raise ValueError(f"not a half-integer: {value!r}")
        return HalfInt(int(frac * 2))

    def __add__(self, other):
        return HalfInt(self.twice + HalfInt.of(other).twice)

    def __sub__(self, other):
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


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


_FACTOR_RE = re.compile(r"^(z(\d+)|t|q)(?:\^\{(-?\d+(?:/2)?)\})?$")

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
        """Single term; zexp entries and qexp may be HalfInt, int or Fraction."""
        zt = list(zexp) + [0] * (rank - len(list(zexp)))
        z = tuple(HalfInt.of(e).twice for e in zt)
        mono = Monomial(z, texp, HalfInt.of(qexp).twice)
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

    # -- substitution and evaluation ----------------------------------------

    def _var_exponent(self, mono: Monomial, name: str) -> int:
        """Doubled exponent of the named variable in a monomial (t: doubled too)."""
        if name == "t":
            return 2 * mono.t
        if name == "q":
            return mono.q
        idx = int(name[1:])
        if not 1 <= idx <= self.rank:
            raise RankMismatchError(f"no variable {name} at rank {self.rank}")
        return mono.z[idx - 1]

    @staticmethod
    def _rational_power(base: Fraction, twice_exp: int) -> Fraction:
        """base ** (twice_exp/2), exact; requires an exact square root if odd."""
        if twice_exp % 2 == 0:
            exp = twice_exp // 2
            if exp < 0 and base == 0:
                raise SubstitutionError("zero to a negative power")
            return base ** exp
        if base < 0:
            raise SubstitutionError("no exact square root of a negative value")
        num, den = base.numerator, base.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn != num or rd * rd != den:
            raise SubstitutionError(f"{base} is not an exact square")
        return Fraction(rn, rd) ** twice_exp

    def substitute(self, bindings: Mapping[str, Union[int, Fraction, "LaurentPoly"]]) -> "LaurentPoly":
        """Exact substitution of variables by rationals or single-term polynomials.

        Keys are variable names ("z1", ..., "t", "q").  A variable appearing
        with half-integer exponents needs a binding with an exact square root
        (a square rational, or a single-term square monomial).  Raises
        SubstitutionError on a polynomial binding of more than one term, or
        if the result would have fractional coefficients.
        """
        names = list(bindings)
        acc: dict = {}
        for mono, coef in self.terms.items():
            rat = Fraction(coef)
            zrem, trem, qrem = list(mono.z), mono.t, mono.q
            for name in names:
                twice_exp = self._var_exponent(mono, name)
                if name == "t":
                    trem = 0
                elif name == "q":
                    qrem = 0
                else:
                    zrem[int(name[1:]) - 1] = 0
                if twice_exp == 0:
                    continue
                value = bindings[name]
                if isinstance(value, LaurentPoly):
                    if value.rank != self.rank:
                        raise RankMismatchError("binding rank mismatch")
                    if len(value.terms) != 1:
                        raise SubstitutionError(
                            "a polynomial binding must be a single term"
                        )
                    (bm, bc), = value.terms.items()
                    rat *= self._rational_power(Fraction(bc), twice_exp)
                    if twice_exp % 2 == 0:
                        e = twice_exp // 2
                    else:
                        if any(x % 2 for x in bm.z) or bm.t % 2 or bm.q % 2:
                            raise SubstitutionError(
                                "binding is not an exact square monomial"
                            )
                        bm = Monomial(
                            tuple(x // 2 for x in bm.z), bm.t // 2, bm.q // 2
                        )
                        e = twice_exp
                    for k in range(len(zrem)):
                        zrem[k] += e * bm.z[k]
                    trem += e * bm.t
                    qrem += e * bm.q
                    if trem < 0:
                        raise SubstitutionError("negative t exponent produced")
                else:
                    rat *= self._rational_power(Fraction(value), twice_exp)
            base = Monomial(tuple(zrem), trem, qrem)
            acc[base] = acc.get(base, Fraction(0)) + rat
        out = {}
        for key, val in acc.items():
            if val == 0:
                continue
            if val.denominator != 1:
                raise SubstitutionError(
                    f"substitution leaves fractional coefficient {val}; "
                    "use evaluate() for numeric values"
                )
            out[key] = int(val)
        return LaurentPoly._make(out, self.rank)

    def evaluate(self, assignments: Mapping[str, Union[int, Fraction]]) -> Fraction:
        """Fully numeric exact evaluation; every occurring variable must bind."""
        total = Fraction(0)
        vals = {k: Fraction(v) for k, v in assignments.items()}
        for mono, coef in self.terms.items():
            term = Fraction(coef)
            for i, e in enumerate(mono.z):
                if e:
                    name = f"z{i + 1}"
                    if name not in vals:
                        raise SubstitutionError(f"unbound variable {name}")
                    term *= self._rational_power(vals[name], e)
            if mono.t:
                if "t" not in vals:
                    raise SubstitutionError("unbound variable t")
                term *= vals["t"] ** mono.t
            if mono.q:
                if "q" not in vals:
                    raise SubstitutionError("unbound variable q")
                term *= self._rational_power(vals["q"], mono.q)
            total += term
        return total

    def coefficient_of(self, constraints: Mapping[str, object]) -> "LaurentPoly":
        """Sub-polynomial multiplying the constrained exponents.

        ``constraints`` maps variable names to required exponents (HalfInt,
        int or Fraction); matching terms are returned with those exponents
        cleared, in the same rank.
        """
        want = {}
        for name, value in constraints.items():
            if name == "t":
                h = HalfInt.of(value)
                if not h.is_integer:
                    raise ValueError("t exponent must be an integer")
                want[name] = h.twice // 2
            else:
                want[name] = HalfInt.of(value).twice
        out = {}
        for mono, coef in self.terms.items():
            ok = True
            for name, target in want.items():
                actual = mono.t if name == "t" else self._var_exponent(mono, name)
                if actual != target:
                    ok = False
                    break
            if not ok:
                continue
            z = list(mono.z)
            t, q = mono.t, mono.q
            for name in want:
                if name == "t":
                    t = 0
                elif name == "q":
                    q = 0
                else:
                    z[int(name[1:]) - 1] = 0
            key = Monomial(tuple(z), t, q)
            out[key] = out.get(key, 0) + coef
        return LaurentPoly._make({k: v for k, v in out.items() if v}, self.rank)

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
        terms: dict = {}
        for chunk in text.split(" + "):
            pieces = chunk.split(" * ")
            coef = int(pieces[0])
            z = [0] * rank
            t = 0
            q = 0
            if len(pieces) == 2:
                for factor in pieces[1].split():
                    m = _FACTOR_RE.match(factor)
                    if not m:
                        raise ValueError(f"bad factor {factor!r}")
                    name, zidx, exp = m.group(1), m.group(2), m.group(3)
                    if exp is None:
                        twice = 2
                    elif exp.endswith("/2"):
                        twice = int(exp[:-2])
                    else:
                        twice = 2 * int(exp)
                    if name == "t":
                        if twice % 2:
                            raise ValueError("fractional t exponent")
                        t = twice // 2
                    elif name == "q":
                        q = twice
                    else:
                        idx = int(zidx)
                        if not 1 <= idx <= rank:
                            raise RankMismatchError(f"z{idx} out of range")
                        z[idx - 1] = twice
            elif len(pieces) > 2:
                raise ValueError(f"bad term {chunk!r}")
            mono = Monomial(tuple(z), t, q)
            terms[mono] = terms.get(mono, 0) + coef
        return LaurentPoly(terms, rank)


def prod(polys: Iterable[LaurentPoly], rank: int) -> LaurentPoly:
    out = LaurentPoly.one(rank)
    for p in polys:
        out = out * p
    return out
