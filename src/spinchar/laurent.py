"""Exact sparse Laurent-polynomial arithmetic over the integers.

A polynomial lives in the ring  Z[z_1^{±1/2}, ..., z_r^{±1/2}, t, q^{±1/2}]
and is represented as a dictionary mapping monomials to nonzero integer
coefficients.  A monomial is keyed by one flat tuple of *doubled* exponents,

  (z_1, ..., z_r, 2t, q)

t included, so half-integer exponents are exact integers and every
exponent is handled the same way; no floating point is used anywhere in
this module.  The t slot is even and >= 0.  Monomial(z, t, q) builds a key
and LaurentPoly._slot maps a variable name to its position in it.  Outside
this module, a few hot loops rely on the order directly: padic._expand and
whittaker.h_table write rank-0 keys (0, q), and whittaker._at_minus_qinv
reads the t and q slots as mono[r] and mono[r + 1].  Multiplying monomials
adds their keys element by element.

The zero polynomial has an empty term map.  Keys compare lexicographically,
which orders terms as (z, t, q) and is a total order compatible with
multiplication; serialization lists terms in descending order of the key,
so output is byte-stable.

The two large kernels run on packed keys (_fields): each slot of a key,
less a fixed low, fills one bit field of an integer, slot 0 in the most
significant field, so integer order is key order and, where no field
carries, adding packed keys multiplies monomials.  Both product kernels
sum the products of a list of pairs (a, b) of term maps, for one product
or for gtpatterns.slice_walk's join; from PACKED_MIN_PAIRS pairs of terms
(mul_terms) they pack into int64 and sum with numpy.  When the fields
need more than 62 bits, an exponent reaches 2^62 in size, or the sum over
the pairs of sum|a| * max|b| reaches 2^62, int64 could wrap, and the dict
loop (_mul_dict), exact for any input, takes over.  Exact division packs
into Python ints over the dividend's exponent box, which holds every
remainder key, and finds each leading term on a max-heap of them.

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
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import add, sub
from typing import Iterable, Mapping, Union

import numpy as np


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
# keys.  Below it, converting to and from arrays costs as much as the pairs
# save, or more: timed against _mul_dict at ranks 0, 2 and 4, the packed
# product wins from about 192 pairs when both factors have about as many
# terms, from about 384 when one factor has two, and on every shape from 512.
PACKED_MIN_PAIRS = 512

# The packed product forms its pairs of terms in blocks of whole rows
# a_i + b, as many as this many pairs hold but at least one row, so a block
# holds at most max(_BLOCK_PAIRS, len(b)) pairs; it decodes its result
# _DECODE_SLICE terms at a time.  Its arrays stay small next to the term
# maps themselves.
_BLOCK_PAIRS = 1 << 16
_DECODE_SLICE = 4096

# Packed keys, coefficients and every partial sum of the packed product
# stay below this bound, so int64 never wraps.
_INT64_SAFE = 1 << 62


def _fields(lows, spans) -> list:
    """(shift, mask, low) of each slot's bit field in a packed key.

    A slot whose entries lie in low..low + span holds entry - low in a field
    span.bit_length() bits wide.  Slot 0 has the most significant field, so
    packed keys compare as integers exactly as the key tuples compare.
    """
    fields = []
    shift = 0
    for low, span in reversed(list(zip(lows, spans))):
        width = span.bit_length()
        fields.append((shift, (1 << width) - 1, low))
        shift += width
    return fields[::-1]


def _mul_dict(pairs) -> dict:
    """Term map of the sum of the products of pairs (a, b) of term maps."""
    out = {}
    for a, b in pairs:
        for ma, ca in a.items():
            for mb, cb in b.items():
                key = tuple(map(add, ma, mb))
                val = out.get(key, 0) + ca * cb
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
    return out


def _mul_packed(pairs) -> dict:
    """Term map of the sum of the products of pairs (a, b) of term maps,
    multiplied on int64 keys.

    All pairs share one field layout (_fields), from the least to the
    greatest sum of a pair's bounds in each slot; a's keys are packed less
    a's minima and b's less the rest of the low, so no key sum carries.
    b's keys are sorted once per pair, so each row a_i + b of pairs of terms
    is a sorted run.  A block is as many whole rows as _BLOCK_PAIRS holds, at
    least one, so at most max(_BLOCK_PAIRS, len(b)) pairs; a stable sort,
    which merges sorted runs rather than re-sorting them, merges each block
    into the one running result, whose equal keys are summed.  The result is
    decoded _DECODE_SLICE terms at a time.  When the fields need more than
    62 bits, an exponent reaches 2^62 in size, or the sum over the pairs of
    sum|a| * max|b| reaches 2^62, int64 could wrap, and _mul_dict takes over.
    The packed exponents follow Monagan and Pearce (CASC 2007).
    """
    pairs = [(a, b) for a, b in pairs if a and b]
    if not pairs:
        return {}
    slots = len(next(iter(pairs[0][0])))
    try:  # an exponent or a coefficient beyond int64 cannot be packed
        arrays = [  # (ea, eb, ca, cb) of each pair
            [np.fromiter(chain.from_iterable(m), np.int64, len(m) * slots).reshape(-1, slots)
             for m in pair] + [np.fromiter(m.values(), np.int64, len(m)) for m in pair]
            for pair in pairs
        ]
    except OverflowError:
        return _mul_dict(pairs)
    bounds = [  # (lo_a, lo_b, hi_a, hi_b) of each pair
        [f(e, axis=0).tolist() for f in (np.min, np.max) for e in (ea, eb)]
        for ea, eb, _, _ in arrays
    ]
    lows = [min(col) for col in zip(*(map(add, la, lb) for la, lb, _, _ in bounds))]
    highs = [max(col) for col in zip(*(map(add, ha, hb) for _, _, ha, hb in bounds))]
    spans = list(map(sub, highs, lows))
    if (
        sum(span.bit_length() for span in spans) > 62
        or max(abs(e) for bound in bounds for e in chain(*bound)) >= _INT64_SAFE
        or sum(sum(map(abs, a.values())) * max(map(abs, b.values())) for a, b in pairs)
        >= _INT64_SAFE
    ):
        return _mul_dict(pairs)

    fields = _fields(lows, spans)
    shifts = np.array([shift for shift, _, _ in fields], dtype=np.int64)
    keys = coefs = np.empty(0, dtype=np.int64)
    for (ea, eb, ca, cb), (lo_a, _, _, _) in zip(arrays, bounds):
        ka = ((ea - lo_a) << shifts).sum(axis=1)
        kb = ((eb - list(map(sub, lows, lo_a))) << shifts).sum(axis=1)
        order = np.argsort(kb)
        kb, cb = kb[order], cb[order]
        step = max(1, _BLOCK_PAIRS // len(kb))
        for i in range(0, len(ka), step):
            k = np.concatenate((keys, (ka[i:i + step, None] + kb).ravel()))
            c = np.concatenate((coefs, (ca[i:i + step, None] * cb).ravel()))
            order = np.argsort(k, kind="stable")  # merges the sorted runs
            k = k[order]  # one at a time: the unsorted k is freed first
            c = c[order]
            starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
            keys, coefs = k[starts], np.add.reduceat(c, starts)
    del arrays, ea, eb, ca, cb, ka, kb, k, c, order  # before the decode, the peak
    kept = coefs != 0
    keys, coefs = keys[kept], coefs[kept]

    terms = {}
    for i in range(0, len(keys), _DECODE_SLICE):
        part = keys[i:i + _DECODE_SLICE]
        cols = [(((part >> s) & mask) + low).tolist() for s, mask, low in fields]
        terms.update(zip(zip(*cols), coefs[i:i + _DECODE_SLICE].tolist()))
    return terms


def mul_terms(pairs) -> dict:
    """_mul_packed from PACKED_MIN_PAIRS pairs of terms in all, else _mul_dict."""
    size = 0  # a loop, not sum(): a one-pair product pays no generator
    for a, b in pairs:
        size += len(a) * len(b)
    return (_mul_packed if size >= PACKED_MIN_PAIRS else _mul_dict)(pairs)


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients.

    ``rank`` is the number of z-variables; rank 0 polynomials involve only
    t and q.
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
    def one(rank: int) -> "LaurentPoly":
        return LaurentPoly._make({Monomial((0,) * rank): 1}, rank)

    @staticmethod
    def monomial(rank: int, zexp=(), texp: int = 0, qexp=0, coef: int = 1) -> "LaurentPoly":
        """coef z^zexp t^texp q^qexp, the one single-term constructor: zexp
        holds the exponents of z_1, z_2, ... (those it leaves out are 0); its
        entries and qexp are half-integers (int or Fraction)."""
        z = [_twice(e) for e in zexp]
        z += [0] * (rank - len(z))
        return LaurentPoly({Monomial(z, texp, _twice(qexp)): coef}, rank)

    # -- ring operations ---------------------------------------------------

    def _check_rank(self, other: "LaurentPoly"):
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_rank(other)
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            val = out.get(mono, 0) + coef
            if val:
                out[mono] = val
            else:
                out.pop(mono, None)
        return LaurentPoly._make(out, self.rank)

    def __neg__(self):
        return LaurentPoly._make({m: -c for m, c in self.terms.items()}, self.rank)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_rank(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        return LaurentPoly._make(mul_terms([(a, b)]), self.rank)

    def shift(self, mono: tuple) -> "LaurentPoly":
        """Multiply by a single monomial key (fast path, no dict merging)."""
        return LaurentPoly._make(
            {tuple(map(add, m, mono)): c for m, c in self.terms.items()}, self.rank
        )

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    # -- division ----------------------------------------------------------

    def div_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient; raises NonExactDivisionError when b does not divide.

        Greedy leading-term cancellation in the lexicographic order.  Newton
        polytope bounds on the quotient guarantee termination: every quotient
        exponent must lie, coordinate by coordinate, between the least
        exponent of a minus that of b and the greatest of a minus that of b.

        So every remainder key stays in the box of a's own exponents, and
        the remainder is kept on keys packed in that box (_fields), which
        never carry, with a lazy max-heap of them for the leading term.  The
        error carries the remainder at the point the division got stuck.
        """
        self._check_rank(divisor)
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return LaurentPoly.zero(self.rank)

        lead_b = max(divisor.terms)
        coef_b = divisor.terms[lead_b]
        cols = list(zip(zip(*self.terms), zip(*divisor.terms)))
        lo = [min(a) - min(b) for a, b in cols]
        hi = [max(a) - max(b) for a, b in cols]
        low_a, low_b = [min(a) for a, _ in cols], [min(b) for _, b in cols]
        fields = _fields(low_a, [max(a) - l for (a, _), l in zip(cols, low_a)])

        def pack(mono, lows):
            return sum((e - l) << s for e, l, (s, _, _) in zip(mono, lows, fields))

        def unpack(key):
            return tuple(((key >> s) & mask) + l for s, mask, l in fields)

        def remainder():
            dense = {unpack(key): c for key, c in rem.items() if c}
            return LaurentPoly._make(dense, self.rank)

        # A cancelled key keeps a 0: every key enters the heap once, when it
        # is first made, and none is made again once popped, since new keys
        # lie below the leading one.
        rem = {pack(m, low_a): c for m, c in self.terms.items()}
        get = rem.get
        heap = [-key for key in rem]
        heapify(heap)
        packed_b = [(pack(m, low_b), c) for m, c in divisor.terms.items()]
        lead_packed = pack(lead_b, low_b)
        quo = {}
        while heap:
            key = -heappop(heap)
            coef = rem[key]
            if not coef:
                continue
            qmono = tuple(map(sub, unpack(key), lead_b))
            if coef % coef_b:
                raise NonExactDivisionError(
                    "leading coefficient does not divide", remainder()
                )
            qcoef = coef // coef_b
            in_box = all(l <= x <= h for l, x, h in zip(lo, qmono, hi))
            if qmono[self.rank] < 0 or not in_box:
                raise NonExactDivisionError("non-exact Laurent division", remainder())
            quo[qmono] = qcoef
            # In the box, key - lead_packed is qmono less lo, packed without a
            # borrow, and adding a packed divisor key lands in a's box.
            qkey = key - lead_packed
            for bkey, bcoef in packed_b:
                k = qkey + bkey
                old = get(k)
                if old is None:
                    rem[k] = -qcoef * bcoef
                    heappush(heap, -k)
                else:
                    rem[k] = old - qcoef * bcoef
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
        named variable replaced by a number (anything Fraction accepts)."""
        binds = [(self._slot(name), Fraction(value)) for name, value in bindings.items()]
        acc: dict = {}
        for mono, coef in self.terms.items():
            rat = Fraction(coef)
            e = list(mono)
            for slot, value in binds:
                if e[slot]:
                    rat *= self._rational_power(value, e[slot])
                    e[slot] = 0
            key = tuple(e)
            acc[key] = acc[key] + rat if key in acc else rat
        return acc

    def substitute(self, bindings: Mapping[str, Union[int, Fraction]]) -> "LaurentPoly":
        """Exact substitution of numbers for variables.

        Keys are variable names ("z1", ..., "t", "q"); a name that is not a
        variable at this rank raises RankMismatchError.  A variable
        appearing with half-integer exponents needs a value with an exact
        square root (a square rational).  Raises SubstitutionError if the
        result would have fractional coefficients.
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
        """Inverse of str(): accepts exactly the text str() writes, up to
        surrounding whitespace, and raises ValueError on anything else."""
        text = text.strip()
        shell = LaurentPoly.zero(rank)  # owns the variable layout
        terms: dict = {}
        for chunk in text.split(" + "):
            coef, _, factors = chunk.partition(" * ")
            e = [0] * (rank + 2)
            for factor in factors.split():
                m = _FACTOR_RE.match(factor)
                if not m:
                    raise ValueError(f"bad factor {factor!r}")
                name, exp = m.groups()
                e[shell._slot(name)] = 2 if exp is None else _twice(exp)
            mono = tuple(e)
            terms[mono] = terms.get(mono, 0) + int(coef)
        # The round trip is the grammar check: str() writes "0" for zero and
        # each variable once per term, so a repeat, a second " * " or a
        # folded term comes back as other text.
        poly = LaurentPoly(terms, rank)
        if str(poly) != text:
            raise ValueError(f"{text!r} is not written as str() writes it")
        return poly


def prod(polys: Iterable[LaurentPoly], rank: int) -> LaurentPoly:
    out = LaurentPoly.one(rank)
    for p in polys:
        out = out * p
    return out
