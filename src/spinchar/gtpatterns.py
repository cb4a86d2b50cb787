"""Strict Gelfand-Tsetlin patterns of type C with decorations and statistics.

A rank-r pattern has 2r rows: a_0 (length r), b_1 (length r), a_1 (length
r-1), b_2 (length r-1), ..., a_{r-1} (length 1), b_r (length 1).  Entry
a_{i,j} exists for i+1 <= j <= r (a_0: 1 <= j <= r); b_{i,j} for
i <= j <= r.  Adjacent rows interleave, every row strictly decreases, and
every a-row below the top ends positively (a_{i,r} >= 1 for i >= 1).  The
last condition is the pattern-side image of the diagonal condition on
symplectic shifted tableaux (row L of the tableau starts with L' or L);
dropping it provably breaks the deformed-denominator identity on weights
with even last coordinate.

Entry classes follow the conventions used throughout this artifact:
an a-entry is maximal when it equals its upper-right neighbour b_{i,j} and
minimal when it equals b_{i,j-1}; a b-entry is maximal when it equals
a_{i-1,j}, minimal when it equals a_{i-1,j+1} (or is zero when j = r).
Both conditions can hold only in the corner b_{i,r} = a_{i-1,r} = 0
(degenerate top rows); the entry then counts as minimal, matching the
rank-one weight table at b = mu = 0.

Classes, statistics, wt_i and both circle tests of an entry in row b_i or
a_i depend only on the slice (a_{i-1}, b_i, a_i), a ShortGTPattern, where
they are defined once per distinct slice; a GTPattern sums or conjoins them
over its slices.  The slice is also the unit of generation and validation:
_slices_below yields every slice below an a-row, for enumerate_strict and
slice_walk alike, and GTPattern.validate checks slice by slice.  Circle
membership is decided per slice by one guard, _in_circle: a slice is kept
when its c-statistics are even, and below an a-row of one parity its
row-parity test must agree.  in_gt_circle conjoins the guard over a
pattern's slices; circle_sum scores slices with it in slice_walk, a
transfer over a-rows whose join is laurent's product kernel on flat keys
(w_1..w_r, 2t, n), and refuses a kept slice with odd max1.  The
tableau-side sum runs the same walk with its own per-slice scorer, which
refuses a negative share of t, and both sides come out as the same signed
tally {(w_1..w_r, 2t, n): count}, nonzero counts only, which expand_tally
expands.  enumerate_strict with in_gt_circle is the independent oracle.

Records are written from str.format templates, made once per rank by
json_template from a skeleton record, so json still sets the key order
and separators; GTPattern.to_json fills its template from the slices'
entries in slice order, and tableaux.tableau_json uses the same helper.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import count
from math import comb
from typing import NamedTuple

from .laurent import LaurentPoly, Monomial, mul_terms
from .rootdata import dominant, shifted_weight, strictly_decreasing, top_row

MAXIMAL = "maximal"
MINIMAL = "minimal"
GENERIC = "generic"


def slice_rows(arows, brows):
    """The slices (a_{i-1}, b_i, a_i), i = 1..r, of a pattern's rows; a_r = ()."""
    return zip(arows, brows, (*arows[1:], ()))


@dataclass(frozen=True)
class GTPattern:
    rank: int
    arows: tuple  # arows[i] = row a_i, entries a_{i,i+1..r} (a_0: j=1..r)
    brows: tuple  # brows[i-1] = row b_i, entries b_{i,i..r}

    def rows(self) -> list:
        """Rows in display order a_0, b_1, a_1, ..., b_r."""
        return [row for pair in zip(self.arows, self.brows) for row in pair]

    def validate(self) -> None:
        """Raise ValueError unless the rows form a strict pattern: a strictly
        decreasing top row of length r, and every slice one of _slices_below."""
        r, arows, brows = self.rank, self.arows, self.brows
        if not (r >= 1 and len(arows) == len(brows) == r == len(arows[0])
                and strictly_decreasing(arows[0])):
            raise ValueError(f"no rank-{r} pattern has the rows {arows}, {brows}")
        for rows in slice_rows(arows, brows):
            if not _is_slice(*rows):
                raise ValueError(f"{rows} is not a slice of a strict pattern")

    # -- decorations -------------------------------------------------------

    @cached_property
    def slices(self) -> tuple:
        """slices[i-1] = rows a_{i-1}, b_i, a_i as a ShortGTPattern of rank r-i+1."""
        return tuple([
            _slice(a0, b, a1)
            for a0, b, a1 in slice_rows(self.arows, self.brows)
        ])

    def classify(self) -> dict:
        """Class of every entry below the top row, keyed ('a'|'b', i, j)."""
        return {
            (kind, i, j + i - 1): cls
            for i, s in enumerate(self.slices, 1)
            for (kind, j), (cls, _) in s.entries.items()
        }

    def stats(self) -> "PatternStats":
        return PatternStats(*map(sum, zip(*(s.stats() for s in self.slices))))

    def wt(self) -> tuple:
        """wt_i = sum(row a_{i-1}) - 2 sum(row b_i) + sum(row a_i)."""
        return tuple(s.wt1() for s in self.slices)

    def to_json(self) -> str:
        """The pattern's JSONL record: _pattern_template(rank) filled with
        its rows, statistics, weight, circle flag and, slice by slice, the
        (class, c-statistic) of each entry."""
        values = [v for row in self.rows() for v in row]
        values += self.stats()
        values += self.wt()
        values.append("true" if in_gt_circle(self) else "false")
        for s in self.slices:
            for cls, c in s.entries.values():
                values += (_QUOTED[cls], c)
        return _pattern_template(self.rank).format(*values)


class PatternStats(NamedTuple):
    gen: int
    max: int
    max0: int
    max1: int


@dataclass(frozen=True)
class ShortGTPattern:
    """Top three rows a_0, b_1, a_1 of a rank-r pattern (a_1 length r-1).

    This is also the slice type of a full pattern: rows a_{i-1}, b_i, a_i of
    a rank-r pattern form a rank r-i+1 short pattern (a_1 empty at rank 1).
    Entry classes, statistics and both circle tests are local to a slice.
    """

    a0: tuple
    b1: tuple
    a1: tuple
    # Derived once, when the slice is made, and read-only (slices are shared):
    # {(kind, j): (class, c-statistic)} for the entries of b_1 and a_1, the
    # statistics, both circle flags, and whether a_0 has one parity.
    entries: dict = field(init=False, repr=False, compare=False)
    _stats: PatternStats = field(init=False, repr=False, compare=False)
    _even: bool = field(init=False, repr=False, compare=False)
    _rows: bool = field(init=False, repr=False, compare=False)
    _one_parity: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a0, b1, a1 = self.a0, self.b1, self.a1
        r = len(a0)
        cb, ca = c_stats(a0, b1, a1)
        entries = {}
        for j in range(1, r + 1):
            v = b1[j - 1]
            if (v == a0[j]) if j < r else (v == 0):
                cls = MINIMAL  # zero right-edge entries stay minimal
            elif v == a0[j - 1]:
                cls = MAXIMAL
            else:
                cls = GENERIC
            entries[("b", j)] = (cls, cb[j - 1])
            if j >= 2:
                v = a1[j - 2]
                if v == b1[j - 1]:
                    cls = MAXIMAL
                elif v == b1[j - 2]:
                    cls = MINIMAL
                else:
                    cls = GENERIC
                entries[("a", j)] = (cls, ca[j - 2])
        gen = nmax = max1 = 0
        even = True
        for cls, c in entries.values():
            if cls == GENERIC:
                gen += 1
                even = even and c % 2 == 0
            elif cls == MAXIMAL:
                nmax += 1
                max1 += c % 2
        ref = a0[-1] % 2
        bad = [j for j in range(r) if b1[j] % 2 != ref]
        rows = all(v % 2 == ref for v in a1) and (
            not bad or len(bad) == 1
            and all(b1[j] == a1[j - 1] == a0[j] for j in range(bad[0] + 1, r))
        )
        self.__dict__.update(  # frozen: bypass __setattr__
            entries=entries,
            _stats=PatternStats(gen, nmax, nmax - max1, max1),
            _even=even,
            _rows=rows,
            _one_parity=all(v % 2 == ref for v in a0),
        )

    @property
    def rank(self) -> int:
        """r = len(a_0): the rank is read off the top row, not stored."""
        return len(self.a0)

    def stats(self) -> PatternStats:
        return self._stats

    def in_circle(self) -> bool:
        """Every generic entry has an even statistic."""
        return self._even

    def in_circle_by_row_parity(self) -> bool:
        """The slice's share of the row-parity characterization.

        With parity reference a_{0,r} mod 2: every a_1 entry has that
        parity, and b_1 has at most one entry b_{1,j0} off it, right of
        which b_{1,j} = a_{1,j} = a_{0,j}.
        """
        return self._rows

    def wt1(self) -> int:
        return sum(self.a0) - 2 * sum(self.b1) + sum(self.a1)


def c_stats(a0, b1, a1) -> tuple:
    """The c-statistics ([c(b_{1,1}), ..., c(b_{1,r})], [c(a_{1,2}), ...,
    c(a_{1,r})]) of the slice (a_0, b_1, a_1), in one pass.

    c(a_{1,j}) = sum_{m<j} (b_{1,m} - a_{1,m+1}), and c(b_{1,j}) adds
    sum_{k>j} (a_{0,k} + a_{1,k}); empty sums are 0.
    """
    cb, ca = [], []
    c, tail = 0, sum(a0) - a0[0] + sum(a1)
    for a, b, x in zip(a0[1:], b1, a1):
        cb.append(c + tail)
        c += b - x
        tail -= a + x
        ca.append(c)
    cb.append(c + tail)
    return cb, ca


@lru_cache(maxsize=1 << 16)
def _slice(a0: tuple, b1: tuple, a1: tuple) -> ShortGTPattern:
    """A shared slice: the patterns of one top have few distinct slices
    (618 among the 15,288 patterns of top (2,2,2)), so each is built once."""
    return ShortGTPattern(a0, b1, a1)


# -- records -----------------------------------------------------------------


def json_template(skeleton: dict) -> str:
    """A str.format template of json.dumps(record, sort_keys=True).

    ``skeleton`` is a record with slot(k) in place of each value that
    varies; value k of the format call must be that value's JSON text.  Key
    order and separators come from json, so names sort as strings
    ("a10,10" before "a2,2").
    """
    text = json.dumps(skeleton, sort_keys=True).replace("{", "{{").replace("}", "}}")
    return re.sub(r'"\\u0000(\d+)"', r"{\1}", text)


def slot(k: int) -> str:
    """The skeleton value that json_template turns into format field k."""
    return f"\0{k}"


_QUOTED = {cls: json.dumps(cls) for cls in (MAXIMAL, MINIMAL, GENERIC)}


@lru_cache(maxsize=64)
def _pattern_template(r: int) -> str:
    """GTPattern.to_json's template at rank r.  Its fields are the rows in
    display order, stats, wt, in_circle, then (class, c-statistic) of each
    entry, slice by slice in ShortGTPattern.entries order."""
    slots = map(slot, count())
    rows = [[next(slots) for _ in range(n)] for n in range(r, 0, -1) for _ in "ab"]
    record = {
        "rank": r,
        "rows": rows,
        "stats": [next(slots) for _ in PatternStats._fields],
        "wt": [next(slots) for _ in range(r)],
        "in_circle": next(slots),
        "classes": {},
        "cstats": {},
    }
    for i in range(1, r + 1):  # slice i = rows a_{i-1}, b_i, a_i
        keys = [("b", 1)] + [(kind, j) for j in range(2, r - i + 2) for kind in "ba"]
        for kind, j in keys:
            name = f"{kind}{i},{j + i - 1}"
            record["classes"][name] = next(slots)
            record["cstats"][name] = next(slots)
    return json_template(record)


# -- enumeration -----------------------------------------------------------


def _interleavings(upper, length, last_floor=0):
    """Strictly decreasing rows fitting below ``upper``; descending lex order.

    Slot k (0-based) is bounded above by upper[k] (and strict decrease) and
    below by upper[k+1] when that exists, else 0; the final slot is bounded
    below by ``last_floor``.
    """
    if not length:  # below a one-entry row; saves a generator per leaf
        yield ()
        return
    yield from _fill_slots(upper, length, last_floor, 0, [])


def _fill_slots(upper, length, last_floor, k, prefix):
    """The rows of _interleavings(upper, length, last_floor) that extend
    prefix, its slots 0..k-1 filled; descending lex order.  A module-level
    recursion, so no call leaves a closure cycle for the gc."""
    if k == length:
        yield tuple(prefix)
        return
    ub = upper[k]
    if prefix:
        ub = min(ub, prefix[-1] - 1)
    lb = upper[k + 1] if k + 1 < len(upper) else 0
    if k == length - 1:
        lb = max(lb, last_floor)
    for v in range(ub, lb - 1, -1):
        prefix.append(v)
        yield from _fill_slots(upper, length, last_floor, k + 1, prefix)
        prefix.pop()


def _is_slice(a0, b, a1) -> bool:
    """Whether (b, a1) is one of _slices_below(a0)."""
    return (
        len(b) == len(a0) == len(a1) + 1
        and strictly_decreasing(b) and strictly_decreasing(a1)
        and all(hi >= v >= lo for hi, v, lo in zip(a0, b, (*a0[1:], 0)))
        and all(hi >= v >= lo for hi, v, lo in zip(b, a1, b[1:]))
        and (not a1 or a1[-1] >= 1)
    )


def _slices_below(arow):
    """(b, a1) of every slice (arow, b, a1) of a strict pattern; descending lex.

    b fits below the a-row, a1 below b, and a1 ends positively (the
    pattern-side diagonal condition); a1 is empty below a one-entry a-row.
    """
    n = len(arow)
    for b in _interleavings(arow, n):
        for a1 in _interleavings(b, n - 1, last_floor=1):
            yield b, a1


def enumerate_strict(mu):
    """All strict interleaving patterns with top row built from mu.

    Deterministic order: row-major, entries descending.  The stream is empty
    when the top row itself is not strictly decreasing.
    """
    top = top_row(mu)
    if strictly_decreasing(top):
        yield from _patterns_below(len(top), (top,), ())


def _patterns_below(r, arows, brows):
    """The rank-r patterns whose first rows are arows and brows, in
    enumerate_strict's order; a module-level recursion (no closure cycle)."""
    for b, a1 in _slices_below(arows[-1]):
        if a1:
            yield from _patterns_below(r, arows + (a1,), brows + (b,))
        else:
            yield GTPattern(r, arows, brows + (b,))


# -- the circle subset ------------------------------------------------------


def gt_circle_by_cstat(p: GTPattern) -> bool:
    """Membership by definition: every generic entry has an even statistic."""
    return all(s.in_circle() for s in p.slices)


def gt_circle_by_row_parity(p: GTPattern) -> bool:
    """The two-condition characterization (valid over doubled top rows).

    With parity reference mu_r = a_{0,r}: (1) all a-entries below the top
    row match that parity; (2) each b-row has at most one mismatched entry
    b_{i,j0}, and to its right b_{i,j} = a_{i,j} = a_{i-1,j} for all j > j0.
    Each slice tests against its own a_{i-1,r}; along slices that pass,
    that is mu_r's parity, so the conjunction is the same.
    """
    return all(s.in_circle_by_row_parity() for s in p.slices)


def _in_circle(s: ShortGTPattern) -> bool:
    """Whether a slice keeps its patterns in the circle subset: its
    c-statistics are even.

    When a_0 has one parity, the row-parity test must agree; disagreement
    is an internal failure.  Every a-row that a doubled top reaches
    through kept slices has one parity.
    """
    even = s.in_circle()
    if s._one_parity and s.in_circle_by_row_parity() != even:
        raise RuntimeError(f"circle-membership characterizations disagree on {s}")
    return even


def in_gt_circle(p: GTPattern) -> bool:
    """Circle-subset membership: _in_circle on every slice, top slice first."""
    return all(_in_circle(s) for s in p.slices)


def enumerate_circle(mu):
    for p in enumerate_strict(mu):
        if in_gt_circle(p):
            yield p


def slice_walk(top, score) -> dict:
    """{(w_1..w_r, a, b): signed count} over the strict patterns of top ``top``.

    A transfer over a-rows: a pattern is a chain of slices (a_{i-1}, b_i,
    a_i), so the rows below an a-row are summed once (memoized on the a-row)
    and joined to each slice above it.  ``score(a0, b1, a1)`` gives one
    slice's ((w, a, b), +-1), or None to drop the slice.  Slice i is keyed
    in laurent's flat layout, w in slot i and a, b in the last two, so a
    pattern's key, the sum of its slices' keys, counts the product of their
    signs, and one laurent.mul_terms call per a-row joins its slice tallies
    to the rows below, one pair per next a-row, dropping keys whose counts
    cancel.  A guard on the statistics belongs in ``score``, which sees
    every slice.  There are no patterns (and the result is empty) when the
    top row is not strictly decreasing.
    """
    top = tuple(top)
    if not strictly_decreasing(top):
        return {}
    r = len(top)
    memo = {(): {(0,) * (r + 2): 1}}

    def below(arow):
        if arow in memo:
            return memo[arow]
        lead, tail = (0,) * (r - len(arow)), (0,) * (len(arow) - 1)
        by_a1 = {}  # slice tallies grouped by the next a-row
        for b1, a1 in _slices_below(arow):
            scored = score(arow, b1, a1)
            if scored is None:
                continue
            (w, a, b), sign = scored
            key = (*lead, w, *tail, a, b)
            tally = by_a1.setdefault(a1, {})
            tally[key] = tally.get(key, 0) + sign
        memo[arow] = mul_terms([(tally, below(a1)) for a1, tally in by_a1.items()])
        return memo[arow]

    tally = below(top)
    del below  # it refers to itself: the cycle would keep the memo until a gc pass
    return tally


def circle_sum(mu) -> dict:
    """Statistics of the circle subset for top row from mu, without enumerating.

    Returns {(*wt, 2 max - max1, gen): sum of (-1)^max}, the same tally as
    over enumerate_circle(mu), by slice_walk: every input to a pattern's
    weight lives in one slice, and a slice is kept by the same guard,
    _in_circle, that in_gt_circle reads, on the slices in_gt_circle reaches.
    Expanded (expand_tally), it is the sum of G(P) z^(-wt/2), as
    (-1)^(max1/2) = (-1)^max (-1)^(max - max1/2).  That needs max1 even,
    which is checked on every kept slice, so on every circle pattern.
    """
    top = top_row(mu)

    def score(a0, b1, a1):
        s = ShortGTPattern(a0, b1, a1)
        if not _in_circle(s):
            return None
        st = s.stats()
        if st.max1 % 2:  # raised, not asserted, so that python -O keeps it
            raise AssertionError(f"odd max1 in circle subset under top row {top}")
        return (s.wt1(), 2 * st.max - st.max1, st.gen), -1 if st.max % 2 else 1

    return slice_walk(top, score)


# -- weights ----------------------------------------------------------------


def expand_tally(tally: dict, rank: int) -> LaurentPoly:
    """The sum of c (-1)^t t^t (1+t)^n z^(-wt/2) over a tally {(*wt, 2t, n): c}.

    Both sides of the identity are such tallies: circle_sum on patterns and
    the strip walk of tableaux.corollary_rhs on tableaux.  Their walks check
    each slice's share of t; every key here is checked again, for the
    one-key tallies of g_weight and tableau_term.
    """
    terms = {}
    for key, count in tally.items():
        twice_t, n = key[-2:]
        if twice_t < 0:
            raise ValueError("negative t exponent; a term outside the circle subset?")
        t = twice_t // 2
        coef = -count if t % 2 else count
        zexp = tuple(-w for w in key[:-2])  # doubled exponent of -wt/2
        for jj in range(n + 1):
            mono = Monomial(zexp, t + jj, 0)
            terms[mono] = terms.get(mono, 0) + coef * comb(n, jj)
    return LaurentPoly._make({m: c for m, c in terms.items() if c}, rank)


def g_weight(p) -> LaurentPoly:
    """(-1)^(max1/2) t^(max - max1/2) (1+t)^gen, as a rank-r polynomial in t,
    of a GTPattern or of a three-row ShortGTPattern."""
    st = p.stats()
    if st.max1 % 2:
        raise ValueError(f"odd max1 statistic ({st.max1}); restrict to the circle subset")
    key = (*(0,) * p.rank, 2 * st.max - st.max1, st.gen)
    return expand_tally({key: -1 if st.max % 2 else 1}, p.rank)


def tokuyama_rhs(lam, r: int = None) -> LaurentPoly:
    """Sum of G(P) z^(-wt(P)/2) over the circle subset for top row v(lam+rho).

    Expanded from circle_sum, so the two circle characterizations are
    cross-checked on every slice the walk scores, and the evenness of max1
    on every slice it keeps.  lam must be dominant of rank r.
    """
    lam = dominant(lam, r)
    return expand_tally(circle_sum(shifted_weight(lam)), len(lam))

