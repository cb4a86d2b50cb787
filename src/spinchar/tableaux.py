"""Symplectic shifted tableaux and their ribbon-strip statistics.

A tableau of shape mu' (strictly decreasing row lengths) is a shifted Young
diagram, row L starting at diagonal column L, filled from the alphabet
1' < 1 < 2' < 2 < ... < r' < r (m' is "barred m", encoded as 2m-1; plain m
as 2m, so the alphabet order is integer order).  Entries weakly increase
along rows and down columns and strictly increase along diagonals.

The pattern bijection is one count map (count_rows): for each row L and
value m, the counts N_L(m') and N_L(m) of cells with entry <= m' (resp.
<= m) are the pattern entries N_L(m) = a_{r-m, L+r-m} and N_L(m') =
b_{r-m+1, L+r-m}, missing entries counting 0.  to_gt builds its pattern
from the count rows and from_gt inverts them, writing each row as runs of
m' and m.  A tableau made by from_gt carries its pattern's rows, which
count_rows returns without counting; a tableau made from its cells alone
is counted, by bisection in its sorted rows.

The JSONL records (tableau_records, or tableau_json for one tableau) are
written by gtpatterns.prefix_walk over the strips: each strip's share of
the fields and of each row's text is made once, and prepended, as the walk
meets the symbols r..1.

Ribbon strips here are per-value: the cells holding one fixed symbol,
with horizontal/vertical cell adjacency; str(S) totals their connected
components over all symbols.  This matches the worked value 13 on the
running example and, over full sweeps, the statistic dictionary relating
tableaux to pattern statistics.

Every statistic is a sum over symbols of a share read off one strip: the
cells holding m' and m lie between the shifted shapes <= m-1, <= m' and
<= m, which are the count rows a_{r-m+1}, b_{r-m+1} and a_{r-m}, so the
strip of m is the pattern slice (a_{r-m}, b_{r-m+1}, a_{r-m+1}).  In one
row the cells of one symbol form a single run, and runs of adjacent rows
are connected exactly when their columns overlap, so components are
counted from runs.  score_strip gives a symbol's share, both
circle conditions for it included; symbol_strips scores the slices of a
tableau's count rows, and corollary_rhs sums over chains of shapes with
gtpatterns.slice_walk, scoring the same slices once each (_strip_key) and
never touching the pattern statistics.  Each strip's key and sign are its
shares of tableau_term's, and each circle strip's share of t is checked
to be nonnegative, so the walk returns gtpatterns.circle_sum's signed
tally {(w_1..w_r, 2t, n): count}, joined by laurent's product kernel, and
gtpatterns.expand_tally expands both.  The enumeration sum stays as the
oracle _corollary_rhs_by_enumeration.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import count
from typing import NamedTuple, Optional

from .gtpatterns import (
    GTPattern, enumerate_strict, expand_tally, fold, json_template, prefix_walk, slice_rows,
    slice_walk, slot,
)
from .laurent import LaurentPoly
from .rootdata import dominant, nonempty, shifted_weight, strictly_decreasing, top_row


def barred(m: int) -> int:
    return 2 * m - 1


def unbarred(m: int) -> int:
    return 2 * m


def symbol_name(code: int) -> str:
    m = (code + 1) // 2
    return f"{m}'" if code % 2 else str(m)


@dataclass(frozen=True)
class Tableau:
    rank: int
    rows: tuple  # rows[L-1] = tuple of entry codes; row L starts at column L
    # The count rows (arows, brows) of a tableau made by from_gt, which are
    # its pattern's rows; None otherwise.  count_rows returns them.
    _count_rows: Optional[tuple] = field(
        init=False, compare=False, repr=False, default=None)

    @property
    def shape(self) -> tuple:
        return tuple(len(row) for row in self.rows)

    def cells(self):
        for li, row in enumerate(self.rows):
            for ci, code in enumerate(row):
                yield (li + 1, li + 1 + ci, code)  # (row, absolute column, code)

    def validate(self) -> None:
        """Raise ValueError unless the filling is a symplectic shifted tableau."""
        # The shape, padded with zeros to length r, is the pattern's top row.
        shape = self.shape + (0,) * (self.rank - len(self.rows))
        if not strictly_decreasing(shape):
            raise ValueError("row lengths, padded to the rank, must strictly decrease")
        for li, row in enumerate(self.rows):
            # diagonal condition: row L starts with L' or L
            if row and not barred(li + 1) <= row[0] <= unbarred(li + 1):
                raise ValueError(f"row {li + 1} starts off its diagonal symbols")
        grid = {(row, col): code for row, col, code in self.cells()}
        for (row, col), code in grid.items():
            if not 1 <= code <= 2 * self.rank:
                raise ValueError(f"entry code {code} outside the alphabet")
            if code > min(grid.get((row, col + 1), code), grid.get((row + 1, col), code)):
                raise ValueError("rows and columns must weakly increase")
            if code >= grid.get((row + 1, col + 1), code + 1):
                raise ValueError("diagonals must strictly increase")

    def components(self, code: int) -> list:
        """Connected components (edge adjacency) of the cells holding code.

        A breadth-first search over cells, kept as the oracle of the run
        count in score_strip.
        """
        cells = {(row, col) for row, col, c in self.cells() if c == code}
        comps = []
        while cells:
            seed = cells.pop()
            comp = {seed}
            frontier = [seed]
            while frontier:
                row, col = frontier.pop()
                for nxt in ((row, col - 1), (row, col + 1), (row - 1, col), (row + 1, col)):
                    if nxt in cells:
                        cells.remove(nxt)
                        comp.add(nxt)
                        frontier.append(nxt)
            comps.append(comp)
        return comps


@dataclass(frozen=True)
class TableauStats:
    str_total: int
    x: tuple  # x[m-1] = count of unbarred m
    xbar: tuple  # xbar[m-1] = count of barred m
    wt: tuple  # (x_r - xbar_r, ..., x_1 - xbar_1)
    hgtbar: int
    l_values: Optional[tuple]  # l_S(m) for m = 1..r; None outside the circle
    l_total: Optional[int]


def count_rows(s: Tableau) -> tuple:
    """The pattern rows (arows, brows) counted off s: the count map.

    Row a_{r-m} holds N_L(m) and row b_{r-m+1} holds N_L(m'), the cells of
    row L = 1..m with entry <= m (resp. <= m'); missing rows count 0.
    Raises ValueError when a row starts below its diagonal symbol L'.  A
    tableau made by from_gt carries its pattern's rows, which are returned
    without counting.
    """
    if s._count_rows is not None:
        return s._count_rows
    r, rows = s.rank, s.rows
    for li, row in enumerate(rows):
        if row and row[0] < barred(li + 1):
            raise ValueError(f"row {li + 1} holds a symbol below {li + 1}'")
    rows = tuple(rows) + ((),) * (r - len(rows))  # missing rows count 0
    ms = range(r, 0, -1)
    return (
        tuple([tuple([bisect_right(row, unbarred(m)) for row in rows[:m]]) for m in ms]),
        tuple([tuple([bisect_right(row, barred(m)) for row in rows[:m]]) for m in ms]),
    )


def from_gt(p: GTPattern) -> Tableau:
    """The tableau whose count rows are the pattern's rows, which it carries.

    Row L holds, for m = L..r, N_L(m') - N_L(m-1) cells m' (code 2m-1) and
    N_L(m) - N_L(m') cells m (code 2m), written as runs.
    """
    r, arows, brows = p.rank, p.arows, p.brows
    rows = []
    for li in range(r):  # row L = li + 1 holds the symbols m >= L
        row = ()
        nprev = 0  # N_L(m-1)
        for m in range(li + 1, r + 1):
            nbar, nfull = brows[r - m][li], arows[r - m][li]
            row += (2 * m - 1,) * (nbar - nprev) + (2 * m,) * (nfull - nbar)
            nprev = nfull
        if row:
            rows.append(row)
    s = Tableau(r, tuple(rows))
    object.__setattr__(s, "_count_rows", (arows, brows))  # frozen
    return s


def to_gt(s: Tableau) -> GTPattern:
    """Inverse of from_gt; ValueError unless the rows weakly increase, the
    counts hold every cell and they form a valid pattern."""
    if any(x > y for row in s.rows for x, y in zip(row, row[1:])):
        raise ValueError("rows must weakly increase")
    p = GTPattern(s.rank, *count_rows(s))
    if sum(p.arows[0]) != sum(s.shape):
        raise ValueError(f"entries must lie in the alphabet 1'..{s.rank}")
    p.validate()
    return p


class Strip(NamedTuple):
    """Symbol m's share of the tableau statistics, read off its strip."""

    x: int  # cells holding m
    xbar: int  # cells holding m'
    row_u: int  # rows holding m
    row_b: int  # rows holding m'
    con_u: int  # components of the cells holding m
    con_b: int  # components of the cells holding m'
    l: Optional[int]  # the one row with an odd count of m, else m; None if several
    in_circle: bool  # both circle conditions for m


def _run_components(runs) -> int:
    """Components of one run per row, [start, stop) columns, rows in order.

    Runs of adjacent rows connect exactly when their columns overlap, and
    only adjacent rows touch, so components = runs - overlapping pairs.
    """
    n = 0
    prev = None
    for start, stop in runs:
        if start < stop:
            n += 1
            if prev is not None and prev[0] < stop and start < prev[1]:
                n -= 1
            prev = (start, stop)
        else:
            prev = None
    return n


def score_strip(hi: tuple, mid: tuple, lo: tuple) -> Strip:
    """Symbol m's strip between the shapes <= m-1, <= m' and <= m.

    Row L (L = 1..m) holds hi[L-1] cells <= m, mid[L-1] cells <= m' and
    lo[L-1] cells <= m-1 (lo has m-1 entries: row m holds nothing below
    m').  Row L starts at column L, so m' fills columns L + lo_L ..
    L + mid_L - 1 and m fills L + mid_L .. L + hi_L - 1.  The circle
    conditions for m: (1) every row L != m holds an even number of m' and
    m together; (2) when the first row L0 with an odd number of m lies
    above row m, no row below L0 holds m (so L0 is the only such row) and
    the m' cells in rows >= L0 form one component that does not reach
    row L0 - 1.
    """
    m = len(hi)
    lo = lo + (0,)
    rows = range(m)  # row L = k + 1 starts at column k + 1
    bar = [(k + lo[k], k + mid[k]) for k in rows]
    con_b = _run_components(bar)
    odd = [k for k in rows if (hi[k] - mid[k]) % 2]
    circle = all((hi[k] - lo[k]) % 2 == 0 for k in rows[:-1])
    if circle and odd and odd[0] < m - 1:
        k0 = odd[0]
        if any(hi[k] > mid[k] for k in rows[k0 + 1:]):
            circle = False
        elif any(mid[k] > lo[k] for k in rows[k0:]):
            below = _run_components(bar[k0:])
            circle = below == 1 and _run_components(bar[:k0]) + below == con_b
    return Strip(
        sum(hi) - sum(mid),
        sum(mid) - sum(lo),
        sum(1 for k in rows if hi[k] > mid[k]),
        sum(1 for k in rows if mid[k] > lo[k]),
        _run_components([(k + mid[k], k + hi[k]) for k in rows]),
        con_b,
        (odd[0] + 1 if odd else m) if len(odd) <= 1 else None,
        circle,
    )


@lru_cache(maxsize=1 << 16)
def _strip(hi: tuple, mid: tuple, lo: tuple) -> Strip:
    """A shared strip: the tableaux of one top have few distinct strips
    (618 among the 15,288 tableaux of top (2,2,2)), so each is scored once."""
    return score_strip(hi, mid, lo)


def symbol_strips(s: Tableau) -> tuple:
    """strips[m-1] = score_strip of symbol m, over the slices of s's count rows
    (slice i is the strip of symbol r - i + 1)."""
    strips = [_strip(*rows) for rows in slice_rows(*count_rows(s))]
    return tuple(reversed(strips))


def in_st_circle(s: Tableau) -> bool:
    """The two counting conditions carving out the circle subset of tableaux."""
    return all(st.in_circle for st in symbol_strips(s))


def statistics(s: Tableau) -> TableauStats:
    """All tableau statistics; the row statistic l needs a circle member."""
    st = _statistics(symbol_strips(s))
    if st.l_values is None:
        raise ValueError("the row statistic needs a circle-subset tableau")
    return st


def _statistics(strips: tuple) -> TableauStats:
    """The statistics summed over the symbols' strips.  The l-values are
    None when some symbol has several odd-count rows (outside the circle)."""
    x, xbar, row_u, row_b, con_u, con_b, l_values, _ = zip(*strips)
    wt = tuple(a - b for a, b in zip(reversed(x), reversed(xbar)))
    hgtbar = sum(row_b) - sum(con_b) - sum(row_u)
    if None in l_values:
        l_values = None
    return TableauStats(
        sum(con_u) + sum(con_b), x, xbar, wt, hgtbar,
        l_values, sum(l_values) if l_values is not None else None,
    )


def tableau_term(s: Tableau) -> LaurentPoly:
    """(-1)^(r(r+1)/2 - l) t^(hgtbar + l) (1+t)^(str - r) z^(-wt/2): the tally
    key (wt, 2t, str - r), t = hgtbar + l, counts (-1)^(r(r+1)/2 - l + t)."""
    st = statistics(s)
    r, t = s.rank, st.hgtbar + st.l_total
    sign = -1 if (r * (r + 1) // 2 - st.l_total + t) % 2 else 1
    return expand_tally({(*st.wt, 2 * t, st.str_total - r): sign}, r)


def _strip_key(hi: tuple, mid: tuple, lo: tuple):
    """((wt share, 2 t_m, str share - 1), (-1)^(m - l + t_m)) of a circle
    strip of symbol m, t_m = row_b - con_b - row_u + l, else None.

    Along a chain they sum (and multiply) to tableau_term's key and sign:
    r(r+1)/2 is the sum of the m, and str - r of the (con_u + con_b - 1).
    A circle strip with t_m < 0 raises ValueError, so no chain's t is
    negative.
    """
    st = score_strip(hi, mid, lo)
    if not st.in_circle:
        return None
    t = st.row_b - st.con_b - st.row_u + st.l
    if t < 0:
        raise ValueError(f"negative t exponent on the strip of symbol {len(hi)}")
    sign = -1 if (len(hi) - st.l + t) % 2 else 1
    return (st.x - st.xbar, 2 * t, st.con_u + st.con_b - 1), sign


def corollary_rhs(lam, r: int = None) -> LaurentPoly:
    """Tableau-side sum over the circle subset of shape v(lam + rho).

    A transfer over chains of shifted shapes (the a-rows of the pattern
    bijection): each strip between consecutive shapes is scored once by
    score_strip, and its shares of wt, t, str and the sign are summed along
    the chain by gtpatterns.slice_walk into the same tally as
    gtpatterns.circle_sum, then expanded by gtpatterns.expand_tally.  lam
    must be dominant of rank r.
    """
    lam = dominant(lam, r)
    top = top_row(shifted_weight(lam))
    return expand_tally(slice_walk(top, _strip_key), len(lam))


def _corollary_rhs_by_enumeration(lam, r: int = None) -> LaurentPoly:
    """corollary_rhs by enumerating every pattern and tableau (the oracle)."""
    lam = dominant(lam, r)
    total = LaurentPoly.zero(len(lam))
    for p in enumerate_strict(shifted_weight(lam)):
        s = from_gt(p)
        if not in_st_circle(s):
            continue
        total = total + tableau_term(s)
    return total


def tableau_json(s: Tableau) -> str:
    """The tableau's JSONL record: tableau_records' fold over its count rows."""
    return fold(*count_rows(s), _tableau_parts)[1]


@lru_cache(maxsize=256)
def _tableau_template(r: int, n: int) -> str:
    """tableau_json's template for rank r and n rows, its fields in walk order:
    shape; x, xbar, wt of m = r..1; r row texts (n used); str; hgtbar; l; in_circle."""
    slots = map(slot, count())
    shape = [next(slots) for _ in range(n)]
    by_m = [[next(slots) for _ in "xbw"] for m in range(r, 0, -1)]
    return json_template({
        "rank": r, "shape": shape, "x": [f[0] for f in by_m[::-1]],
        "xbar": [f[1] for f in by_m[::-1]], "wt": [f[2] for f in by_m],
        "rows": [[next(slots)] for _ in range(r)][:n],
        "str": next(slots), "hgtbar": next(slots), "l": next(slots), "in_circle": next(slots),
    })


def _tableau_share(r: int, hi: tuple, mid: tuple, lo: tuple) -> tuple:
    """Symbol m's share of a rank-r tableau record, m = len(hi): its x, xbar
    and wt, the text of its cells in each row (led by ", ", as the walk
    prepends it), its shares of str and hgtbar, its l and its circle flag."""
    st, m = _strip(hi, mid, lo), len(hi)
    bar, full = (", " + json.dumps(symbol_name(c)) for c in (barred(m), unbarred(m)))
    cells = [bar * (v - w) + full * (h - v) for h, v, w in zip(hi, mid, lo + (0,))]
    return ((st.x, st.xbar, st.x - st.xbar), (*cells, *[""] * (r - m)),
            st.con_u + st.con_b, st.row_b - st.con_b - st.row_u, st.l, st.in_circle)


def _tableau_step(prefix, share) -> tuple:
    """A tableau prefix joined to the strip of the next smaller symbol."""
    fields, rows, strt, hgt, ls, circle = prefix
    more, cells, dstr, dhgt, l, kept = share
    return (fields + more, tuple(map(str.__add__, cells, rows)), strt + dstr, hgt + dhgt,
            (l, *ls), circle and kept)


def _tableau_parts(top) -> tuple:
    """prefix_walk's share, step, leaf and start of tableau records under top."""
    r, shape = len(top), tuple(v for v in top if v)
    fmt = _tableau_template(r, len(shape)).format

    def leaf(prefix):
        fields, rows, strt, hgt, ls, circle = prefix
        l = "null" if None in ls else str(list(ls))  # str of an int list is its JSON
        return circle, fmt(*fields, *[row[2:] for row in rows], strt, hgt, l,
                           "true" if circle else "false")

    return partial(_tableau_share, r), _tableau_step, leaf, (shape, ("",) * r, 0, 0, (), True)


def tableau_records(mu):
    """(in_circle, JSONL record) of each tableau from enumerate_strict(mu), in its order."""
    return prefix_walk(top_row(nonempty(mu)), _tableau_parts)
