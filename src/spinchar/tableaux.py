"""Symplectic shifted tableaux and their ribbon-strip statistics.

A tableau of shape mu' (strictly decreasing row lengths) is a shifted Young
diagram, row L starting at diagonal column L, filled from the alphabet
1' < 1 < 2' < 2 < ... < r' < r (m' is "barred m", encoded as 2m-1; plain m
as 2m, so the alphabet order is integer order).  Entries weakly increase
along rows and down columns and strictly increase along diagonals.

The pattern bijection reads, for each row L and value m, the counts
N_L(m') and N_L(m) of cells with entry <= m' (resp. <= m) directly off the
pattern: N_L(m) = a_{r-m, L+r-m} and N_L(m') = b_{r-m+1, L+r-m}, missing
entries counting 0.

Ribbon strips here are per-value: the cells holding one fixed symbol,
with horizontal/vertical cell adjacency; str(S) totals their connected
components over all symbols.  This matches the worked value 13 on the
running example and, over full sweeps, the statistic dictionary relating
tableaux to pattern statistics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .gtpatterns import GTPattern, add_weight_terms
from .laurent import LaurentPoly
from .rootdata import upsilon


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

    @property
    def shape(self) -> tuple:
        return tuple(len(row) for row in self.rows)

    def cells(self):
        for li, row in enumerate(self.rows):
            for ci, code in enumerate(row):
                yield (li + 1, li + 1 + ci, code)  # (row, absolute column, code)

    def validate(self) -> None:
        shape = self.shape
        assert all(
            shape[k] > shape[k + 1] for k in range(len(shape) - 1)
        ), "row lengths must strictly decrease"
        for li, row in enumerate(self.rows):
            if row:  # diagonal condition: row L starts with L' or L
                assert row[0] <= unbarred(li + 1), "diagonal entry too large"
        grid = {(row, col): code for row, col, code in self.cells()}
        for (row, col), code in grid.items():
            assert 1 <= code <= 2 * self.rank
            right = grid.get((row, col + 1))
            below = grid.get((row + 1, col))
            diag = grid.get((row + 1, col + 1))
            if right is not None:
                assert code <= right, "rows weakly increase"
            if below is not None:
                assert code <= below, "columns weakly increase"
            if diag is not None:
                assert code < diag, "diagonals strictly increase"

    def row_counts(self, code: int) -> list:
        return [sum(1 for c in row if c == code) for row in self.rows]

    def components(self, code: int) -> list:
        """Connected components (edge adjacency) of the cells holding code."""
        return _components({(row, col) for row, col, c in self.cells() if c == code})

    def pretty(self) -> str:
        lines = []
        width = max((len(symbol_name(c)) for _, _, c in self.cells()), default=1)
        for li, row in enumerate(self.rows):
            pad = " " * ((width + 1) * li)
            lines.append(pad + " ".join(symbol_name(c).rjust(width) for c in row))
        return "\n".join(lines)


def _components(cells: set) -> list:
    """Connected components (edge adjacency) of a set of (row, col) cells."""
    cells = set(cells)
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
    row_unbarred: tuple
    row_barred: tuple
    con_barred: tuple
    hgtbar: int
    l_values: tuple  # l_S(m) for m = 1..r
    l_total: int


def from_gt(p: GTPattern) -> Tableau:
    """The tableau whose cumulative row counts match the pattern entries."""
    r = p.rank

    def count_to(level_row, m, bar):
        # N_L(m') = b_{r-m+1, L+r-m};  N_L(m) = a_{r-m, L+r-m};  0 when absent.
        if m < level_row or m < 1:
            return 0
        if bar:
            return p.b(r - m + 1, level_row + r - m)
        return p.a(r - m, level_row + r - m)

    rows = []
    for level in range(1, r + 1):
        row = []
        for m in range(level, r + 1):
            nbar = count_to(level, m, True)
            nprev = count_to(level, m - 1, False)
            nfull = count_to(level, m, False)
            row.extend([barred(m)] * (nbar - nprev))
            row.extend([unbarred(m)] * (nfull - nbar))
        if row:
            rows.append(tuple(row))
    return Tableau(r, tuple(rows))


def to_gt(s: Tableau, r: int = None) -> GTPattern:
    """Inverse of from_gt; raises if the counts do not form a valid pattern."""
    if r is None:
        r = s.rank

    def n_of(level_row, code):
        if level_row - 1 >= len(s.rows):
            return 0
        return sum(1 for c in s.rows[level_row - 1] if c <= code)

    arows = []
    for i in range(r):
        lo = 1 if i == 0 else i + 1
        arows.append(
            tuple(n_of(j - i, unbarred(r - i)) for j in range(lo, r + 1))
        )
    brows = []
    for i in range(1, r + 1):
        brows.append(
            tuple(n_of(j - i + 1, barred(r - i + 1)) for j in range(i, r + 1))
        )
    p = GTPattern(r, tuple(arows), tuple(brows))
    p.validate()
    return p


def in_st_circle(s: Tableau) -> bool:
    """The two counting conditions carving out the circle subset of tableaux."""
    r = s.rank
    for m in range(2, r + 1):
        cnt_b = s.row_counts(barred(m))
        cnt_u = s.row_counts(unbarred(m))
        for li in range(len(s.rows)):
            if li + 1 == m:
                continue
            if (cnt_b[li] + cnt_u[li]) % 2:
                return False
    for m in range(1, r + 1):
        odd_rows = [
            li + 1 for li, c in enumerate(s.row_counts(unbarred(m))) if c % 2
        ]
        if len(odd_rows) > 1:
            return False
        if odd_rows and odd_rows[0] < m:
            row0 = odd_rows[0]
            counts = s.row_counts(unbarred(m))
            if any(counts[li] for li in range(row0, len(s.rows))):
                return False
            below = [
                (row, col)
                for row, col, c in s.cells()
                if c == barred(m) and row >= row0
            ]
            if below:
                comps = [
                    comp
                    for comp in s.components(barred(m))
                    if any(cell in comp for cell in below)
                ]
                if len(comps) != 1 or set().union(*comps) != set(below):
                    return False
    return True


def statistics(s: Tableau, partial: bool = False) -> TableauStats:
    """All tableau statistics; the row statistic l needs a circle member.

    With ``partial`` the l-values come back as None instead of raising when
    some symbol has several odd-count rows (tableau outside the circle).
    """
    r = s.rank
    # One pass over the cells: per-symbol cells and per-row counts.
    cells = {code: set() for code in range(1, 2 * r + 1)}
    rows = {code: [0] * len(s.rows) for code in cells}
    for row, col, code in s.cells():
        cells[code].add((row, col))
        rows[code][row - 1] += 1
    ncomp = {code: len(_components(cells[code])) for code in cells}
    str_total = sum(ncomp.values())
    x = tuple(len(cells[unbarred(m)]) for m in range(1, r + 1))
    xbar = tuple(len(cells[barred(m)]) for m in range(1, r + 1))
    wt = tuple(x[m - 1] - xbar[m - 1] for m in range(r, 0, -1))
    row_u = tuple(sum(1 for c in rows[unbarred(m)] if c) for m in range(1, r + 1))
    row_b = tuple(sum(1 for c in rows[barred(m)] if c) for m in range(1, r + 1))
    con_b = tuple(ncomp[barred(m)] for m in range(1, r + 1))
    hgtbar = sum(row_b[m] - con_b[m] - row_u[m] for m in range(r))
    l_values = []
    for m in range(1, r + 1):
        odd_rows = [li + 1 for li, c in enumerate(rows[unbarred(m)]) if c % 2]
        if len(odd_rows) > 1:
            if partial:
                l_values = None
                break
            raise ValueError("the row statistic needs a circle-subset tableau")
        l_values.append(odd_rows[0] if odd_rows else m)
    if l_values is not None:
        l_values = tuple(l_values)
    return TableauStats(
        str_total, x, xbar, wt, row_u, row_b, con_b, hgtbar, l_values,
        sum(l_values) if l_values is not None else None,
    )


def tableau_term(s: Tableau) -> LaurentPoly:
    """(-1)^(r(r+1)/2 - l) t^(hgtbar + l) (1+t)^(str - r) z^(-wt/2)."""
    r = s.rank
    st = statistics(s)
    sign = -1 if (r * (r + 1) // 2 - st.l_total) % 2 else 1
    base_t = st.hgtbar + st.l_total
    if base_t < 0:
        raise ValueError("negative t exponent; tableau outside the circle subset?")
    zexp = tuple(-w for w in st.wt)  # doubled exponents of z^(-wt/2)
    terms = {}
    add_weight_terms(terms, zexp, sign, base_t, st.str_total - r)
    return LaurentPoly._make(terms, r)


def corollary_rhs(lam, r: int = None) -> LaurentPoly:
    """Tableau-side sum over the circle subset of shape v(lam + rho)."""
    from .gtpatterns import enumerate_strict

    lam = tuple(lam)
    if r is None:
        r = len(lam)
    mu = tuple(l + 1 for l in lam)
    total = LaurentPoly.zero(r)
    for p in enumerate_strict(upsilon(mu)):
        s = from_gt(p)
        if not in_st_circle(s):
            continue
        total = total + tableau_term(s)
    return total


def tableau_json(s: Tableau) -> str:
    st = statistics(s, partial=True)
    record = {
        "rank": s.rank,
        "rows": [[symbol_name(c) for c in row] for row in s.rows],
        "shape": list(s.shape),
        "str": st.str_total,
        "x": list(st.x),
        "xbar": list(st.xbar),
        "wt": list(st.wt),
        "hgtbar": st.hgtbar,
        "l": list(st.l_values) if st.l_values is not None else None,
        "in_circle": in_st_circle(s),
    }
    return json.dumps(record, sort_keys=True)
