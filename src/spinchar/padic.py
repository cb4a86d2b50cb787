"""Exponential sums at a fixed prime and their decorated-array evaluations.

A short pattern is a (2r-1)-tuple of p-adic orders d = (d_1, ..., d_{2r-1})
attached to an r-tuple mu of positive integers (mu_i = m_i + 1).  The module
provides

* a brute-force oracle for the normalized character sum G(t), evaluated
  exactly: one table of the summand's terms gives the residue periods and
  an integer phase grid, reduced mod p^cap once; the counts of its phases
  are reduced by the cyclotomic relation to a rational number.  The grid
  spans only the residue axes read by the terms that do not vanish mod
  p^cap, and its count is scaled by the sizes of the unread axes; the
  budget still counts every residue tuple;
* the decorated accumulation arrays of flavors B and C with their gamma and
  gamma-tilde weights, and the closed-form evaluation of G(t);
* the totally resonant Omega machinery and the summation identities tying
  the flavor-B sums to flavor-C decorated arrays;
* the component decomposition of weighting vectors.

Conventions pinned here (each validated against the oracle, see tests):

* Each flavor writes its caps once, as a table aligned with d: d_i <= cap_i
  admits an entry and d_i == cap_i boxes it.  Flavor B (_bounds_B) holds
  d_i against mu_i for i <= r, d_r against the middle cap
  mu_r + 2(d_{r-1} - d_{r+1}) at entry r+1, and d_{2r-j} against
  mu_{j+1} + d_j - d_{j+1}.  Flavor C (_caps_C) caps d_j by mu_j and
  d_{2r-j} by mu_{j+1} + d_j - d_{j+1}, reading only d_1..d_r.
* CQ1(mu) admits the flavor-B entries i < r and i > r+1.  The closed form
  treats the resonant middle (d_{r-1} = d_{r+1}) with d_r > mu_r by the
  square-sum evaluation, returns the gamma product when both middle caps
  admit d_r, and reports None (oracle-only) in the remaining middle cells.
* gamma-tilde vanishes on odd entries that are neither boxed nor circled.
* Every gamma / gamma-tilde weight is 0, 1, -q^-1, 1 - q^-1 or q^(-1/2),
  so a decorated array's weight is sign q^(-e/2) (1 - q^-1)^gen (sign 0: 0).
  _gamma_product counts the triple (sign, e, gen) off the weight tables
  (a flag pair weighs by gamma, a flag triple with its entry by
  gamma-tilde) and expands it once.
* The flavor-C pullback flags are read straight off d: the pattern rows
  are b_{1,j} = d_j + a_{0,j+1} (b_{1,r} = d_r) and
  a_{1,j} = b_{1,j} - d_{2r-j}, and _pullback_flags_C states the flag
  rules once, the parity dictionary checked on every tuple it reads.
  cqc_layer_sums tallies (k-vector, weight triple) over iter_cqc in one
  pass and expands each bucket once.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add, eq, ge, gt, le, lt

import numpy as np

from .gtpatterns import c_stats
from .laurent import LaurentPoly, Monomial
from .rootdata import nonempty, top_row, upsilon

DEFAULT_BUDGET = 10_000_000

_Q0 = LaurentPoly.zero(0)

# The weight table.  Every gamma / gamma-tilde value is 0 (None) or
# sign * q^(-e/2) * (1 - q^-1)^gen, kept as the triple (sign, e, gen):
# 1, -q^-1, 1 - q^-1 and q^(-1/2).  gamma-tilde is gamma on even entries;
# on odd entries boxed gives q^(-1/2) and generic vanishes.
_GAMMA = {
    (True, True): None,
    (True, False): (-1, 2, 0),
    (False, True): (1, 0, 0),
    (False, False): (1, 0, 1),
}
_GAMMA_ODD = {**_GAMMA, (True, False): (1, 1, 0), (False, False): None}


class BudgetExceededError(RuntimeError):
    """Raised when a brute-force sum would exceed its term budget."""


class PreconditionError(ValueError):
    """Raised when the exponential sum's divisibility conditions fail."""


@dataclass(frozen=True)
class ShortPatternB:
    """Orders (d_1, ..., d_{2r-1}) at p, relative to mu (mu_i = m_i + 1)."""

    mu: tuple
    d: tuple

    def __post_init__(self):
        if len(self.d) != 2 * len(self.mu) - 1:
            raise ValueError("d must have length 2r-1")
        if any(x < 0 for x in self.d) or any(m < 1 for m in self.mu):
            raise ValueError("orders must be nonnegative, mu positive")

    @property
    def r(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class DecoratedArray:
    """Accumulated entries with boxing/circling flags; flavor B or C."""

    entries: tuple
    boxed: tuple
    circled: tuple


def _count_weights(flags):
    """The triple (sign, e, gen) of the product of the weights of the flag
    tuples f, (0, 0, 0) at the first zero factor: gamma of a (boxed,
    circled) pair, gamma-tilde of a (boxed, circled, entry) triple."""
    sign, e, gen = 1, 0, 0
    for f in flags:
        w = (_GAMMA_ODD if len(f) > 2 and f[2] % 2 else _GAMMA)[f[0], f[1]]
        if w is None:
            return 0, 0, 0
        sign *= w[0]
        e += w[1]
        gen += w[2]
    return sign, e, gen


def _expand(counts) -> LaurentPoly:
    """The sum of n * sign q^(-e/2) (1 - q^-1)^gen over the pairs
    ((sign, e, gen), n) of counts, expanded once per triple."""
    terms = {}
    for (sign, e, gen), n in counts:
        for i in range(gen + 1):
            key = (0, -e - 2 * i)
            terms[key] = terms.get(key, 0) + (-1) ** i * comb(gen, i) * sign * n
    return LaurentPoly._make({m: c for m, c in terms.items() if c}, 0)


# -- flavor B ----------------------------------------------------------------


def l_vector(t: ShortPatternB) -> tuple:
    """Moduli exponents (L_1, ..., L_{2r-1}) of the character sum."""
    r, d = t.r, (0,) + t.d  # 1-based with d_0 = 0
    if r < 2:
        raise ValueError("l_vector needs rank >= 2")
    P = tuple(itertools.accumulate(d))  # P_i = d_1 + ... + d_i
    # L_i = P_i (i < r), L_r = P_{r-1} + P_r, L_{r+j} = P_{r+j} - d_{j-1}
    return P[1:r] + (P[r - 1] + P[r],) + tuple(P[r + j] - d[j - 1] for j in range(1, r))


def preconditions_hold(t: ShortPatternB) -> bool:
    r, d = t.r, (0,) + t.d
    m = [mu - 1 for mu in (0,) + t.mu]
    for j in range(1, r - 1):
        if d[j + 1] > m[j + 1] + d[j]:
            return False
        if d[j + 1] + d[2 * r - j] > m[j + 1] + d[j] + d[2 * r - j - 1]:
            return False
    if 2 * d[r + 1] > m[r] + 2 * d[r - 1]:
        return False
    return True


def _bounds_B(t: ShortPatternB) -> list:
    """(value, cap) of entries 1..2r-1: value <= cap admits, == cap boxes."""
    r, d, mu = t.r, (0,) + t.d, (0,) + t.mu
    out = [(d[i], mu[i]) for i in range(1, r + 1)]
    if r > 1:  # entry r+1 holds d_r against the middle cap
        out.append((d[r], mu[r] + 2 * (d[r - 1] - d[r + 1])))
    out += [(d[2 * r - j], mu[j + 1] + d[j] - d[j + 1]) for j in range(r - 2, 0, -1)]
    return out


def _admitted(bounds: list, r: int) -> bool:
    """CQ1 on a flavor-B table: entries i < r and i > r+1 within their caps."""
    return all(v <= c for v, c in bounds[: r - 1] + bounds[r + 1 :])


def in_cq1(t: ShortPatternB) -> bool:
    """d_i <= mu_i for i < r plus the accumulated third-family bounds."""
    return _admitted(_bounds_B(t), t.r)


def _flags_B(t: ShortPatternB, bounds: list) -> list:
    """(boxed, circled) of entries 1..2r-1."""
    return [(v == c, x == 0) for (v, c), x in zip(bounds, t.d)]


def decorate_B(t: ShortPatternB) -> DecoratedArray:
    """Accumulated sums c_i = d_i + ... + d_{2r-1} with the flavor-B flags."""
    boxed, circled = zip(*_flags_B(t, _bounds_B(t)))
    return DecoratedArray(top_row(t.d), boxed, circled)


def _gamma_product(flags) -> LaurentPoly:
    """Product of the weights of the flag tuples f (see _count_weights).
    The factors are counted, not multiplied, and the product is expanded
    once."""
    w = _count_weights(flags)
    return _expand([(w, 1)]) if w[0] else _Q0


def g_delta(arr: DecoratedArray) -> LaurentPoly:
    return _gamma_product(zip(arr.boxed, arr.circled))


def resonant_lift(dtuple) -> tuple:
    """(d_1, ..., d_r) -> the symmetric (2r-1)-tuple."""
    d = tuple(dtuple)
    return d + d[-2::-1]


def closed_form_G(t: ShortPatternB) -> LaurentPoly | None:
    """Exact value of G(t) where the case analysis pins it; None otherwise.

    None is returned exactly on the middle cells with d_{r-1} != d_{r+1}
    where the bound d_r <= mu_r + 2(d_{r-1} - d_{r+1}) or d_r <= mu_r
    fails; there the oracle is the only route (tested hypothesis: 0).
    """
    r = t.r
    if r < 2:
        raise ValueError("the closed form needs rank >= 2")
    bounds = _bounds_B(t)
    if not _admitted(bounds, r):
        return _Q0
    (dr, cap), (_, middle) = bounds[r - 1 : r + 1]
    flags = _flags_B(t, bounds)
    if middle == cap:  # the resonant middle d_{r-1} = d_{r+1}
        diff = dr - cap
        if diff <= 0:
            return _gamma_product(flags)
        if diff % 2:
            del flags[r - 1 : r + 1]  # the middle pair enters the square sum,
            sign, e, gen = _count_weights(flags)  # weighing (1 - q^-1) q^(-(diff+1)/2)
            return _expand([((sign, e + diff + 1, gen + 1), 1)])
        return _Q0
    if dr <= middle and dr <= cap:
        return _gamma_product(flags)
    return None


def k_vector_B(t: ShortPatternB) -> tuple:
    """k_i = c_i + c_{2r+1-i} (i <= r) for the entries c = top_row(d), c_{2r} = 0."""
    c = top_row(t.d) + (0,)
    return tuple(c[i] + c[-1 - i] for i in range(t.r))


# -- brute-force oracle -------------------------------------------------------


@lru_cache(maxsize=64)
def _inverse_table(p: int, f: int, dexp: int, shift: int = 0):
    """Read-only arrays (c, u): c over Z/p^f, units only when dexp > 0, and
    u the inverse of c mod p^dexp plus shift * p^dexp (all 0 when dexp = 0).
    Memoized: a sweep at one prime asks for the same few (f, dexp) pairs
    again and again."""
    c = np.arange(p**f, dtype=np.int64)
    if dexp == 0:
        u = np.zeros_like(c)
    else:
        c = c[c % p != 0]
        pd = p**dexp
        u = np.array([pow(int(x), -1, pd) + shift * pd for x in c], dtype=np.int64)
    c.setflags(write=False)
    u.setflags(write=False)
    return c, u


def brute_force_G(
    t: ShortPatternB,
    p: int,
    budget: int = DEFAULT_BUDGET,
    u_shift: int = 0,
) -> Fraction:
    """Literal evaluation of the normalized character sum at the prime p.

    The summand is a table of 2r terms (j, o, a, k, b, pe, de), each the
    phase k * c_j^a * u_o^b * p^pe / p^de (o = None for the lone c_1 term,
    and o < j otherwise).  The sum over c_j mod p^{L_j} is collapsed,
    exactly, to the summand's period p^{f_j}: f_j >= d_j keeps the canonical
    inverse u_j fixed and f_j dominates every denominator exponent in which
    c_j appears.  The weight prod p^{L_j - f_j} then cancels against the
    normalization, leaving p^(-sum f_j) times the reduced sum, a sum of
    p^cap-th roots of unity.  Its integer phases are added term by term on
    an int64 grid and reduced mod p^cap once (each term is below
    p^cap <= 2^31), and _cyclotomic_sum evaluates the sum exactly from them.
    A term that is 0 mod p^cap on every residue (u_o^b c_j when d_o = 0,
    say) is left out, and the grid spans only the residue axes the
    remaining terms read: the phase does not depend on the others, so the
    count is scaled by the product of their sizes.  budget still counts
    every residue tuple, the unread axes included.

    u_shift replaces each u_j by u_j + u_shift * p^{d_j} (representative
    independence testing).
    """
    r = t.r
    if r < 2:
        raise ValueError("the character sum needs rank >= 2")
    if not preconditions_hold(t):
        raise PreconditionError(f"divisibility conditions fail for {t}")
    d = (0,) + t.d
    m = [0] + [mu - 1 for mu in t.mu]
    L = l_vector(t)
    n = 2 * r - 1

    terms = [(1, None, 1, 1, 0, m[1], d[1])]  # c_1
    for j in range(2, r):  # u_{j-1} c_j
        terms.append((j, j - 1, 1, 1, 1, m[j], d[j]))
    for j in range(1, r - 1):  # -u_{i-1} c_i with i = 2r - j
        i = 2 * r - j
        terms.append((i, i - 1, 1, -1, 1, m[j + 1] + d[j], d[j + 1] + d[i]))
    # u_{r-1}^2 c_r, 2 u_{r-1} c_{r+1} and u_r c_{r+1}^2
    terms += [
        (r, r - 1, 1, 1, 2, m[r], d[r]),
        (r + 1, r - 1, 1, 2, 1, m[r] + d[r - 1], d[r + 1] + d[r]),
        (r + 1, r, 2, 1, 1, m[r] + 2 * d[r - 1], 2 * d[r + 1] + d[r]),
    ]

    need = [0] * (n + 1)  # max net denominator exponent per variable c_j
    for j, _, _, _, _, pe, de in terms:
        need[j] = max(need[j], de - pe)
    f = [0] + [min(L[j - 1], max(d[j], need[j], 0)) for j in range(1, n + 1)]

    total_terms = 1
    for j in range(1, n + 1):
        total_terms *= p ** f[j] - (p ** (f[j] - 1) if d[j] > 0 else 0)
    if total_terms > budget:
        raise BudgetExceededError(
            f"{total_terms} residue tuples exceed budget {budget}"
        )

    cap = max(term[-1] for term in terms)
    big = p**cap
    if big > 2**31:  # keep int64 products safe
        raise BudgetExceededError("denominator too large for vectorized path")

    c, u = [None], [None]
    for j in range(1, n + 1):
        cj, uj = _inverse_table(p, f[j], d[j], u_shift)
        c.append(cj % big)
        u.append(uj % big)
    sizes = [len(cj) for cj in c[1:]]

    # The terms that are not 0 mod p^cap on every residue, each shaped for
    # the axes it reads.  Each factor is reduced below p^cap <= 2^31 before
    # the next product, so products fit in int64.
    parts = []
    for j, o, a, k, b, pe, de in terms:
        coef = k * p ** (pe + cap - de) % big
        if coef == 0:
            continue
        val = c[j] ** a % big * coef % big
        shape = [1] * n
        shape[j - 1] = sizes[j - 1]
        if o is not None:  # axes (o, j) are already in grid order
            val = (u[o] ** b % big)[:, None] * val % big
            shape[o - 1] = sizes[o - 1]
        if val.any():
            parts.append(val.reshape(shape))

    # Phase grid over the axes those terms read; an axis no term reads keeps
    # length 1, so each cell stands for total_terms // phase.size residue
    # tuples.  The grid adds at most 2r terms, each below p^cap, before the
    # single reduction.
    grid = np.broadcast_shapes((1,) * n, *(v.shape for v in parts))
    phase = np.zeros(grid, dtype=np.int64)
    for val in parts:
        phase += val
    phase %= big

    count = _cyclotomic_sum(phase.ravel(), p, cap) * (total_terms // phase.size)
    return Fraction(count, p ** sum(f[1:]))


def _cyclotomic_sum(phase, p: int, cap: int) -> int:
    """Exact sum of zeta^x over the phases x in [0, p^cap), zeta a primitive
    p^cap-th root of unity; raises RuntimeError unless it is an integer.

    With M = p^(cap-1), Phi_{p^cap}(x) = 1 + x^M + ... + x^((p-1)M), so the
    sum is the integer N exactly when the counts at y, y + M, ...,
    y + (p-1)M agree for every y != 0 mod M and the counts at M, ...,
    (p-1)M share one value c; then N = count(0) - c.  Memory is O(distinct
    phases), never O(p^cap).
    """
    vals, cnts = np.unique(phase, return_counts=True)
    if cap == 0:  # every phase is 0 mod 1
        return int(cnts.sum())
    M = p ** (cap - 1)
    classes, row = np.unique(vals % M, return_inverse=True)
    table = np.zeros((len(classes), p), dtype=np.int64)
    table[row, vals // M] = cnts
    n = 0
    if classes[0] == 0:
        n = int(table[0, 0] - table[0, 1])
        table[0, 0] = table[0, 1]
    if (table != table[:, :1]).any():
        raise RuntimeError(f"phase counts mod {p}^{cap} do not sum to an integer")
    return n


# -- flavor C ----------------------------------------------------------------


def _caps_C(d, muprime) -> tuple:
    """Caps of d_1..d_{2r-1}: mu_j for d_j, mu_{j+1} + d_j - d_{j+1} for
    d_{2r-j}; only d_1..d_r are read."""
    r = len(muprime)
    return tuple(muprime) + tuple(
        muprime[j] + d[j - 1] - d[j] for j in range(r - 1, 0, -1)
    )


def _tuple_C(d, r: int) -> tuple:
    """d as a tuple; ValueError unless it has length 2r-1."""
    d = tuple(d)
    if len(d) != 2 * r - 1:
        raise ValueError("d must have length 2r-1")
    return d


def in_cqc(d, muprime) -> bool:
    d = _tuple_C(d, len(muprime))
    return all(x <= c for x, c in zip(d, _caps_C(d, muprime)))


def delta_c_entries(d, r: int) -> tuple:
    """Entries (c_1, ..., c_r, cbar_{r-1}, ..., cbar_1): the flavor-B entries
    top_row(d) with d_r added to the first r, so d_r enters c_r twice."""
    d = _tuple_C(d, r)
    c = top_row(d)
    return tuple(x + d[r - 1] for x in c[:r]) + c[r:]


def decorate_C_literal(d, muprime) -> DecoratedArray:
    """Flavor-C decorations straight from the stated equalities."""
    d = _tuple_C(d, len(muprime))
    boxed = tuple(x == c for x, c in zip(d, _caps_C(d, muprime)))
    circled = tuple(x == 0 for x in d)
    return DecoratedArray(delta_c_entries(d, len(muprime)), boxed, circled)


def _rows_C(d: tuple, a0: tuple) -> tuple:
    """Rows (b_1, a_1) of the three-row pattern of d under the top row a_0:
    b_{1,j} = d_j + a_{0,j+1} for j < r, b_{1,r} = d_r, and
    a_{1,j} = b_{1,j} - d_{2r-j}."""
    r = len(a0)
    b1 = tuple(map(add, d, a0[1:])) + (d[r - 1],)
    return b1, tuple([b1[j] - d[2 * r - 2 - j] for j in range(r - 1)])


def _pullback_flags_C(d: tuple, a0: tuple) -> list:
    """(boxed, circled, entry) of c_1, ..., c_r, cbar_{r-1}, ..., cbar_1,
    read off the pattern rows of an admitted d under the top row a_0.

    boxed = the pattern entry satisfies its maximality equation, circled =
    its minimality equation, tested independently (an entry equal to both
    neighbours is boxed and circled at once).
    """
    r = len(a0)
    b1, a1 = _rows_C(d, a0)
    entries = delta_c_entries(d, r)
    # Parity dictionary: entry parities match the pattern statistics,
    # c(b_{1,j}) = c_j mod 2 and c(a_{1,j+1}) = cbar_j.
    cb, ca = c_stats(a0, b1, a1)
    if any((x - c) % 2 for x, c in zip(cb, entries)) or ca != list(entries[: r - 1 : -1]):
        raise AssertionError(f"pullback parity dictionary fails on d = {d}")
    # c_j <-> b_{1,j}, minimal against a_{0,j+1} (0 past the row's end)
    right = a0[1:] + (0,)
    out = [(x == a, x == b, e) for a, b, x, e in zip(a0, right, b1, entries)]
    # cbar_j <-> a_{1,j+1}.  Beyond the minimality equation, equality with
    # the right neighbour (0 past the row's end) never fires on strict rows:
    # it is a row failure, or a vanishing last entry (the diagonal
    # condition).  Either way the tuple belongs to no pattern and drops out.
    right = a1[1:] + (0,)
    for j in range(r - 2, -1, -1):
        x = a1[j]
        out.append((x == b1[j + 1], x == b1[j] or x == right[j], entries[2 * r - 2 - j]))
    return out


def decorate_C_pullback(d, muprime) -> DecoratedArray:
    """Flavor-C decorations pulled back from the three-row pattern (see
    _pullback_flags_C).  This is the authoritative decoration; the literal
    rules are compared against it exhaustively in the tests."""
    if not in_cqc(d, muprime):
        raise ValueError(f"{d} is not in the admissible set for {muprime}")
    boxed, circled, entries = zip(*_pullback_flags_C(tuple(d), top_row(muprime)))
    return DecoratedArray(entries, boxed, circled)


def g_delta_C(arr: DecoratedArray) -> LaurentPoly:
    return _gamma_product(zip(arr.boxed, arr.circled, arr.entries))


def k_vector_C(d, r: int) -> tuple:
    """k_i = c_i + d_r + c_{2r+1-i} (i < r) and k_r = c_r for the entries
    c = top_row(d), c_{2r} = 0."""
    d = _tuple_C(d, r)
    c = top_row(d) + (0,)
    return tuple(c[i] + d[r - 1] + c[-1 - i] for i in range(r - 1)) + (c[r - 1],)


def iter_cqc(muprime):
    """All admissible flavor-C tuples for muprime (finite set)."""
    r = len(muprime)
    for head in itertools.product(*(range(m + 1) for m in muprime)):
        # the tail d_{r+1}, ..., d_{2r-1} ranges up to the caps of the head
        tails = [range(c + 1) for c in _caps_C(head, muprime)[r:]]
        for tail in itertools.product(*tails):
            yield head + tail


@lru_cache(maxsize=None)
def cqc_layer_sums(muprime: tuple):
    """Map k-vector -> exact sum of the flavor-C products over its fiber.

    One pass tallies the weight triples (sign, e, gen) of the pulled-back
    flags per k-vector; each bucket is expanded once.
    """
    r, a0 = len(muprime), top_row(nonempty(muprime))
    buckets = {}
    for d in iter_cqc(muprime):
        w = _count_weights(_pullback_flags_C(d, a0))
        if w[0]:
            buckets.setdefault(k_vector_C(d, r), Counter())[w] += 1
    sums = {k: _expand(counts.items()) for k, counts in buckets.items()}
    return {k: v for k, v in sums.items() if v}


# -- totally resonant machinery ----------------------------------------------


_RELATIONS = {"<": lt, "<=": le, "=": eq, ">=": ge, ">": gt}


def omega_sets(mu, kind: str, weighting: str = None, k: int = None, i: int = None):
    """Resonant r-tuples with d_j <= mu_j (j < i), d_j = mu_j (j > i), and
    d_i related to mu_i by ``kind``; optionally filtered/solved by a
    weighting value k (weighting "A": sum d_j; "B": d_r + 2 sum_{j<r} d_j).
    """
    mu = nonempty(mu)
    r = len(mu)
    if i is None:
        i = r
    if not 1 <= i <= r:
        raise ValueError(f"i must be in 1..{r}")
    if kind not in _RELATIONS:
        raise ValueError(f"unknown kind {kind!r}")
    related = _RELATIONS[kind]
    heads = itertools.product(*(range(mu[j] + 1) for j in range(i - 1)))
    tail = tuple(mu[j] for j in range(i, r))
    if k is None:
        if kind in (">=", ">"):
            raise ValueError(f"unbounded kind {kind!r} needs a weighting value")
        for head in heads:
            for di in range(mu[i - 1] + 1):
                if related(di, mu[i - 1]):
                    yield head + (di,) + tail
        return
    if weighting not in ("A", "B"):
        raise ValueError("weighting must be 'A' or 'B'")
    coeff = 1 if (weighting == "A" or i == r) else 2  # of d_i in the weight
    for head in heads:
        vec = head + (0,) + tail
        num = k - (sum(vec) if weighting == "A" else vec[-1] + 2 * sum(vec[:-1]))
        di = num // coeff
        if num >= 0 and not num % coeff and related(di, mu[i - 1]):
            yield head + (di,) + tail


def i_box(dtuple, mu) -> int:
    """Largest index (1-based) with d_i < mu_i; raises on the maximal tuple."""
    for i in range(len(mu), 0, -1):
        if dtuple[i - 1] < mu[i - 1]:
            return i
    raise ValueError("maximal tuple has no box index")


def omega_of(s, mu):
    """The fiber Omega(s) inside the <=-box of mu."""
    s = tuple(s)
    mu = tuple(mu)
    r = len(mu)
    if s == mu:
        yield from itertools.product(*(range(m + 1) for m in mu))
        return
    ib = i_box(s, mu)
    ranges = []
    for j in range(1, r + 1):
        if j < ib:
            ranges.append((s[j - 1],))
        else:
            ranges.append(range(min(s[j - 1], mu[j - 1]) + 1))
    yield from itertools.product(*ranges)


def lemma3_direct(s, mu) -> LaurentPoly:
    mu = tuple(mu)
    total = _Q0
    for x in omega_of(s, mu):
        g = g_delta(decorate_B(ShortPatternB(mu, resonant_lift(x))))
        total = total + g.shift(Monomial((), 0, 2 * sum(x)))
    return total


def lemma3_closed(s, mu) -> LaurentPoly:
    """q^(k_A(s) - (r - i_box)) G(s_{i_box}) with the generic factor dropped."""
    s, mu = tuple(s), tuple(mu)
    r = len(mu)
    if s == mu:
        return _Q0
    ib = i_box(s, mu)
    arr = decorate_B(ShortPatternB(mu[:ib], resonant_lift(s[:ib])))
    flags = list(zip(arr.boxed, arr.circled))
    if s[ib - 1] > 0:
        del flags[ib - 1]  # the unboxed uncircled factor 1 - q^{-1} is divided out
    sign, e, gen = _count_weights(flags)  # times q^(sum(s) - (r - i_box))
    return _expand([((sign, e - 2 * (sum(s) - (r - ib)), gen), 1)])


def resonant_closed_G(dtuple, mu) -> LaurentPoly:
    t = ShortPatternB(tuple(mu), resonant_lift(dtuple))
    val = closed_form_G(t)
    if val is None:  # resonant middles are always covered
        raise AssertionError(f"no closed form for the resonant lift of {dtuple}")
    return val


def delta_C_resonant(s, muprime) -> DecoratedArray:
    """The resonant flavor-C array of an r-tuple; equals the literal array
    of the symmetric lift (middle difference twice the last coordinate)."""
    return decorate_C_literal(resonant_lift(s), muprime)


def prop5_sides(mu, kr: int):
    """Flavor-B sum over Omega_B(mu, kr) and flavor-C sum over the <=-box."""
    mu = tuple(mu)
    muprime = upsilon(mu)
    lhs = _Q0
    for dtuple in omega_sets(mu, ">=", weighting="B", k=kr):
        lhs = lhs + resonant_closed_G(dtuple, mu)
    for dtuple in omega_sets(mu, "<", weighting="B", k=kr):
        lhs = lhs + resonant_closed_G(dtuple, mu)
    rhs = _Q0
    for s in omega_sets(muprime, "<=", weighting="A", k=kr):
        rhs = rhs + g_delta_C(delta_C_resonant(s, muprime))
    return lhs, rhs


# -- component decomposition ---------------------------------------------------


@dataclass(frozen=True)
class Component:
    lo: int  # 1-based first index
    hi: int  # 1-based last index
    a: int  # |k_{lo-1} - k_lo|, 0 at the left edge
    b: int  # |k_hi - k_{hi+1}|, 0 at the right edge
    values: tuple
    mu_adj: tuple  # boundary-adjusted mu slice


def component_decomposition(kvec, mu):
    """Split k into constant runs with the boundary-adjusted mu slices,
    plus the admissible summation set for the run weights."""
    kvec, mu = tuple(kvec), tuple(mu)
    r = len(kvec)
    runs = []
    lo = 1
    for i in range(2, r + 2):
        if i > r or kvec[i - 1] != kvec[lo - 1]:
            runs.append((lo, i - 1))
            lo = i
    comps = []
    for lo, hi in runs:
        a = 0 if lo == 1 else abs(kvec[lo - 2] - kvec[lo - 1])
        b = 0 if hi == r else abs(kvec[hi - 1] - kvec[hi])
        adj = list(mu[lo - 1 : hi])
        if lo > 1 and kvec[lo - 2] < kvec[lo - 1]:  # a rise from the left
            adj[0] -= 2 * a if lo == r else a  # doubled on the final singleton
        if hi < r and kvec[hi - 1] > kvec[hi]:  # a fall to the right
            adj[-1] -= b
        comps.append(Component(lo, hi, a, b, kvec[lo - 1 : hi], tuple(adj)))
    h = len(comps)
    xi = []
    if h:
        offset = sum(c.b for c in comps[:-1])
        bounds = [sum(c.mu_adj) for c in comps[:-1]]
        target = kvec[0] - offset
        for xs in itertools.product(*(range(b + 1) for b in bounds)):
            rest = target - 2 * sum(xs)
            if rest >= 0:
                xi.append(xs + (rest,))
    return comps, xi


def psi_k(d, kvec, mu):
    """Per-component projections (d_lo, ..., d_{hi-1}, min(d_hi, d_{2r-hi}))."""
    comps, _ = component_decomposition(kvec, mu)
    r = len(mu)
    dd = (0,) + tuple(d)
    out = []
    for c in comps:
        part = [dd[j] for j in range(c.lo, c.hi)]
        j = c.hi
        dprime = dd[j] if j == r else min(dd[j], dd[2 * r - j])
        part.append(dprime)
        out.append(tuple(part))
    return out


# -- the general identity -------------------------------------------------------


def iter_cq1_with_k(mu, kvec):
    """Flavor-B tuples with the given weighting vector (finite fiber)."""
    mu = nonempty(mu)
    kvec = tuple(kvec)
    r = len(mu)
    if len(kvec) != r:
        raise ValueError(f"k must have {r} entries, as mu has")
    deltas = [kvec[i - 1] - kvec[i] for i in range(1, r)]
    budget_front = 2 * kvec[0] - kvec[r - 1]
    for head in itertools.product(*(range(mu[j] + 1) for j in range(r - 1))):
        back = [head[i - 1] - deltas[i - 1] for i in range(1, r)]
        if any(x < 0 for x in back):
            continue
        dr = budget_front - 2 * sum(head)
        if dr < 0:
            continue
        d = tuple(head) + (dr,) + tuple(reversed(back))
        t = ShortPatternB(mu, d)
        if not in_cq1(t):
            continue
        if k_vector_B(t) != kvec:
            raise AssertionError(f"{d} was built for k = {kvec}, not {k_vector_B(t)}")
        yield t


@dataclass(frozen=True)
class Prop6Result:
    lhs: Fraction
    rhs: Fraction
    used_oracle: int
    skipped_divisibility: int
    verdict: bool


def prop6_check(mu, kvec, p: int, tol=0, budget: int = DEFAULT_BUDGET):
    """Exact comparison of the flavor-B and flavor-C weighted sums at q = p;
    the verdict is |lhs - rhs| <= tol.

    Tuples violating the divisibility preconditions never occur in the
    coefficient expansion (the inductive sum ranges over them only), so
    they contribute zero; their count is reported.
    """
    mu, kvec = tuple(mu), tuple(kvec)
    lhs = Fraction(0)
    used_oracle = 0
    skipped = 0
    for t in iter_cq1_with_k(mu, kvec):
        if not preconditions_hold(t):
            skipped += 1
            continue
        val = closed_form_G(t)
        if val is None:
            lhs += brute_force_G(t, p, budget=budget)
            used_oracle += 1
        else:
            lhs += val.evaluate({"q": p})
    rhs = Fraction(0)
    poly = cqc_layer_sums(upsilon(mu)).get(upsilon(kvec))
    if poly is not None:
        rhs = poly.evaluate({"q": p})
    return Prop6Result(lhs, rhs, used_oracle, skipped, abs(lhs - rhs) <= tol)
