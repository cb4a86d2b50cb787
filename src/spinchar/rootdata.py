"""Root and weight bookkeeping for the B_r / C_r pair.

Weights of Spin(2r+1) are carried in e-vee coordinates as tuples of doubled
integers (entry i is twice the i-th coordinate), the same convention as the
z-exponents of a LaurentPoly.  The torus convention is
z^(sum a_i e_i-vee) = prod z_i^(a_i), fixed globally.  The character is
computed by exact division of alternating Weyl-group sums, which keeps it
fully independent of the pattern machinery it is later checked against.
An element of W(B_r) is a permutation with a sign vector, and
weyl_numerator loops over both, with sign (-1)^inversions * prod(signs);
the deformed denominator multiplies one two-term factor per positive root
(_positive_roots, also read by the dimension formula).  The top row of
lam + rho is top_row(shifted_weight(lam)), and strictly_decreasing is the
one strict-dominance test, of weights, top rows and tableau shapes alike.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, mul, sub

from .laurent import LaurentPoly, Monomial, prod


def lambda_to_evee(lam, r: int = None) -> tuple:
    """Weight sum(lam_i eps_i) in doubled e-vee coordinates.

    Coordinate j is sum(lam_i for j <= i < r) + lam_r / 2, from the
    fundamental weights eps_i = e_1-vee + ... + e_i-vee (i < r) and
    eps_r = (1/2) sum of all e_j-vee.
    """
    lam = tuple(lam)
    if r is not None and len(lam) != r:
        raise ValueError("length of lambda must equal the rank")
    return top_row(upsilon(lam))


def rho(r: int) -> tuple:
    """Half-sum of positive roots: coordinates (r - j + 1/2) for j = 1..r,
    doubled."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    return tuple(2 * (r - j) + 1 for j in range(1, r + 1))


def upsilon(mu) -> tuple:
    """Doubling map (mu_1, ..., mu_r) -> (2 mu_1, ..., 2 mu_{r-1}, mu_r)."""
    mu = tuple(mu)
    return tuple(2 * m for m in mu[:-1]) + mu[-1:]


def shifted_weight(lam) -> tuple:
    """The doubled shifted weight v(lam + rho) = upsilon(lam + 1)."""
    return upsilon(l + 1 for l in lam)


def nonempty(mu) -> tuple:
    """mu as a tuple; ValueError unless its rank is at least 1."""
    mu = tuple(mu)
    if not mu:
        raise ValueError("rank must be >= 1")
    return mu


def top_row(mu) -> tuple:
    """Partial sums from the right: (mu_1+...+mu_r, mu_2+...+mu_r, ..., mu_r)."""
    return tuple(itertools.accumulate(reversed(tuple(mu))))[::-1]


def mu_of_top_row(row) -> tuple:
    """Inverse of top_row."""
    return tuple(x - y for x, y in zip(row, (*row[1:], 0)))


def strictly_decreasing(row) -> bool:
    """Whether every entry of the row exceeds the next."""
    return all(row[k] > row[k + 1] for k in range(len(row) - 1))


def upsilon_inverse(mu) -> tuple:
    mu = nonempty(mu)
    if any(m % 2 for m in mu[:-1]):
        raise ValueError(f"{mu} is not in the image of the doubling map")
    return tuple(m // 2 for m in mu[:-1]) + (mu[-1],)


def _positive_roots(r: int) -> list:
    """The positive roots e_i, e_i - e_j, e_i + e_j (i < j) of B_r, doubled."""
    e = [[2 * (k == i) for k in range(r)] for i in range(r)]
    return e + [list(map(op, e[i], e[j]))
                for i, j in itertools.combinations(range(r), 2) for op in (sub, add)]


def deformed_denominator(r: int) -> LaurentPoly:
    """The type-B deformed Weyl denominator D(z; t).

    z^(-rho) times the product of (1 + t z^alpha) over the positive roots,
    fully expanded.
    """
    z_minus_rho = Monomial([-x for x in rho(r)])
    one = Monomial((0,) * r)
    factors = (LaurentPoly({one: 1, Monomial(alpha, 1): 1}, r)
               for alpha in _positive_roots(r))
    return prod(factors, r).shift(z_minus_rho)


def weyl_numerator(nu: tuple, r: int = None) -> LaurentPoly:
    """Alternating sum over the Weyl group: sum sgn(w) z^{w(nu)}.

    nu is in doubled e-vee coordinates and must be strictly dominant
    (nu_1 > ... > nu_r > 0); otherwise the sum vanishes or terms collide
    and we refuse.
    """
    coords = tuple(nu)
    if r is None:
        r = len(coords)
    if len(coords) != r:
        raise ValueError("rank mismatch")
    if r < 1:
        raise ValueError("rank must be >= 1")
    if not strictly_decreasing((*coords, 0)):
        raise ValueError(f"doubled coordinates {coords} are not strictly dominant")
    terms = {}
    for perm in itertools.permutations(range(r)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        for signs in itertools.product((1, -1), repeat=r):
            z = [0] * r
            for i, c in enumerate(coords):  # w(nu): nu_i goes to slot perm[i]
                z[perm[i]] = signs[perm[i]] * c
            mono = Monomial(z)
            terms[mono] = terms.get(mono, 0) + (-1) ** inversions * math.prod(signs)
    return LaurentPoly(terms, r)


def dominant(lam, r: int = None) -> tuple:
    """lam as a tuple, checked to be a dominant weight of rank r (default
    len(lam)): nonnegative fundamental-weight coordinates, r of them."""
    lam = tuple(lam)
    if r is not None and len(lam) != r:
        raise ValueError("length of lambda must equal the rank")
    if any(l < 0 for l in lam):
        raise ValueError("lambda must be dominant (nonnegative coordinates)")
    return nonempty(lam)


def character(lam, r: int = None) -> LaurentPoly:
    """Character of the irreducible Spin(2r+1) highest-weight representation.

    lam is given in the fundamental-weight basis (nonnegative integers).
    Computed as the exact quotient N(lam + rho) / N(rho).
    """
    lam = dominant(lam, r)
    r = len(lam)
    nu = top_row(shifted_weight(lam))
    return weyl_numerator(nu, r).div_exact(weyl_numerator(rho(r), r))


def weyl_dimension(lam, r: int = None) -> int:
    """Dimension of the lam representation by the Weyl dimension formula.

    Independent oracle for character(lam) evaluated at z = (1, ..., 1):
    product over positive roots of <lam+rho, alpha> / <rho, alpha>.
    """
    lam = dominant(lam, r)
    nu, rh = top_row(shifted_weight(lam)), rho(len(lam))
    value = math.prod(Fraction(sum(map(mul, nu, alpha)), sum(map(mul, rh, alpha)))
                      for alpha in _positive_roots(len(lam)))
    if value.denominator != 1:
        raise AssertionError(f"non-integral dimension {value}")
    return int(value)
