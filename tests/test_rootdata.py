import itertools
from fractions import Fraction

import pytest

from spinchar.gtpatterns import circle_sum, enumerate_strict, tokuyama_rhs
from spinchar.laurent import LaurentPoly, Monomial, prod
from spinchar.padic import cqc_layer_sums, omega_sets, prop5_sides, prop6_check
from spinchar.rootdata import (
    character,
    deformed_denominator,
    lambda_to_evee,
    rho,
    shifted_weight,
    upsilon,
    upsilon_inverse,
    weyl_dimension,
    weyl_numerator,
)
from spinchar.tableaux import corollary_rhs
from spinchar.whittaker import gh_check, h_coeff, h_flat, h_support, prop3_check


def test_lambda_to_evee():
    assert lambda_to_evee((3, 2)) == (8, 2)  # (4, 1)
    assert lambda_to_evee((4, 3)) == (11, 3)  # (11/2, 3/2)
    assert lambda_to_evee((0, 0)) == (0, 0)


def test_rho():
    assert rho(1) == (1,)  # (1/2)
    assert rho(2) == (3, 1)  # (3/2, 1/2)
    assert rho(3) == (5, 3, 1)


def test_upsilon():
    assert upsilon((4, 3)) == (8, 3)
    assert upsilon((5,)) == (5,)
    assert upsilon((0, 0, 0)) == (0, 0, 0)
    assert upsilon_inverse((8, 3)) == (4, 3)
    assert shifted_weight((3, 2)) == upsilon((4, 3)) == (8, 3)
    with pytest.raises(ValueError):
        upsilon_inverse((3, 3))


def test_deformed_denominator_rank1():
    d = deformed_denominator(1)
    assert d == LaurentPoly.parse("1 * z1^{1/2} t + 1 * z1^{-1/2}", 1)


def test_deformed_denominator_rank2_matches_product_form():
    d = deformed_denominator(2)
    one = LaurentPoly.one(2)

    def t_z(*zexp):
        return LaurentPoly.monomial(2, zexp, texp=1)

    pref = LaurentPoly.monomial(2, zexp=[Fraction(-3, 2), Fraction(-1, 2)])
    manual = (
        pref
        * (one + t_z(1))
        * (one + t_z(1, -1))
        * (one + t_z(1, 1))
        * (one + t_z(0, 1))
    )
    assert d == manual
    # t -> 0 keeps only the prefactor
    assert d.substitute({"t": 0}) == pref


def test_weyl_numerator_rank1():
    n = weyl_numerator(rho(1), 1)
    assert n == LaurentPoly.parse("1 * z1^{1/2} + -1 * z1^{-1/2}", 1)


def test_weyl_numerator_rank2_determinant():
    # det [[x^a - x^-a, y^a - y^-a], [x^b - x^-b, y^b - y^-b]] at (a,b)=(3/2,1/2)
    def bracket(var, half_exp):
        hi = LaurentPoly.monomial(2, zexp=[0, 0])
        e = [0, 0]
        e[var] = Fraction(half_exp, 2)
        pos = LaurentPoly.monomial(2, zexp=e)
        e[var] = -Fraction(half_exp, 2)
        neg = LaurentPoly.monomial(2, zexp=e)
        return pos - neg

    det = bracket(0, 3) * bracket(1, 1) - bracket(1, 3) * bracket(0, 1)
    assert weyl_numerator(rho(2), 2) == det


def test_weyl_numerator_rank2_shifted_weight():
    def bracket(var, half_exp):
        e = [0, 0]
        e[var] = Fraction(half_exp, 2)
        pos = LaurentPoly.monomial(2, zexp=e)
        e[var] = -Fraction(half_exp, 2)
        neg = LaurentPoly.monomial(2, zexp=e)
        return pos - neg

    det = bracket(0, 11) * bracket(1, 3) - bracket(1, 11) * bracket(0, 3)
    assert weyl_numerator(lambda_to_evee((4, 3)), 2) == det


def test_weyl_numerator_requires_strict_dominance():
    with pytest.raises(ValueError):
        weyl_numerator((3, 3), 2)
    with pytest.raises(ValueError):
        weyl_numerator((3, 0), 2)


def test_weyl_numerator_antisymmetry():
    nu = lambda_to_evee((3, 2))
    n = weyl_numerator(nu, 2)
    # swapping z1 <-> z2 negates; inverting one variable negates
    swapped = {}
    for mono, coef in n.terms.items():
        swapped[mono[1::-1] + mono[2:]] = coef
    assert {m: -c for m, c in n.terms.items()} == swapped
    flipped = LaurentPoly({(-m[0],) + m[1:]: c for m, c in n.terms.items()}, 2)
    assert flipped == -n


def test_sign_character():
    # The sign of w is (-1)^inversions * prod(signs): the transposition
    # sends (3, 1) to (1, 3) with sign -1, the signs cancel over the group,
    # and W(B_3) has 2^3 3! = 48 elements.
    n = weyl_numerator((3, 1), 2)
    assert n.terms[Monomial((1, 3))] == -1
    assert n.evaluate({"z1": 1, "z2": 1}) == 0
    assert len(weyl_numerator(rho(3), 3).terms) == 48


@pytest.mark.parametrize("r", (1, 2, 3, 4))
def test_weyl_denominator_formula(r):
    # N(rho) = prod over alpha > 0 of (z^(alpha/2) - z^(-alpha/2)), with the
    # positive roots e_i, e_i - e_j and e_i + e_j (i < j); alpha/2 in
    # doubled coordinates is alpha's plain coordinates.
    halves = [tuple(int(k == i) for k in range(r)) for i in range(r)]
    for i, j in itertools.combinations(range(r), 2):
        for sign in (-1, 1):
            halves.append(tuple((k == i) + sign * (k == j) for k in range(r)))
    assert len(halves) == r * r
    factors = [
        LaurentPoly({Monomial(h): 1, Monomial(tuple(-e for e in h)): -1}, r) for h in halves
    ]
    assert weyl_numerator(rho(r), r) == prod(factors, r)


def test_character_rank1_schur():
    for m in range(5):
        chi = character((m,), 1)
        expected = LaurentPoly.zero(1)
        for j in range(m + 1):
            expected = expected + LaurentPoly.monomial(1, zexp=[Fraction(m - 2 * j, 2)])
        assert chi == expected


def test_character_trivial_and_spin():
    assert character((0, 0), 2) == LaurentPoly.one(2)
    spin = character((0, 1), 2)
    assert spin.evaluate({"z1": 1, "z2": 1}) == 4


@pytest.mark.parametrize("r,bound", [(1, 4), (2, 3), (3, 3)])
def test_dimension_oracle(r, bound):
    for lam in itertools.product(range(bound), repeat=r):
        chi = character(lam, r)  # exact division must succeed
        point = {f"z{i}": 1 for i in range(1, r + 1)}
        assert chi.evaluate(point) == weyl_dimension(lam, r)


@pytest.mark.parametrize("lam", [(-1,), (-2,), (0, -1), (-3, 1)])
def test_dimension_refuses_non_dominant_weights(lam):
    with pytest.raises(ValueError, match="dominant"):
        weyl_dimension(lam)


_EMPTY_WEIGHT_CALLS = [
    (character, ((),)),
    (tokuyama_rhs, ((),)),
    (corollary_rhs, ((),)),
    (gh_check, ((),)),
    (prop3_check, ((),)),
    (weyl_numerator, ((),)),
    (weyl_dimension, ((),)),
    (h_coeff, ((), ())),
    (h_flat, ((), ())),
    (h_support, ((),)),
    (rho, (0,)),
    (deformed_denominator, (0,)),
    (enumerate_strict, ((),)),
    (circle_sum, ((),)),
    (cqc_layer_sums, ((),)),
    (upsilon_inverse, ((),)),
    (prop5_sides, ((), 0)),
    (prop6_check, ((), (), 3)),
    (omega_sets, ((), "<=")),
]


@pytest.mark.parametrize(
    "fn,args", _EMPTY_WEIGHT_CALLS, ids=[fn.__name__ for fn, _ in _EMPTY_WEIGHT_CALLS])
def test_rank_zero_is_refused(fn, args):
    with pytest.raises(ValueError, match="rank must be >= 1"):
        list(fn(*args))  # list() runs the generators


def test_division_exact_up_to_three():
    for r in (2, 3):
        for lam in [(3,) * r, (3,) + (0,) * (r - 1), tuple(range(r, 0, -1))]:
            character(lam, r)  # must not raise


def test_character_weyl_invariance():
    chi = character((2, 1), 2)
    # the reflection z_i -> z_i^(-1) of both variables, on the keys
    inv = LaurentPoly({(-m[0], -m[1]) + m[2:]: c for m, c in chi.terms.items()}, 2)
    assert inv == chi
