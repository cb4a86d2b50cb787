import cmath
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from spinchar import whittaker
from spinchar.gtpatterns import top_row
from spinchar.laurent import LaurentPoly, Monomial, prod
from spinchar.padic import cqc_layer_sums
from spinchar.rootdata import character, deformed_denominator, rho, upsilon
from spinchar.whittaker import (
    gh_check,
    h_base,
    h_coeff,
    h_flat,
    h_support,
    h_table,
    prop3_check,
)

ONE = LaurentPoly.one(0)


def qpow(n):
    return LaurentPoly.monomial(0, qexp=n)


def denominator_at_minus_qinv(r):
    """D(z; -1/q) from its product form: z^(-rho) times 1 - q^(-1) z^alpha
    over the positive roots alpha = e_i, e_i - e_j, e_i + e_j (i < j)."""
    e = [[int(k == i) for k in range(r)] for i in range(r)]
    roots = e + [
        [x + sign * y for x, y in zip(e[i], e[j])]
        for i, j in itertools.combinations(range(r), 2) for sign in (-1, 1)
    ]
    one = LaurentPoly.one(r)
    factors = [one - LaurentPoly.monomial(r, alpha, qexp=-1) for alpha in roots]
    z_minus_rho = LaurentPoly.monomial(r, [Fraction(-x, 2) for x in rho(r)])
    return z_minus_rho * prod(factors, r)


@pytest.mark.parametrize("r", (1, 2, 3, 4))
def test_denominator_at_minus_qinv_is_its_product_form(r):
    # _at_minus_qinv, which the bridges apply to D(z; t), against the
    # product form with t = -1/q put into each factor
    assert whittaker._at_minus_qinv(deformed_denominator(r)) == denominator_at_minus_qinv(r)


def test_h_base_table():
    m = 2
    assert h_base(0, m) == ONE
    assert h_base(1, m) == qpow(1) - qpow(0)
    assert h_base(2, m) == qpow(2) - qpow(1)
    assert h_base(3, m) == -qpow(2)
    assert h_base(4, m) == LaurentPoly.zero(0)


def test_flat_triple():
    # the normalized rank-one values: 1, 1 - 1/q, ..., -1/q, 0
    for m in range(6):
        flats = [h_flat((k,), (m,)) for k in range(m + 3)]
        assert flats[0] == ONE
        for k in range(1, m + 1):
            assert flats[k] == ONE - qpow(-1)
        assert flats[m + 1] == -qpow(-1)
        assert flats[m + 2] == LaurentPoly.zero(0)


def test_ramanujan_direct_sum():
    # H(p^1; p^0) at p = 3 is the two-term unit sum = -1
    val = sum(cmath.exp(2j * cmath.pi * c / 3) for c in (1, 2))
    assert abs(val - complex(h_base(1, 0).evaluate({"q": 3}))) < 1e-12


def test_worked_monomial_value():
    # the z1^{3/2} z2^{11/2} coefficient of the worked product is t^3,
    # which the flat coefficient reproduces at t = -1/q
    assert h_flat((7, 14), (3, 2)) == -qpow(-3)


def test_h_values_are_laurent_in_q():
    for lam in itertools.product(range(2), repeat=2):
        for k in h_support(lam):
            poly = h_coeff(k, lam)
            assert all(m[-1] % 2 == 0 for m in poly.terms)


def test_layer_keys_are_even():
    # the outer-sum evenness filter is redundant on the support
    for mup in [(2, 2), (8, 3), (2, 2, 1), upsilon((2, 2, 1))]:
        for key in cqc_layer_sums(mup):
            assert all(x % 2 == 0 for x in key[:-1])


# SHA-256 and line count of the whole table, one "k value" line per key in
# sorted order
H_TABLE_PINS = {
    (2, 1, 1): ("29e9f52f51c011e9dea89405c06e84917915e65650f36ff13d663f9284eb72ed", 1261),
    (1, 1, 0, 0): ("4b5548430e55167661b677002450d8e1f5eb89568d0620a9bbcfaa29ab19a12f", 9008),
}


@pytest.mark.parametrize("lam", list(H_TABLE_PINS))
def test_h_table_is_pinned(lam):
    text = "".join(f"{k} {v}\n" for k, v in sorted(h_table(lam).items()))
    pin = (hashlib.sha256(text.encode()).hexdigest(), text.count("\n"))
    assert pin == H_TABLE_PINS[lam]


def test_gh_rank1():
    for lam in range(7):
        res = gh_check((lam,))
        assert res.ok, res.mismatches


def test_gh_rank2():
    for lam in itertools.product(range(3), repeat=2):
        res = gh_check(lam)
        assert res.ok, (lam, res.mismatches[:3])


def test_prop3_rank1_and_rank2():
    for lam in [(0,), (3,), (6,)]:
        assert prop3_check(lam).ok
    for lam in [(0, 0), (1, 2), (3, 2)]:
        assert prop3_check(lam).ok


def test_negative_nu_guard_is_never_exercised(monkeypatch):
    # with the pullback decoration, fibers that would shift the weight out
    # of the dominant cone always carry zero sums: the guard stays idle.
    # Every shifted weight of every layer, the nested tables' included,
    # goes through _nu_shift, so a wrapper there sees each one.
    calls, events = [], []
    nu_shift = whittaker._nu_shift

    def recording(lam, kp):
        nu = nu_shift(lam, kp)
        calls.append(lam)
        if any(x < 0 for x in nu):
            events.append((lam, kp))
        return nu

    monkeypatch.setattr(whittaker, "_nu_shift", recording)
    h_table.cache_clear()
    grid = list(itertools.product(range(2), repeat=2)) + [
        (0, 0, 0), (1, 0, 1), (0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1),
    ]
    for lam in grid:
        assert gh_check(lam).ok, lam
    assert {len(lam) for lam in calls} == {2, 3, 4}
    assert events == []


def test_mu_second_consistency_runs():
    # the per-step doubled-top-row identity is asserted inside the recursion
    h_table.cache_clear()
    for lam in [(1, 1), (0, 1, 0)]:
        for k in sorted(h_support(lam))[:10]:
            h_coeff(k, lam)


def test_bridges_report_a_skewed_coefficient(monkeypatch):
    # both checks read H through h_flat: one k off by 1 must show in each
    lam = (1, 2)
    bad = sorted(h_support(lam))[1]
    real = whittaker.h_flat

    def skewed(k, lam_):
        value = real(k, lam_)
        return value + LaurentPoly.one(0) if tuple(k) == bad else value

    monkeypatch.setattr(whittaker, "h_flat", skewed)
    for check in (gh_check, prop3_check):
        res = check(lam)
        assert not res.ok
        assert [m for m in res.mismatches if m.get("k") == list(bad)], check


def test_bridge_reports_a_stray_monomial_and_a_wrong_coefficient():
    # _bridge on D(z; -1/q) chi_lam, correct as it stands, then spoiled twice
    lam = (1, 2)
    a0 = top_row(upsilon((2, 3)))
    poly = denominator_at_minus_qinv(2) * character(lam)
    assert whittaker._bridge(lam, poly).ok

    # z_1 one half-step off every k: no k carries the monomial
    stray = LaurentPoly({Monomial((1 - a0[0], -a0[1]), 0, 0): 1}, 2)
    res = whittaker._bridge(lam, poly + stray)
    assert {m.get("error") for m in res.mismatches} == {
        "no matching k index", "reconstruction differs from the polynomial"
    }
    assert {"monomial": "1 * z1^{-3} z2^{-3/2}", "error": "no matching k index"} in (
        res.mismatches
    )

    # the constant term at one k of the support raised by 1
    k = sorted(h_support(lam))[1]
    off = LaurentPoly({Monomial(whittaker._z_of_k(a0, k), 0, 0): 1}, 2)
    res = whittaker._bridge(lam, poly + off)
    assert [m["k"] for m in res.mismatches if "k" in m] == [list(k)]
    assert {"error": "reconstruction differs from the polynomial"} in res.mismatches


def test_bridge_report_does_not_depend_on_term_order():
    # Three stray monomials and one wrong coefficient, fed to _bridge with
    # the terms in several orders: the report is the same each time, and
    # lists the strays in descending key order.
    lam = (1, 2)
    a0 = top_row(upsilon((2, 3)))
    poly = denominator_at_minus_qinv(2) * character(lam)
    strays = [Monomial((1 - a0[0] + 2 * i, -a0[1] - 2 * i), 0, -i) for i in (1, -2, 0)]
    k = sorted(h_support(lam))[1]
    off = Monomial(whittaker._z_of_k(a0, k), 0, 0)
    spoiled = poly + LaurentPoly({**dict.fromkeys(strays, 1), off: 1}, 2)

    reports = []
    rng = random.Random(5)
    for _ in range(4):
        terms = list(spoiled.terms.items())
        rng.shuffle(terms)
        res = whittaker._bridge(lam, LaurentPoly(dict(terms), 2))
        reports.append((res.mismatches, res.checked))
    assert all(report == reports[0] for report in reports)
    listed = [m["monomial"] for m in reports[0][0] if "monomial" in m]
    assert listed == [
        str(LaurentPoly({m: 1}, 2)) for m in sorted(strays, reverse=True)
    ]
