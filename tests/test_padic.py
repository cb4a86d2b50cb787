import itertools
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spinchar import padic
from spinchar.laurent import LaurentPoly
from spinchar.padic import (
    BudgetExceededError,
    ShortPatternB,
    _cyclotomic_sum,
    _gamma_product,
    _inverse_table,
    _rows_C,
    brute_force_G,
    closed_form_G,
    component_decomposition,
    cqc_layer_sums,
    decorate_B,
    decorate_C_literal,
    decorate_C_pullback,
    delta_C_resonant,
    g_delta,
    g_delta_C,
    i_box,
    in_cq1,
    in_cqc,
    iter_cq1_with_k,
    iter_cqc,
    k_vector_B,
    k_vector_C,
    l_vector,
    lemma3_closed,
    lemma3_direct,
    omega_of,
    omega_sets,
    preconditions_hold,
    prop5_sides,
    prop6_check,
    psi_k,
    resonant_lift,
)
from spinchar.gtpatterns import c_stats, top_row
from spinchar.rootdata import shifted_weight, upsilon

ONE = LaurentPoly.one(0)
QINV = LaurentPoly.monomial(0, qexp=-1)
Z = LaurentPoly.zero(0)


def qpow(n):
    return LaurentPoly.monomial(0, qexp=n)


def test_l_vector():
    assert l_vector(ShortPatternB((1, 1), (1, 1, 1))) == (1, 3, 3)
    assert l_vector(ShortPatternB((1, 1), (0, 0, 0))) == (0, 0, 0)
    # three-case formula at rank 3
    assert l_vector(ShortPatternB((1, 1, 1), (1, 0, 2, 0, 1))) == (1, 1, 4, 3, 3)


def test_gamma_tables():
    # gamma of one (boxed, circled) pair, gamma-tilde of one triple with entry
    assert _gamma_product([(False, False)]) == ONE - QINV
    assert _gamma_product([(True, False)]) == -QINV
    assert _gamma_product([(False, True)]) == ONE
    assert _gamma_product([(True, True)]) == Z
    assert _gamma_product([(True, False, 2)]) == -QINV
    assert _gamma_product([(True, False, 3)]) == LaurentPoly.monomial(0, qexp=Fraction(-1, 2))
    assert _gamma_product([(False, False, 3)]) == Z  # odd generic entries vanish
    assert _gamma_product([(False, True, 3)]) == ONE
    assert _gamma_product([(True, True, 2)]) == Z


def test_decorate_B_example():
    arr = decorate_B(ShortPatternB((1, 1), (0, 1, 0)))
    assert arr.entries == (1, 1, 0)
    assert arr.circled == (True, False, True)
    assert arr.boxed == (False, True, True)  # middle equality holds at d_r = mu_r
    # fully maximal tuple boxes every leading entry
    arr = decorate_B(ShortPatternB((2, 3), (2, 3, 2)))
    assert arr.boxed[0] and arr.boxed[1]
    arr = decorate_B(ShortPatternB((2, 2), (0, 0, 0)))
    assert all(arr.circled)
    assert g_delta(arr) == ONE


def test_decorate_B_of_the_resonant_lift():
    # the symmetric lift boxes entry i <= r at x_i = mu_i and entry r+k at
    # x_{r-k+1} = mu_{r-k+1}; entry r+k is circled at x_{r-k} = 0
    for mu in [(2,), (1, 2), (2, 1, 3), (1, 1, 2, 1)]:
        r = len(mu)
        for x in itertools.product(*(range(m + 2) for m in mu)):
            arr = decorate_B(ShortPatternB(mu, resonant_lift(x)))
            assert arr.boxed == tuple(x[i] == mu[i] for i in range(r)) + tuple(
                x[r - k] == mu[r - k] for k in range(1, r)
            )
            assert arr.circled == tuple(v == 0 for v in x) + tuple(
                x[r - k - 1] == 0 for k in range(1, r)
            )


def test_closed_form_cases():
    # outside the admissible set
    assert closed_form_G(ShortPatternB((1, 1), (2, 0, 0))) == Z
    # gamma product on the bounded cell
    t = ShortPatternB((2, 2), (1, 1, 0))
    assert closed_form_G(t) == (ONE - QINV) * (ONE - QINV)
    # resonant middle overflow, odd difference
    t = ShortPatternB((3, 1), (0, 2, 0))
    assert closed_form_G(t) == (ONE - QINV) * QINV
    # resonant middle overflow, even difference
    assert closed_form_G(ShortPatternB((3, 1), (0, 3, 0))) == Z
    # uncovered middle cells stay undefined
    assert closed_form_G(ShortPatternB((1, 1), (1, 2, 0))) is None
    assert closed_form_G(ShortPatternB((1, 1), (0, 0, 1))) is None


def test_brute_force_examples():
    assert brute_force_G(ShortPatternB((1, 1), (0, 0, 0)), 3) == 1
    assert brute_force_G(ShortPatternB((2, 2), (1, 1, 0)), 3) == Fraction(4, 9)
    for mu1 in (1, 2, 3):
        assert brute_force_G(ShortPatternB((mu1, 1), (0, 2, 0)), 3) == Fraction(2, 9)
    # rank-one raw Ramanujan-style sanity through the same phase machinery
    with pytest.raises(ValueError):
        brute_force_G(ShortPatternB((2,), (1,)), 3)


def test_budget_is_loud():
    t = ShortPatternB((3, 3), (3, 3, 3))
    with pytest.raises(BudgetExceededError):
        brute_force_G(t, 5, budget=10)


def test_budget_counts_every_residue_tuple(monkeypatch):
    # the phase grid spans only the axes its nonzero terms read, but the
    # budget counts every residue tuple: at (1, 1, 1) all 64 tuples share
    # one phase (every term vanishes mod p^cap), at (2, 1, 2) 1,600 tuples
    # fill a grid of 20 phases
    phases = []
    count = padic._cyclotomic_sum
    monkeypatch.setattr(
        padic,
        "_cyclotomic_sum",
        lambda phase, p, cap: phases.append(phase.size) or count(phase, p, cap),
    )
    for d, tuples, grid, want in [
        ((1, 1, 1), 64, 1, Fraction(64, 125)),
        ((2, 1, 2), 1600, 20, Fraction(-16, 125)),
    ]:
        t = ShortPatternB((2, 2), d)
        with pytest.raises(BudgetExceededError):
            brute_force_G(t, 5, budget=tuples - 1)
        phases.clear()
        assert brute_force_G(t, 5, budget=tuples) == want
        assert want == closed_form_G(t).evaluate({"q": 5})
        assert phases == [grid]


def test_inverse_table_is_cached_read_only():
    c, u = _inverse_table(5, 2, 1, 1)
    assert list(c) == [x for x in range(25) if x % 5]
    assert ((u - 5) * c % 5 == 1).all() and (u // 5 == 1).all()
    for arr in (c, u):
        with pytest.raises(ValueError):
            arr[0] = 1
    assert 0 < _inverse_table.cache_info().maxsize < 1 << 16
    again = _inverse_table(5, 2, 1, 1)
    assert again[0] is c and again[1] is u


def test_oracle_agreement_small():
    checked = 0
    for mu in itertools.product((1, 2), repeat=2):
        for d in itertools.product(range(3), repeat=3):
            t = ShortPatternB(mu, d)
            if not preconditions_hold(t):
                continue
            cf = closed_form_G(t)
            for p in (2, 3):
                bf = brute_force_G(t, p, budget=200_000)
                if cf is None:
                    assert bf == 0  # tested zero hypothesis
                    continue
                assert bf == cf.evaluate({"q": p}), (mu, d, p)
                checked += 1
    assert checked > 50


def test_oracle_is_exact():
    grid = [
        (itertools.product((1, 2), repeat=2), (2, 3)),
        # rank 3 first has the u_{j-1} c_j and -c u terms
        ([(1, 1, 1), (2, 1, 2)], (2, 3, 5)),
    ]
    decided = nonzero = 0  # rank-3 instances
    for mus, primes in grid:
        for mu in mus:
            r = len(mu)
            for d in itertools.product(range(3), repeat=2 * r - 1):
                t = ShortPatternB(mu, d)
                if not preconditions_hold(t):
                    continue
                cf = closed_form_G(t)
                for p in primes:
                    try:
                        bf = brute_force_G(t, p, budget=200_000)
                    except BudgetExceededError:
                        assert r == 3
                        continue
                    assert isinstance(bf, Fraction)
                    want = 0 if cf is None else cf.evaluate({"q": p})
                    assert bf == want, (mu, d, p)
                    for w in (1, 2):
                        assert brute_force_G(t, p, budget=200_000, u_shift=w) == bf
                    if r == 3:
                        decided += 1
                        nonzero += bf != 0
    assert (decided, nonzero) == (353, 150)


def test_cyclotomic_sum_rejects_irrational_counts():
    for phases in ([1], [0, 1], [0, 3]):
        with pytest.raises(RuntimeError):
            _cyclotomic_sum(np.array(phases, dtype=np.int64), 3, 2)
    # 2 + zeta^3 + zeta^6 = 1, and the full class 1 + 3Z/9Z adds 0
    assert _cyclotomic_sum(np.array([0, 0, 3, 6, 1, 4, 7]), 3, 2) == 1
    assert _cyclotomic_sum(np.zeros(3, dtype=np.int64), 5, 0) == 3
    # memory follows the distinct phases, not the 3^20 residues mod 3^20
    tracemalloc.start()
    try:
        got = _cyclotomic_sum(np.array([0, 3**19, 2 * 3**19]), 3, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 0 and peak < 1 << 20


def test_representative_independence():
    t = ShortPatternB((2, 2), (1, 1, 1))
    base = brute_force_G(t, 3)
    for w in (1, 2):
        assert brute_force_G(t, 3, u_shift=w) == base


def test_delta_c_from_short_pattern():
    # rank-1-style degenerate head: single entry boxed iff maximal
    mup = (2, 1)
    assert in_cqc((2, 1, 0), mup)
    b1, _ = _rows_C((2, 1, 0), top_row(mup))
    assert b1 == (3, 1)  # fully maximal b-row
    arr = decorate_C_pullback((2, 1, 0), mup)
    assert arr.boxed[0] and arr.boxed[1]
    # literal and pullback decorations agree away from degenerate tuples
    for mp in [(2, 1), (4, 3)]:
        for d in iter_cqc(mp):
            lit = decorate_C_literal(d, mp)
            pull = decorate_C_pullback(d, mp)
            if (lit.boxed, lit.circled) != (pull.boxed, pull.circled):
                # divergence allowed only where the tuple has no pattern
                # partner; both weights must then vanish on the pullback
                assert g_delta_C(pull) == Z


def test_flavor_c_caps():
    # iter_cqc lists exactly the tuples in_cqc admits, and the literal rule
    # boxes an entry exactly at its cap (the admitted maximum)
    for mp in [(2, 1), (0, 2), (3, 0, 1), (2, 2, 1)]:
        r = len(mp)
        box = itertools.product(range(5), repeat=2 * r - 1)
        assert list(iter_cqc(mp)) == [d for d in box if in_cqc(d, mp)]
        for d in iter_cqc(mp):
            boxed = decorate_C_literal(d, mp).boxed
            for i, x in enumerate(d):
                up = d[:i] + (x + 1,) + d[i + 1 :]
                if i < r:
                    assert boxed[i] == (x == mp[i])
                else:  # a tail entry's cap does not move with it
                    assert boxed[i] == (not in_cqc(up, mp))


@pytest.mark.parametrize("d", [(1, 0, 0, 7), (1, 0, 0, 5), (1, 0), ()])
def test_flavor_c_rejects_wrong_length(d):
    # a rank-2 tuple has length 3: longer ones are not truncated, shorter
    # ones raise ValueError rather than IndexError
    for f in (in_cqc, decorate_C_literal, decorate_C_pullback):
        with pytest.raises(ValueError, match="length"):
            f(d, (2, 1))


def test_pullback_flags_follow_the_pattern_rows():
    # the flags read off d against the maximality / minimality equations
    # spelled out on the three pattern rows of d, entry by entry
    for mp in [(2, 1), (0, 2), (4, 3), (3, 0, 1), (2, 2, 1), (4, 2, 1), (2, 2, 2, 1)]:
        r, a0 = len(mp), top_row(mp)
        for d in iter_cqc(mp):
            b1, a1 = _rows_C(d, a0)
            boxed = [b1[j] == a0[j] for j in range(r)]
            circled = [b1[j] == a0[j + 1] for j in range(r - 1)] + [b1[r - 1] == 0]
            for j in range(r - 2, -1, -1):  # cbar_{j+1} <-> a_{1,j+2}
                boxed.append(a1[j] == b1[j + 1])
                circled.append(
                    a1[j] == b1[j]
                    or (j == r - 2 and a1[j] == 0)
                    or (j < r - 2 and a1[j] == a1[j + 1])
                )
            arr = decorate_C_pullback(d, mp)
            assert (list(arr.boxed), list(arr.circled)) == (boxed, circled), (mp, d)
            cb, ca = c_stats(a0, b1, a1)
            for j in range(1, r + 1):
                assert (cb[j - 1] - arr.entries[j - 1]) % 2 == 0
            for j in range(1, r):
                assert ca[j - 1] == arr.entries[2 * r - 1 - j]


def test_gamma_product_counts_the_factors():
    # the counted product against the factor-by-factor one of the spelled
    # out weights: every gamma flag tuple up to length 5, and every
    # gamma-tilde one (entries 0..3) up to order, which a commutative
    # product does not see
    even = {
        (True, True): Z,
        (True, False): -QINV,
        (False, True): ONE,
        (False, False): ONE - QINV,
    }
    root = LaurentPoly.monomial(0, qexp=Fraction(-1, 2))
    odd = {**even, (True, False): root, (False, False): Z}
    pairs = list(even)
    triples = [p + (e,) for p in pairs for e in range(4)]

    def by_factors(flags):
        out = ONE
        for b, c, *e in flags:
            out = out * (odd if e and e[0] % 2 else even)[b, c]
        return out

    for n in range(6):
        for flags in itertools.product(pairs, repeat=n):
            assert _gamma_product(flags) == by_factors(flags), flags
        for flags in itertools.combinations_with_replacement(triples, n):
            assert _gamma_product(flags) == by_factors(flags), flags


def test_cqc_layer_sums_match_the_per_tuple_sum():
    # the counted buckets against the weights of the pulled-back arrays,
    # summed tuple by tuple: ranks 1-3 with entries <= 4 and sum <= 9, and
    # the tops of the three rank-4 bridge weights
    tops = [
        mp for r in (1, 2, 3) for mp in itertools.product(range(5), repeat=r)
        if sum(mp) <= 9
    ]
    tops += [shifted_weight(lam) for lam in ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1))]
    for mp in tops:
        r = len(mp)
        acc = {}
        for d in iter_cqc(mp):
            val = g_delta_C(decorate_C_pullback(d, mp))
            if val:
                key = k_vector_C(d, r)
                acc[key] = acc.get(key, Z) + val
        assert cqc_layer_sums(mp) == {k: v for k, v in acc.items() if v}, mp


def test_g_delta_C_values():
    # all-even unboxed uncircled entries
    arr = decorate_C_pullback((1, 1, 1), upsilon((1, 2)))
    vals = [
        _gamma_product([(b, c, e)]) for e, b, c in zip(arr.entries, arr.boxed, arr.circled)
    ]
    assert g_delta_C(arr) == vals[0] * vals[1] * vals[2]
    # totally resonant corrections: both spec examples evaluate to zero
    assert g_delta_C(delta_C_resonant((0, 1), (2, 1))) == Z
    assert g_delta_C(delta_C_resonant((1, 0), (2, 1))) == Z
    # maximal resonant tuple gives -q^{1-2r}
    assert g_delta_C(delta_C_resonant((2, 1), (2, 1))) == -qpow(-3)


def test_omega_sets():
    assert list(omega_sets((1, 1), ">=", weighting="B", k=1)) + list(
        omega_sets((1, 1), "<", weighting="B", k=1)
    ) == [(0, 1)]
    assert sorted(omega_sets(upsilon((1, 1)), "<=", weighting="A", k=1)) == [
        (0, 1),
        (1, 0),
    ]
    assert i_box((2, 1), (2, 2)) == 2
    with pytest.raises(ValueError):
        i_box((2, 2), (2, 2))


def test_omega_of_fibers():
    mu = (2, 2)
    # box index of (1,2) is 1, so both coordinates are capped by s
    assert set(omega_of((1, 2), mu)) == {
        (x1, x2) for x1 in (0, 1) for x2 in (0, 1, 2)
    }
    assert set(omega_of((2, 1), mu)) == {(2, 0), (2, 1)}
    assert len(set(omega_of(mu, mu))) == 9  # maximal tuple owns the whole box


def test_lemma3():
    # rank one: maximal gives zero, otherwise q^{b}
    assert lemma3_direct((2,), (2,)) == Z
    assert lemma3_direct((1,), (2,)) == qpow(1)
    assert lemma3_closed((1,), (2,)) == qpow(1)
    for mu in [(2, 2), (1, 2), (3, 1), (2, 1, 1)]:
        for s in omega_sets(mu, "<="):
            direct = lemma3_direct(s, mu)
            if s == mu:
                assert direct == Z
            else:
                assert direct == lemma3_closed(s, mu)


def test_prop5_boundaries():
    lhs, rhs = prop5_sides((1, 1), 1)
    assert lhs == rhs == Z  # corrected value: both sides vanish
    bound = 1 + 2 * 1
    lhs, rhs = prop5_sides((1, 1), bound)
    assert lhs == rhs == -qpow(-3)
    lhs, rhs = prop5_sides((1, 1), bound + 2)
    assert lhs == rhs == Z


def test_prop5_sweep():
    for r in (2, 3):
        for mu in itertools.product((1, 2, 3, 4), repeat=r):
            if sum(mu) > 6:
                continue
            for kr in range(mu[-1] + 2 * sum(mu[:-1]) + 3):
                lhs, rhs = prop5_sides(mu, kr)
                assert lhs == rhs, (mu, kr)


def test_prop6_instances():
    res = prop6_check((1, 1), (2, 2), 3)
    assert res.verdict
    assert prop6_check((2, 2), (3, 2), 5).verdict
    assert prop6_check((1, 1, 1), (1, 2, 2), 3).verdict
    # k = 0 keeps only the zero tuple on both sides
    res = prop6_check((2, 2), (0, 0), 3)
    assert res.verdict and res.rhs == 1


def test_prop6_constant_k_reduces_to_resonant():
    for mu in [(1, 1), (2, 1), (2, 2)]:
        for k in range(5):
            lhs, rhs = prop5_sides(mu, k)
            res = prop6_check(mu, (k,) * len(mu), 3)
            assert res.verdict
            assert abs(complex(rhs.evaluate({"q": 3})) - complex(res.rhs)) < 1e-12


def test_prop6_is_exact_on_the_criterion_8_grid():
    # criterion 8 compares within 1e-6; the sides are exact rationals, so
    # on its grid they must be equal
    for r in (2, 3):
        for p in (3, 5):
            for mu in itertools.product((1, 2), repeat=r):
                for k in itertools.product(range(5), repeat=r):
                    res = prop6_check(mu, k, p)
                    assert res.lhs == res.rhs, (mu, k, p)


def test_component_decomposition():
    comps, xi = component_decomposition((5, 5, 2), (3, 3, 3))
    assert len(comps) == 2
    assert (comps[0].lo, comps[0].hi, comps[0].b) == (1, 2, 3)
    assert comps[1].values == (2,)
    assert all(2 * x[0] + 3 + x[1] == 5 for x in xi)
    comps, _ = component_decomposition((2, 2, 2), (1, 1, 1))
    assert len(comps) == 1
    comps, _ = component_decomposition((4, 2, 1), (1, 1, 1))
    assert len(comps) == 3 and all(c.lo == c.hi for c in comps)


def test_psi_k_bijection():
    # image of the fiber equals the disjoint union over the weight set
    for mu in [(1, 1), (2, 1), (1, 1, 1), (2, 1, 2)]:
        r = len(mu)
        for kvec in itertools.product(range(4), repeat=r):
            comps, xi = component_decomposition(kvec, mu)
            fiber = list(iter_cq1_with_k(mu, kvec))
            images = [tuple(psi_k(t.d, kvec, mu)) for t in fiber]
            assert len(set(images)) == len(images)  # injective
            target = set()
            for x in xi:
                pools = []
                for c, xi_i in zip(comps[:-1], x[:-1]):
                    pools.append(
                        list(omega_sets(c.mu_adj, "<=", weighting="A", k=xi_i))
                    )
                last = comps[-1]
                pools.append(
                    list(omega_sets(last.mu_adj, ">=", weighting="B", k=x[-1]))
                    + list(omega_sets(last.mu_adj, "<", weighting="B", k=x[-1]))
                )
                target |= set(itertools.product(*pools))
            assert set(images) == target, (mu, kvec)


def test_k_even_support():
    # nonzero flavor-C products only on even weighting vectors (before last)
    for mup in [(2, 1), (4, 3), (2, 2, 1), (4, 2, 1)]:
        r = len(mup)
        for d in iter_cqc(mup):
            if g_delta_C(decorate_C_pullback(d, mup)):
                kc = k_vector_C(d, r)
                assert all(x % 2 == 0 for x in kc[: r - 1]), (mup, d, kc)


def test_odd_parity_lemma():
    # nonzero products have even d_i, d_{2r-i} before the final component
    for mup_src in [(2, 1), (2, 2), (1, 1, 1), (2, 1, 1)]:
        mup = upsilon(mup_src)
        r = len(mup)
        for d in iter_cqc(mup):
            if not g_delta_C(decorate_C_pullback(d, mup)):
                continue
            kc = k_vector_C(d, r)
            from spinchar.rootdata import upsilon_inverse

            k = upsilon_inverse(kc)
            comps, _ = component_decomposition(k, mup_src)
            lo_last = comps[-1].lo
            for i in range(1, lo_last):
                assert d[i - 1] % 2 == 0 and d[2 * r - i - 1] % 2 == 0


def test_disjointness_and_partition():
    for mu in [(1, 1), (2, 1), (2, 2), (2, 2, 1)]:
        for k in range(sum(mu) + 1):
            elems = list(omega_sets(mu, "<=", weighting="A", k=k))
            fibers = [set(omega_of(s, mu)) for s in elems]
            for i in range(len(fibers)):
                for j in range(i + 1, len(fibers)):
                    assert not (fibers[i] & fibers[j])


def test_partition_of_overflow_block():
    for mu in [(1, 1), (2, 1), (2, 2), (2, 2, 1)]:
        muT = mu[:-1]
        top = mu[-1] + 2 * sum(muT)
        for kr in range(top):
            if (kr - mu[-1]) % 2 == 0:
                continue
            kc = (kr - mu[-1] - 1) // 2
            if kc < 0:
                continue
            whole = set(omega_sets(mu, ">", weighting="B", k=kr))
            parts = []
            for s in omega_sets(muT, "<=", weighting="A", k=kc):
                block = set()
                for x in omega_of(s, muT):
                    dr = kr - 2 * sum(x)
                    if dr > mu[-1]:
                        block.add(tuple(x) + (dr,))
                parts.append(block)
            union = set().union(*parts) if parts else set()
            assert union == whole
            assert sum(len(b) for b in parts) == len(union)


def test_rho_bijections():
    for mu in [(1, 1), (2, 1), (2, 2), (1, 2)]:
        r = len(mu)
        mup = upsilon(mu)
        muT = mu[:-1]
        bound = mu[-1] + 2 * sum(muT)
        for kr in range(bound):  # the lemma's hypothesis k_r < bound
            if (kr - mu[-1]) % 2 == 0:
                continue
            kc = (kr - mu[-1] - 1) // 2
            dom = []
            for s in omega_sets(mup, "=", weighting="A", k=kr):
                if s == mup:
                    continue
                ib = i_box(s, mup)
                good = True
                for i in range(1, r):
                    if ib == i:
                        if (s[i - 1] - (kr - mu[-1])) % 2:
                            good = False
                    elif s[i - 1] % 2:
                        good = False
                if good:
                    dom.append((s, ib))
            image = {
                tuple(
                    (s[i] - 1) // 2 if i == ib - 1 else s[i] // 2
                    for i in range(r - 1)
                )
                for s, ib in dom
            }
            target = set(omega_sets(muT, "<=", weighting="A", k=kc)) if kc >= 0 else set()
            assert len(image) == len(dom) and image == target


def test_flavor_b_weighting_vector():
    t = ShortPatternB((2, 2), (1, 1, 1))
    assert k_vector_B(t) == (3, 3)  # totally resonant: constant vector
    assert k_vector_B(ShortPatternB((2, 2), (1, 2, 0))) == (3, 2)
    assert in_cq1(t)
    assert resonant_lift((1, 2)) == (1, 2, 1)
    assert resonant_lift((1, 2, 3)) == (1, 2, 3, 2, 1)


def test_resonant_closed_G_raises_without_asserts():
    # a resonant middle the closed form does not cover stops the sum under
    # python -O too
    code = (
        "from spinchar import padic\n"
        "padic.closed_form_G = lambda t: None\n"
        "try:\n"
        "    padic.resonant_closed_G((1, 1), (2, 2))\n"
        "except AssertionError:\n"
        "    raise SystemExit(3)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 3, out.stderr
