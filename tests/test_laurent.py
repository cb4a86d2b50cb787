import re
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchar import laurent
from spinchar.laurent import (
    _BLOCK_PAIRS,
    PACKED_MIN_PAIRS,
    LaurentPoly,
    Monomial,
    NonExactDivisionError,
    RankMismatchError,
    SubstitutionError,
    _mul_dict,
    _mul_packed,
    _twice,
    mul_terms,
)
from spinchar.rootdata import character, deformed_denominator


def z(i, rank=2, half=False):
    return LaurentPoly.z_var(rank, i, half=half)


def t(rank=2):
    return LaurentPoly.t_var(rank)


def test_halfint_basics():
    assert _twice(3) == 6
    assert _twice(Fraction(11, 2)) == 11
    assert _twice(Fraction(-4, 2)) == -4
    assert str(LaurentPoly.monomial(1, zexp=(Fraction(11, 2),))) == "1 * z1^{11/2}"
    assert str(LaurentPoly.monomial(0, qexp=-2)) == "1 * q^{-2}"
    with pytest.raises(ValueError):
        _twice(Fraction(1, 3))
    with pytest.raises(ValueError):
        LaurentPoly.monomial(1, qexp=Fraction(1, 3))


def test_add_cancellation_and_identity():
    p = z(1) + LaurentPoly.one(2)
    assert p + LaurentPoly.const(-1, 2) == z(1)
    assert p + LaurentPoly.zero(2) == p
    one_t = LaurentPoly.one(2) + t()
    assert one_t + one_t == 2 * LaurentPoly.one(2) + 2 * t()


def test_mul_examples():
    half = z(1, half=True)
    assert half * half == z(1)
    a = LaurentPoly.one(1) + LaurentPoly.t_var(1) * LaurentPoly.z_var(1, 1)
    b = LaurentPoly.one(1) + LaurentPoly.t_var(1) * LaurentPoly.z_var(1, 1).inverse_monomial()
    prod = a * b
    expected = LaurentPoly.parse(
        "1 * z1 t + 1 * t^{2} + 1 + 1 * z1^{-1} t", 1
    )
    assert prod == expected
    assert a * LaurentPoly.zero(1) == LaurentPoly.zero(1)


def test_rank_mismatch():
    with pytest.raises(RankMismatchError):
        LaurentPoly.one(1) + LaurentPoly.one(2)


def test_div_exact_geometric():
    num = LaurentPoly.z_var(1, 1) - LaurentPoly.z_var(1, 1).inverse_monomial()
    den = LaurentPoly.z_var(1, 1, half=True) - LaurentPoly.z_var(
        1, 1, half=True
    ).inverse_monomial()
    q = num.div_exact(den)
    assert q == LaurentPoly.parse("1 * z1^{1/2} + 1 * z1^{-1/2}", 1)


def test_div_exact_error_carries_remainder():
    a = LaurentPoly.z_var(1, 1) + LaurentPoly.one(1)
    b = LaurentPoly.z_var(1, 1) - LaurentPoly.one(1)
    with pytest.raises(NonExactDivisionError) as err:
        a.div_exact(b)
    assert err.value.remainder is not None
    assert err.value.remainder != LaurentPoly.zero(1)


def test_substitute_examples():
    one_plus_t = LaurentPoly.one(1) + LaurentPoly.t_var(1)
    minus_qinv = LaurentPoly.monomial(1, qexp=-1, coef=-1)
    out = one_plus_t.substitute({"t": minus_qinv})
    assert out == LaurentPoly.parse("1 + -1 * q^{-1}", 1)
    tmax = LaurentPoly.monomial(1, texp=3)
    assert tmax.substitute({"t": 0}) == LaurentPoly.zero(1)
    qhalf = LaurentPoly.monomial(1, qexp=Fraction(1, 2))
    assert qhalf.substitute({"q": 9}) == LaurentPoly.const(3, 1)
    with pytest.raises(SubstitutionError):
        qhalf.substitute({"q": 3})
    with pytest.raises(SubstitutionError):  # bindings are numbers or single terms
        tmax.substitute({"t": one_plus_t})


def test_coefficient_of_examples():
    p = z(1) * t() + z(2)
    assert p.coefficient_of({"z1": 1}) == t()
    assert LaurentPoly.zero(2).coefficient_of({"z1": 1}) == LaurentPoly.zero(2)
    assert p.coefficient_of({"z1": 1, "t": 1}) == LaurentPoly.one(2)
    with pytest.raises(ValueError, match="t exponent must be an integer"):
        p.coefficient_of({"t": Fraction(1, 2)})


@pytest.mark.parametrize("name", ["w", "z3", "z0", "z01", "", "T"])
def test_unknown_variable_names_are_rank_mismatches(name):
    # Every name-keyed operation resolves names through one map, so each
    # rejects a name that is not a variable at rank 2, even on the zero
    # polynomial, where no term reaches the lookup.
    for p in (z(1) * t() + z(2), LaurentPoly.zero(2)):
        with pytest.raises(RankMismatchError, match="z1, z2, t, q"):
            p.substitute({name: 1})
        with pytest.raises(RankMismatchError):
            p.evaluate({"z1": 1, "z2": 1, "t": 1, name: 1})
        with pytest.raises(RankMismatchError):
            p.coefficient_of({name: 1})


def test_substitution_is_simultaneous():
    # z1 -> t and t -> 0 at once: the t that z1 brings in is not bound again.
    p = z(1) + t()
    assert p.substitute({"z1": t(), "t": 0}) == t()
    assert p.substitute({"t": 0, "z1": t()}) == t()
    # z1^(1/2) z2^(1/2) -> t^(1/2) t^(1/2) needs a square binding for each.
    with pytest.raises(SubstitutionError, match="square"):
        (z(1, half=True) * z(2, half=True)).substitute({"z1": t(), "z2": t()})


def test_evaluate_reports_unbound_and_zero_to_negative_powers():
    with pytest.raises(SubstitutionError, match="unbound variable t"):
        (z(1) + t()).evaluate({"z1": 2})
    qinv_half = LaurentPoly.monomial(0, qexp=Fraction(-1, 2))
    for p in (LaurentPoly.monomial(0, qexp=-1), qinv_half):
        with pytest.raises(SubstitutionError, match="zero to a negative power"):
            p.evaluate({"q": 0})


def test_keys_are_flat_tuples_of_doubled_exponents():
    assert Monomial((1, -2), 3, 5) == (1, -2, 6, 5)
    assert LaurentPoly({Monomial((1,), 2, -1): 3}, 1) == LaurentPoly.monomial(
        1, zexp=(Fraction(1, 2),), texp=2, qexp=Fraction(-1, 2), coef=3
    )
    for key in ((0, 0, 0), (0, 0, 0, 0, 0), ((0, 0), 0, 0)):
        with pytest.raises(RankMismatchError):
            LaurentPoly({key: 1}, 2)
    for tslot in (-2, 1, 3):  # t^(-1), t^(1/2), t^(3/2)
        with pytest.raises(ValueError, match="t exponent"):
            LaurentPoly({(0, 0, tslot, 0): 1}, 2)


def test_terms_differing_in_t_and_q_print_in_key_order():
    def m(texp, qexp, coef):
        return LaurentPoly.monomial(
            1, zexp=(Fraction(1, 2),), texp=texp, qexp=qexp, coef=coef
        )

    p = (m(0, 0, 1) + m(1, Fraction(-1, 2), -2) + m(2, 1, 3) + m(1, 0, -1)
         + m(2, Fraction(3, 2), 1) + m(0, -1, 5) + m(1, 2, 1))
    assert str(p) == (
        "1 * z1^{1/2} t^{2} q^{3/2} + 3 * z1^{1/2} t^{2} q + 1 * z1^{1/2} t q^{2}"
        " + -1 * z1^{1/2} t + -2 * z1^{1/2} t q^{-1/2} + 1 * z1^{1/2}"
        " + 5 * z1^{1/2} q^{-1}"
    )


def test_serialize_deterministic():
    p = z(1) * t() + z(2) - LaurentPoly.const(3, 2)
    assert str(p) == str(LaurentPoly.parse(str(p), 2))
    assert str(LaurentPoly.zero(2)) == "0"
    assert LaurentPoly.parse("0", 2) == LaurentPoly.zero(2)


@pytest.mark.parametrize(
    "text, name", [("1 * z1 z1", "z1"), ("1 * t q t^{2}", "t")], ids=str
)
def test_parse_refuses_a_variable_named_twice_in_a_term(text, name):
    # str() writes each variable once per term; a repeat was silently
    # overwritten by its last factor
    with pytest.raises(ValueError, match=f"variable {name} named twice"):
        LaurentPoly.parse(text, 1)


@pytest.mark.parametrize(
    "text",
    ["1 + 1", "1 * z1^{0}", "0 * z1", "1 * z1^{1}", "1 * z1^{2/2}", "1 + 1 * z1"],
    ids=str,
)
def test_parse_refuses_text_that_str_never_writes(text):
    # a repeated monomial, a zero exponent or coefficient, an exponent str()
    # would spell otherwise, or terms out of order were folded silently
    with pytest.raises(ValueError):
        LaurentPoly.parse(text, 1)


# -- property tests ------------------------------------------------------


def monomials(rank):
    return st.builds(
        Monomial,
        st.tuples(*(st.integers(-6, 6) for _ in range(rank))),
        st.integers(0, 4),
        st.integers(-6, 6),
    )


def polys(rank=2):
    return st.dictionaries(monomials(rank), st.integers(-9, 9), max_size=12).map(
        lambda d: LaurentPoly(d, rank)
    )


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_mul_then_div_round_trip(a, b):
    if not b:
        return
    assert (a * b).div_exact(b) == a


@given(polys())
@settings(max_examples=60, deadline=None)
def test_serialize_parse_round_trip(p):
    assert LaurentPoly.parse(str(p), p.rank) == p


def _mutations(text):
    """Near-canonical variants of str(P): two terms swapped, a term
    repeated, an exponent 1 written ^{1} or ^{2/2}, a coefficient made 0,
    or a space doubled."""
    terms = text.split(" + ")
    swaps = [
        " + ".join(terms[:i] + [terms[j]] + terms[i + 1:j] + [terms[i]] + terms[j + 1:])
        for i in range(len(terms)) for j in range(i + 1, len(terms))
    ]
    repeats = [" + ".join(terms[:i + 1] + terms[i:]) for i in range(len(terms))]
    bare = [m.end() for m in re.finditer(r"\b(z\d+|t|q)\b(?!\^)", text)]
    ones = [text[:i] + exp + text[i:] for i in bare for exp in ("^{1}", "^{2/2}")]
    zeros = [
        " + ".join(terms[:i] + [re.sub(r"^-?\d+", "0", terms[i])] + terms[i + 1:])
        for i in range(len(terms))
    ]
    spaces = [text[:i] + " " + text[i:] for i, c in enumerate(text) if c == " "]
    return swaps + repeats + ones + zeros + spaces


@pytest.mark.parametrize("rank", range(4))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_parse_accepts_exactly_what_str_writes(rank, data):
    p = data.draw(polys(rank))
    text = str(p)
    assert LaurentPoly.parse(text, rank) == p
    for mutated in _mutations(text):
        try:
            q = LaurentPoly.parse(mutated, rank)
        except ValueError:
            continue
        assert str(q) == mutated.strip(), mutated


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_substitute_is_homomorphism(a, b):
    minus_qinv = LaurentPoly.monomial(2, qexp=-1, coef=-1)
    bindings = {"t": minus_qinv, "z1": LaurentPoly.z_var(2, 1).inverse_monomial()}
    lhs = (a * b).substitute(bindings)
    rhs = a.substitute(bindings) * b.substitute(bindings)
    assert lhs == rhs
    assert (a + b).substitute(bindings) == a.substitute(bindings) + b.substitute(
        bindings
    )


_POINT = {
    "z1": Fraction(4, 9),
    "z2": Fraction(1, 4),
    "t": Fraction(2),
    "q": Fraction(9, 4),
}


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_evaluate_is_a_ring_map(a, b):
    # square rational values so half-integer exponents evaluate exactly
    assert (a + b).evaluate(_POINT) == a.evaluate(_POINT) + b.evaluate(_POINT)
    assert (a * b).evaluate(_POINT) == a.evaluate(_POINT) * b.evaluate(_POINT)


# -- the packed product against the dict loop, which is its oracle ---------


def term_maps(rank, lo, hi, coefs, min_size, max_size):
    """Term maps of min_size..max_size terms, exponents in [lo, hi]."""
    exps = st.integers(lo, hi)
    monos = st.builds(
        Monomial, st.tuples(*(exps for _ in range(rank))), st.integers(0, hi), exps
    )
    return st.dictionaries(
        monos, coefs.filter(bool), min_size=min_size, max_size=max_size
    )


@pytest.mark.parametrize("sizes", ((0, 20), (64, 90)), ids=("below", "above"))
@pytest.mark.parametrize("rank", range(5))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_packed_product_matches_dict_loop(rank, sizes, data):
    # Each factor has a term count in `sizes`: every product is below
    # PACKED_MIN_PAIRS or every one is above it.  Exponents are narrow, so
    # many pairs share a monomial.
    maps = term_maps(rank, -8, 8, st.integers(-9, 9), *sizes)
    a, b = data.draw(maps), data.draw(maps)
    want = _mul_dict([(a, b)])
    assert _mul_packed([(a, b)]) == want
    assert _mul_packed([(b, a)]) == want
    assert (LaurentPoly(a, rank) * LaurentPoly(b, rank)).terms == want


@pytest.mark.parametrize("rank", (0, 3))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_packed_product_has_no_fixed_width(rank, data):
    maps = term_maps(rank, -(10**6), 10**6, st.integers(-(2**70), 2**70), 0, 12)
    a, b = data.draw(maps), data.draw(maps)
    assert _mul_packed([(a, b)]) == _mul_dict([(a, b)])


def test_packed_product_drops_cancelled_terms():
    # (z1 - z2) (z1^(n-1) + z1^(n-2) z2 + ... + z2^(n-1)) t q^(1/2)
    # = (z1^n - z2^n) t q^(1/2): all the middle terms cancel.
    n = PACKED_MIN_PAIRS
    a = {Monomial((2, 0), 0, 0): 1, Monomial((0, 2), 0, 0): -1}
    b = {Monomial((2 * (n - 1 - i), 2 * i), 1, 1): 1 for i in range(n)}
    want = {Monomial((2 * n, 0), 1, 1): 1, Monomial((0, 2 * n), 1, 1): -1}
    assert _mul_dict([(a, b)]) == want
    assert _mul_packed([(a, b)]) == want
    assert (LaurentPoly(a, 2) * LaurentPoly(b, 2)).terms == want


@pytest.mark.parametrize("n", (1, PACKED_MIN_PAIRS), ids=("below", "above"))
def test_products_take_zero_coefficients(n):
    # A slice tally can hold counts that cancel to 0: both kernels take them,
    # and a zero product leaves no term.
    a = {Monomial((0, 0), 0, 0): 0, Monomial((2, 0), 0, 0): 1}
    b = {Monomial((0, 2 * j), 1, 0): 1 + j for j in range(n)}
    b[Monomial((0, -2), 0, 1)] = 0
    want = {Monomial((2, 2 * j), 1, 0): 1 + j for j in range(n)}
    assert _mul_dict([(a, b)]) == want
    assert _mul_packed([(a, b)]) == want
    assert _mul_dict([(b, a)]) == _mul_packed([(b, a)]) == want


@pytest.mark.parametrize("sizes", ((0, 8), (16, 40)), ids=("below", "above"))
@pytest.mark.parametrize("rank", (0, 2))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_products_of_several_pairs_sum(rank, sizes, data):
    # Pairs whose exponents lie far apart share one field layout; each pair
    # may hold zero coefficients, and a pair may be empty.
    maps = term_maps(rank, -6, 6, st.integers(-9, 9), *sizes)
    pairs = []
    for base in data.draw(st.lists(st.integers(-40, 40), min_size=1, max_size=4)):
        a, b = data.draw(maps), data.draw(maps)
        zeros = data.draw(st.lists(st.sampled_from(sorted(a)), max_size=2)) if a else []
        shift = Monomial((base,) * rank, 0, base)
        a = {tuple(map(add, m, shift)): 0 if m in zeros else c for m, c in a.items()}
        pairs.append((a, b))
    want = LaurentPoly.zero(rank)
    for a, b in pairs:
        want = want + LaurentPoly(a, rank) * LaurentPoly(b, rank)
    assert _mul_dict(pairs) == want.terms
    assert _mul_packed(pairs) == want.terms
    assert mul_terms(pairs) == want.terms


def test_packed_product_on_a_rank_four_character():
    d, chi = deformed_denominator(4).terms, character((1, 0, 0, 0), 4).terms
    assert len(d) * len(chi) >= PACKED_MIN_PAIRS
    assert _mul_packed([(d, chi)]) == _mul_dict([(d, chi)])


# -- the int64 guards and the blocks of the packed product ------------------


@pytest.fixture
def fallbacks(monkeypatch):
    """The products that _mul_packed hands to _mul_dict.  The tests call
    the _mul_dict imported above as their oracle, which is not recorded."""
    seen = []

    def recording(pairs):
        seen.append(pairs)
        return _mul_dict(pairs)

    monkeypatch.setattr(laurent, "_mul_dict", recording)
    return seen


@pytest.mark.parametrize("q_span, bits", ((1 << 13, 62), (1 << 14, 63)))
def test_packed_product_field_width_guard(fallbacks, q_span, bits):
    # (1 + X)(1 - X) = 1 - X^2 with X spanning (2^14, 2^14, 2^13, q_span) in
    # the doubled slots: the product's fields are 16 + 16 + 15 bits wide,
    # plus 15 (62 in all, packed) or 16 (63, the dict loop) for q.
    x = (1 << 14, 1 << 14, 1 << 13, q_span)
    zero = (0, 0, 0, 0)
    a, b = {zero: 1, x: 1}, {zero: 1, x: -1}
    want = {zero: 1, tuple(2 * e for e in x): -1}
    assert sum((2 * e).bit_length() for e in x) == bits
    assert _mul_dict([(a, b)]) == want
    assert _mul_packed([(a, b)]) == want
    assert len(fallbacks) == (bits > 62)


@pytest.mark.parametrize("bound", ((1 << 62) - 1, 1 << 62))
def test_packed_product_coefficient_guard(fallbacks, bound):
    # sum|a| * max|b| is 2^62 - 1 = (2^31 - 1)(2^31 + 1), packed, or
    # 2^62 = 2^31 2^31, the dict loop; the coefficient of z1 reaches it,
    # since every pair lands there.
    one, z1 = Monomial((0,)), Monomial((2,))
    top = 1 << 31
    if bound < 1 << 62:
        a, b = {one: 1 << 30, z1: (1 << 30) - 1}, {z1: top + 1, one: top + 1}
    else:
        a, b = {one: 1 << 30, z1: 1 << 30}, {z1: top, one: top}
    assert sum(map(abs, a.values())) * max(map(abs, b.values())) == bound
    got = _mul_packed([(a, b)])
    assert got == _mul_dict([(a, b)])
    assert got[z1] == bound
    assert len(fallbacks) == (bound >= 1 << 62)


@pytest.mark.parametrize(
    "base", ((1 << 62) - 3, 1 << 62, 1 << 63, 1 << 70, -(1 << 63), -(1 << 80))
)
def test_packed_product_far_exponents(fallbacks, base):
    # Exponents near, at or beyond the int64 range, each slot spanning a few
    # units: the fields are narrow, but int64 cannot hold (or add) the
    # exponents, so the product must go to the dict loop, not overflow.
    a = {Monomial((base, 3), 1, base): 2, Monomial((base + 2, -1), 0, base - 1): -1}
    b = {Monomial((-base, 0), 2, 5): 3, Monomial((7 - base, 1), 0, 4): 1}
    far = max(abs(e) for key in (*a, *b) for e in key) >= 1 << 62
    assert _mul_packed([(a, b)]) == _mul_dict([(a, b)])
    assert len(fallbacks) == far


@pytest.mark.parametrize(
    "m, n",
    ((255, 257), (256, 256), (1, _BLOCK_PAIRS + 1), (257, 256), (2, _BLOCK_PAIRS // 2 + 1)),
    ids=("B-1", "B", "B+1", "rows-split", "columns-split"),
)
def test_packed_product_at_block_boundaries(fallbacks, m, n):
    # Pair counts at _BLOCK_PAIRS (B) and one pair either side of it (B+1
    # is one row, a block over B), and two products that take two blocks:
    # 257 rows of 256, and two rows of B/2 + 1, one block each; key sums
    # collide within a block and across blocks.
    a = {Monomial((i % 17, -(i // 17)), i % 2, 0): (-1) ** i * (1 + i % 3) for i in range(m)}
    b = {Monomial((j % 23, j // 23), 0, j % 3): 1 + j % 4 for j in range(n)}
    assert len(a) == m and len(b) == n
    want = _mul_dict([(a, b)])
    assert _mul_packed([(a, b)]) == want
    assert (LaurentPoly(a, 2) * LaurentPoly(b, 2)).terms == want
    assert not fallbacks


def test_packed_product_cancels_across_blocks(fallbacks):
    # A product of nonzero polynomials never vanishes, so the most that can
    # cancel is all but two terms:
    # (z1 - z2^-1) (z1^(n-1) + z1^(n-2) z2^-1 + ... + z2^-(n-1)) t q^(1/2)
    # = (z1^n - z2^-n) t, with n = B, takes one block per term of the first
    # factor, and each term the second block makes cancels one of the first.
    n = _BLOCK_PAIRS
    a = {Monomial((2, 0), 0, -1): 1, Monomial((0, -2), 0, -1): -1}
    b = {Monomial((2 * (n - 1 - i), -2 * i), 1, 1): 1 for i in range(n)}
    want = {Monomial((2 * n, 0), 1, 0): 1, Monomial((0, -2 * n), 1, 0): -1}
    assert _mul_packed([(a, b)]) == want
    assert _mul_dict([(a, b)]) == want
    assert not fallbacks


# -- the heap division against the rescanning loop it replaced -------------


def _div_by_rescan(a: LaurentPoly, b: LaurentPoly):
    """Greedy division that finds each leading term by max(rem), the loop
    div_exact replaced: ("quotient", terms) or (why it stopped, the
    remainder's terms at that point)."""
    rank = a.rank
    lead_b = max(b.terms)
    cols = list(zip(zip(*a.terms), zip(*b.terms)))
    lo = [min(x) - min(y) for x, y in cols]
    hi = [max(x) - max(y) for x, y in cols]
    rem, quo = dict(a.terms), {}
    while rem:
        lead = max(rem)
        qmono = tuple(x - y for x, y in zip(lead, lead_b))
        if rem[lead] % b.terms[lead_b]:
            return "leading coefficient does not divide", rem
        if not all(l <= x <= h for l, x, h in zip(lo, qmono, hi)):
            return "outside the box", rem
        if qmono[rank] < 0:
            return "negative t", rem
        qcoef = rem[lead] // b.terms[lead_b]
        quo[qmono] = qcoef
        for mono, coef in b.terms.items():
            key = tuple(x + y for x, y in zip(qmono, mono))
            val = rem.get(key, 0) - qcoef * coef
            if val:
                rem[key] = val
            else:
                rem.pop(key, None)
    return "quotient", quo


def _assert_same_division(a: LaurentPoly, b: LaurentPoly) -> str:
    outcome, terms = _div_by_rescan(a, b)
    if outcome == "quotient":
        assert a.div_exact(b).terms == terms
        return outcome
    message = {"leading coefficient does not divide": outcome}.get(
        outcome, "non-exact Laurent division"
    )
    with pytest.raises(NonExactDivisionError, match=message) as err:
        a.div_exact(b)
    assert err.value.remainder.terms == terms
    return outcome


def _division_cases(rank):
    """(dividend, divisor, the way the rescanning loop ends) at one rank:
    a quotient with negative exponents, times a divisor, plus a term that
    stops the division partway."""
    def mono(z, t=0, q=0, coef=1):
        return LaurentPoly({Monomial(tuple(z) + (0,) * (rank - len(z)), t, q): coef}, rank)

    zs = [(-1,), (3, -2), (1, 0, -3), (-2, 1, 1, -1)]
    quotient = sum(
        (mono(z[:rank], t=i % 2, q=-i, coef=(-1) ** i * (i + 1)) for i, z in enumerate(zs)),
        mono((), q=-3),
    )
    z1 = (2,) if rank else ()
    two_lead = mono(z1, coef=2) + mono((), q=-1) + mono((), t=1, q=1, coef=-4)
    monic = mono(z1) + mono((), q=-2, coef=-1)
    t_times = mono((), t=2) + mono((), t=1)  # t (t + 1)
    return [
        (quotient * two_lead, two_lead, "quotient"),
        (quotient * two_lead + mono((), q=-1), two_lead,
         "leading coefficient does not divide"),
        (quotient * monic + mono([-40] * rank, q=1), monic, "outside the box"),
        (quotient * t_times + mono((), t=1) + mono(()), t_times, "negative t"),
    ]


@pytest.mark.parametrize("rank", range(5))
def test_heap_division_stops_where_the_rescan_did(rank):
    # Each way the division can end, at ranks 0-4 with negative exponents:
    # the same quotient, or the same error carrying the same remainder.
    for a, b, ending in _division_cases(rank):
        assert _assert_same_division(a, b) == ending


@pytest.mark.parametrize("rank", range(5))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_heap_division_matches_the_rescan(rank, data):
    maps = term_maps(rank, -5, 5, st.integers(-3, 3), 1, 6)
    b = LaurentPoly(data.draw(maps), rank)
    q = LaurentPoly(data.draw(maps), rank)
    noise = LaurentPoly(data.draw(term_maps(rank, -5, 5, st.integers(-3, 3), 0, 2)), rank)
    _assert_same_division(q * b + noise, b)
