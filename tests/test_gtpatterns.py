import gc
import itertools
import subprocess
import sys
from collections import Counter

import pytest

from spinchar.gtpatterns import (
    GTPattern,
    PatternStats,
    ShortGTPattern,
    _slices_below,
    circle_sum,
    enumerate_circle,
    enumerate_strict,
    g_weight,
    gt_circle_by_cstat,
    gt_circle_by_row_parity,
    in_gt_circle,
    pattern_records,
    slice_walk,
    tokuyama_rhs,
    top_row,
)
from spinchar.laurent import LaurentPoly, Monomial, prod
from spinchar.tableaux import _strip_key, corollary_rhs, tableau_records
from spinchar.rootdata import (
    deformed_denominator,
    lambda_to_evee,
    mu_of_top_row,
    rho,
    upsilon,
    weyl_numerator,
)
from tests.test_acceptance import THEOREM1_CASES

# the running example: rank 5, top parameter (2,2,4,2,1)
EXAMPLE = GTPattern(
    5,
    arows=((11, 9, 7, 3, 1), (9, 5, 3, 1), (7, 5, 1), (5, 3), (3,)),
    brows=((11, 7, 4, 3, 1), (7, 5, 3, 0), (5, 3, 1), (5, 2), (0,)),
)


def test_top_row():
    assert top_row((2, 2, 4, 2, 1)) == (11, 9, 7, 3, 1)
    assert top_row((8, 3)) == (11, 3)
    assert top_row((0, 0, 0)) == (0, 0, 0)
    assert mu_of_top_row((11, 9, 7, 3, 1)) == (2, 2, 4, 2, 1)


def test_enumerate_rank1():
    pats = list(enumerate_strict((1,)))
    assert [p.brows[0][0] for p in pats] == [1, 0]
    assert len(list(enumerate_strict((0,)))) == 1  # the all-zero rank-1 pattern


def test_enumerate_deterministic_and_valid():
    pats = list(enumerate_strict((8, 3)))
    assert pats == list(enumerate_strict((8, 3)))
    for p in pats:
        p.validate()


def test_section7_restricted_patterns():
    # lower rows (11, b, 11, 11) inside top row (11, 3): b in {0,1,2,3}
    found = []
    for p in enumerate_strict((8, 3)):
        if p.brows[0][0] == 11 and p.arows[1] == (11,) and p.brows[1] == (11,):
            found.append(p.brows[0][1])
            assert in_gt_circle(p)
            assert p.wt()[1] == -11
            assert p.wt()[0] == 3 - 2 * p.brows[0][1]
    assert sorted(found) == [0, 1, 2, 3]


def test_example_statistics():
    EXAMPLE.validate()
    st = EXAMPLE.stats()
    assert (st.gen, st.max, st.max1) == (8, 9, 4)
    cstat = {
        (kind, i, j + i - 1): c
        for i, s in enumerate(EXAMPLE.slices, 1)
        for (kind, j), (_, c) in s.entries.items()
    }
    odd_maximal = {
        key
        for key, cls in EXAMPLE.classify().items()
        if cls == "maximal" and cstat[key] % 2
    }
    assert odd_maximal == {("b", 1, 4), ("b", 1, 5), ("a", 1, 4), ("a", 1, 5)}
    assert in_gt_circle(EXAMPLE)
    assert g_weight(EXAMPLE) == LaurentPoly.monomial(5, texp=7) * prod(
        [LaurentPoly.one(5) + LaurentPoly.monomial(5, texp=1)] * 8, 5
    )


def test_rank1_c_stat_and_weights():
    for mu1, b in [(3, 0), (3, 1), (3, 3)]:
        p = GTPattern(1, ((mu1,),), ((b,),))
        assert p.slices[0].entries[("b", 1)][1] == 0
        g = g_weight(p)
        one, t = LaurentPoly.one(1), LaurentPoly.monomial(1, texp=1)
        if b == 0:
            assert g == one
        elif b == mu1:
            assert g == t
        else:
            assert g == one + t
        assert p.wt() == (mu1 - 2 * b,)


def test_rank1_zero_pattern_is_minimal():
    p = GTPattern(1, ((0,),), ((0,),))
    st = p.stats()
    assert (st.gen, st.max) == (0, 0)
    assert g_weight(p) == LaurentPoly.one(1)


def test_circle_equivalence_on_doubled_tops():
    for mu in itertools.product(range(4), repeat=2):
        for p in enumerate_strict(upsilon(mu)):
            assert gt_circle_by_cstat(p) == gt_circle_by_row_parity(p)
    for mu in itertools.product(range(3), repeat=3):
        for p in enumerate_strict(upsilon(mu)):
            assert gt_circle_by_cstat(p) == gt_circle_by_row_parity(p)


def test_max1_even_on_circle():
    for mu in [(2, 2), (3, 2), (4, 3), (2, 2, 1)]:
        for p in enumerate_circle(upsilon(mu)):
            assert p.stats().max1 % 2 == 0


@pytest.mark.parametrize("lam", [lam for lam, _ in THEOREM1_CASES], ids=str)
def test_circle_sum_matches_enumeration(lam):
    # the slice transfer against the enumeration oracle: the signed
    # statistics tally and the pattern side built from it
    top = upsilon(tuple(l + 1 for l in lam))
    tally = Counter()
    terms = {}
    for p in enumerate_circle(top):
        st, wt = p.stats(), p.wt()
        tally[(*wt, 2 * st.max - st.max1, st.gen)] += (-1) ** st.max
        for mono, c in g_weight(p).terms.items():
            key = Monomial(tuple(-w for w in wt), mono[-2] // 2, 0)
            terms[key] = terms.get(key, 0) + c
    assert circle_sum(top) == {key: c for key, c in tally.items() if c}
    assert tokuyama_rhs(lam) == LaurentPoly(terms, len(lam))


def test_slice_walk_frees_its_memo_on_return():
    # the walk's memoized recursion refers to itself; left as a cycle, its
    # memo of every a-row's tally outlived the walk until a gc pass
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        circle_sum(upsilon((2, 2, 2)))
        slice_walk(top_row(upsilon((2, 2, 2))), _strip_key)
        gc.collect()
        tallies = [o for o in gc.garbage if isinstance(o, dict)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not tallies


def test_pattern_recursions_leave_no_cycles():
    # the row and pattern recursions under both sums, the enumeration and
    # both record walks are module-level functions; as closures that named
    # themselves, every call left a function-and-cell cycle for the gc.  A
    # record walk is run to its end, and dropped after its first records as
    # --limit drops it
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        corollary_rhs((0, 0, 0), 3)
        tokuyama_rhs((0, 0, 0), 3)
        list(enumerate_strict((1, 1, 1)))
        for records in (pattern_records, tableau_records):
            list(records((1, 1, 1)))
            list(itertools.islice(records((1, 1, 1)), 5))
        gc.collect()
        garbage = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not garbage


_ROW_PARITY = ShortGTPattern.in_circle_by_row_parity


def _flipped_on_bottom_slices(self):
    return _ROW_PARITY(self) != (self.rank == 1)


def _always(self):
    return True


@pytest.mark.parametrize(
    "row_parity",
    [lambda self: False, _always, _flipped_on_bottom_slices],
    ids=["False", "True", "flipped-on-bottom-slices"],
)
def test_transfer_keeps_characterization_cross_check(monkeypatch, row_parity):
    # a row-parity test that disagrees with the c-statistic test somewhere,
    # below the top slice too, must stop both routes, as on the enumeration
    # route before
    monkeypatch.setattr(ShortGTPattern, "in_circle_by_row_parity", row_parity)
    with pytest.raises(RuntimeError):
        tokuyama_rhs((1, 0))
    with pytest.raises(RuntimeError):
        list(enumerate_circle(upsilon((2, 1))))
    if row_parity is not _always:  # which agrees on every slice reached here
        # top row (2, 1) is not doubled, but its one-entry a_1 rows have one
        # parity, so the slices below them are still checked
        with pytest.raises(RuntimeError):
            list(enumerate_circle((1, 1)))


def _items_before_raise(items):
    """(items yielded, whether a RuntimeError then stopped the stream)."""
    n = 0
    try:
        for _ in items:
            n += 1
    except RuntimeError:
        return n, True
    return n, False


@pytest.mark.parametrize(
    "row_parity",
    [lambda self: False, _always, _flipped_on_bottom_slices],
    ids=["False", "True", "flipped-on-bottom-slices"],
)
@pytest.mark.parametrize("top", [upsilon((2, 1)), (1, 1), (2, 2, 1)], ids=str)
def test_record_walk_guards_the_slices_in_gt_circle_reaches(monkeypatch, row_parity, top):
    # the gt walk runs the guard on a slice only while the prefix above it is
    # in the circle, so it stops at the record whose in_gt_circle raises first
    monkeypatch.setattr(ShortGTPattern, "in_circle_by_row_parity", row_parity)
    expected = _items_before_raise(map(in_gt_circle, enumerate_strict(top)))
    assert _items_before_raise(pattern_records(top)) == expected


def _rows_of_one_parity(n, hi):
    """Strictly decreasing rows of length n, entries in 0..hi, all of one parity."""
    for parity in (0, 1):
        yield from itertools.combinations(range(hi - (hi - parity) % 2, -1, -2), n)


@pytest.mark.parametrize(
    "lam", [lam for lam, _ in THEOREM1_CASES] + [(1, 0, 0, 0)], ids=str
)
def test_slice_tests_agree_below_rows_of_the_top_parity(lam):
    # The circle guard compares the two circle tests on every slice whose
    # a_0 has one parity.  Every a-row that a doubled top reaches through
    # kept slices is such a row, with at most r entries, none above the top
    # row's first.  The tests agree below every such row, reached or not,
    # so the guard raises only on a fault.  Below them every kept slice has
    # an even max1 and every circle strip a nonnegative share of t, so the
    # walks' per-slice guards raise only on a fault too
    top = top_row(upsilon(tuple(l + 1 for l in lam)))
    for n in range(1, len(top) + 1):
        for a0 in _rows_of_one_parity(n, top[0]):
            for b, a1 in _slices_below(a0):
                s = ShortGTPattern(a0, b, a1)
                assert s.in_circle_by_row_parity() == s.in_circle(), (a0, b, a1)
                assert not s.in_circle() or s.stats().max1 % 2 == 0, (a0, b, a1)
                scored = _strip_key(a0, b, a1)
                assert scored is None or scored[0][1] >= 0, (a0, b, a1)


def test_transfer_keeps_odd_max1_guard(monkeypatch):
    real = ShortGTPattern.stats
    monkeypatch.setattr(
        ShortGTPattern, "stats",
        lambda self: PatternStats(*real(self)[:3], real(self).max1 + 1),
    )
    with pytest.raises(AssertionError, match="odd max1"):
        tokuyama_rhs((2,))


def test_odd_max1_guard_holds_without_asserts():
    # circle_sum alone, under python -O, still refuses an odd max1
    code = (
        "from spinchar.gtpatterns import PatternStats, ShortGTPattern, circle_sum\n"
        "real = ShortGTPattern.stats\n"
        "ShortGTPattern.stats = lambda self: PatternStats(*real(self)[:3], real(self).max1 + 1)\n"
        "try:\n"
        "    circle_sum((3,))\n"
        "except AssertionError:\n"
        "    raise SystemExit(3)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 3, out.stderr


def test_diagonal_condition_enforced():
    # interleaving alone would admit (4,2 / 4,0 / 0 / 0); the family must not
    with pytest.raises(ValueError):
        GTPattern(2, ((4, 2), (0,)), ((4, 0), (0,))).validate()
    assert all(p.arows[1][-1] >= 1 for p in enumerate_strict((2, 2)))


@pytest.mark.parametrize(
    "arows, brows",
    [
        (((4, 2),), ((4, 0), (0,))),  # one a-row short
        ((), ()),  # no rows at all
        (((4, 2), (1, 0)), ((3, 1), (0,))),  # a_1 too long
        (((2, 2), (1,)), ((2, 1), (1,))),  # top row not strictly decreasing
        (((4, 2), (1,)), ((4, 3), (0,))),  # b_1 above a_{0,2}
        (((4, 2), (4,)), ((3, 1), (0,))),  # a_1 above b_{1,1}
        (((4, 2), (1,)), ((3, 1), (2,))),  # b_2 above a_1
    ],
)
def test_validate_rejects_each_slice_violation(arows, brows):
    GTPattern(2, ((4, 2), (1,)), ((3, 1), (0,))).validate()
    with pytest.raises(ValueError):
        GTPattern(2, arows, brows).validate()


def tokuyama_identity_holds(lam, r):
    mu = tuple(l + 1 for l in lam)
    lhs = deformed_denominator(r) * weyl_numerator(lambda_to_evee(mu), r)
    rhs = tokuyama_rhs(lam, r) * weyl_numerator(rho(r), r)
    return lhs == rhs


def test_tokuyama_rank1():
    for lam in range(4):
        assert tokuyama_identity_holds((lam,), 1)


def test_tokuyama_rank2_spot():
    assert tokuyama_identity_holds((3, 2), 2)
    assert tokuyama_identity_holds((0, 1), 2)


def test_g_weight_is_multiplicative_over_slices():
    # a pattern weighs the product of its slices' weights, and the slices
    # below the top one are the slices of the pattern below it; each weight
    # is a polynomial in t alone, compared by its (t, q) part
    def tq(poly):
        assert not any(any(m[: poly.rank]) for m in poly.terms)
        return LaurentPoly({m[poly.rank:]: c for m, c in poly.terms.items()}, 0)

    for mu in [(1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1), (2, 1, 2)]:
        for p in enumerate_circle(upsilon(mu)):
            r = p.rank
            product = LaurentPoly.one(0)
            for s in p.slices:
                product = product * tq(g_weight(s))
            assert tq(g_weight(p)) == product
            tail = GTPattern(r - 1, p.arows[1:], p.brows[1:])
            tail.validate()
            assert tail.slices == p.slices[1:]


def test_short_patterns_match_full_at_rank1_style():
    # the three-row family at rank 2 has the same statistics as full rank-2
    for p in enumerate_strict((2, 2)):
        top = ShortGTPattern(p.arows[0], p.brows[0], p.arows[1])
        assert p.slices[0] == top
        assert p.slices[0].stats() == top.stats()


def test_enumerate_short_matches_split_images():
    # every slice below the top row is the top slice of some full pattern
    for mu in [(2, 2), (3, 1), (2, 2, 1), (4, 3), (1, 1, 1), (2, 1, 2)]:
        top = top_row(mu)
        tops = {p.slices[0] for p in enumerate_strict(mu)}
        assert tops == {ShortGTPattern(top, b, a1) for b, a1 in _slices_below(top)}, mu


def test_json_dump_fields():
    import json

    rec = json.loads(EXAMPLE.to_json())
    assert rec["stats"] == [8, 9, 5, 4]
    assert rec["in_circle"] is True
    assert rec["wt"] == list(EXAMPLE.wt())
