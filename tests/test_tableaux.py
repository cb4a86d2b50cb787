import itertools
import json
import subprocess
import sys

import pytest

from spinchar import gtpatterns, tableaux
from spinchar.gtpatterns import (
    GTPattern,
    circle_sum,
    enumerate_strict,
    g_weight,
    in_gt_circle,
    slice_rows,
    slice_walk,
    tokuyama_rhs,
    top_row,
)
from spinchar.laurent import Monomial
from spinchar.rootdata import shifted_weight, upsilon
from spinchar.tableaux import (
    Tableau,
    _corollary_rhs_by_enumeration,
    barred,
    corollary_rhs,
    count_rows,
    from_gt,
    in_st_circle,
    score_strip,
    statistics,
    symbol_name,
    symbol_strips,
    tableau_term,
    to_gt,
    unbarred,
)
from tests.test_acceptance import THEOREM1_CASES
from tests.test_gtpatterns import EXAMPLE


def test_example_tableau_rows():
    s = from_gt(EXAMPLE)
    s.validate()
    names = [[symbol_name(c) for c in row] for row in s.rows]
    assert names[0] == ["1", "1", "1", "2'", "2'", "3", "3", "4", "4", "5'", "5'"]
    assert names[1] == ["2'", "2'", "2", "3", "3", "5'", "5'", "5", "5"]
    assert names[2] == ["3'", "4'", "4'", "5'", "5", "5", "5"]
    assert names[3] == ["4", "5'", "5'"]
    assert names[4] == ["5'"]


def test_example_statistics_dictionary():
    s = from_gt(EXAMPLE)
    st = statistics(s)
    pst = EXAMPLE.stats()
    assert st.str_total == 13
    assert st.l_values == (1, 2, 3, 4, 3)
    assert st.hgtbar == -6
    assert pst.gen == st.str_total - 5
    assert pst.max == st.hgtbar + 15
    assert pst.max1 // 2 == 15 - st.l_total
    assert st.wt == EXAMPLE.wt()
    assert in_st_circle(s)
    assert to_gt(s) == EXAMPLE


def test_rank1_bijection_rule():
    p = GTPattern(1, ((5,),), ((2,),))
    s = from_gt(p)
    assert s.rows == ((barred(1),) * 2 + (unbarred(1),) * 3,)
    assert to_gt(s) == p


def test_empty_tableau():
    p = GTPattern(1, ((0,),), ((0,),))
    s = from_gt(p)
    assert s.rows == ()
    assert to_gt(s) == p


def test_round_trip_and_circle_agreement():
    for mu in [(1, 1), (2, 2), (3, 2), (2, 1, 1)]:
        for p in enumerate_strict(upsilon(mu)):
            s = from_gt(p)
            s.validate()
            assert to_gt(s) == p
            assert in_st_circle(s) == in_gt_circle(p)


def test_condition1_violation():
    # odd number of 2-family entries in row 1: outside both circle subsets
    p = GTPattern(2, ((4, 2), (1,)), ((3, 1), (0,)))
    p.validate()
    s = from_gt(p)
    row1 = s.rows[0]
    assert (row1.count(barred(2)) + row1.count(unbarred(2))) % 2 == 1
    assert not in_st_circle(s)
    assert not in_gt_circle(p)


def test_condition2_cuts_lower_barred_cells_off():
    # Row 2 holds one 3 (odd, below row 3), and its 3' cell touches the 3'
    # cells of row 1: the only condition that fails is that the 3' cells
    # of rows >= 2 must not reach row 1.
    p = GTPattern(3, ((4, 3, 0), (2, 1), (2,)), ((4, 2, 0), (2, 0), (2,)))
    p.validate()
    s = from_gt(p)
    names = [[symbol_name(c) for c in row] for row in s.rows]
    assert names == [["1'", "1'", "3'", "3'"], ["2", "3'", "3"]]
    (comp,) = s.components(barred(3))
    assert {row for row, _ in comp} == {1, 2}
    assert [st.in_circle for st in symbol_strips(s)] == [True, True, False]
    assert not in_st_circle(s)


def test_diagonal_condition_in_validate():
    with pytest.raises(ValueError):
        Tableau(2, ((barred(2), barred(2)), (unbarred(2),))).validate()
    # row 2 starts with 1, below 2', so it has no strips either
    low = Tableau(2, ((barred(1), barred(1)), (unbarred(1),)))
    with pytest.raises(ValueError):
        low.validate()
    with pytest.raises(ValueError):
        symbol_strips(low)


def test_to_gt_raises_without_asserts():
    # rows (2, 2') do not weakly increase; their counts end a_1 at 0
    code = (
        "from spinchar.tableaux import Tableau, to_gt\n"
        "try:\n"
        "    to_gt(Tableau(2, ((4, 3),)))\n"
        "except ValueError:\n"
        "    raise SystemExit(3)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 3, out.stderr


def test_to_gt_accepts_exactly_the_tableaux():
    # one-row rank-2 fillings of length 3, codes 0..5 (0 and 5 lie outside
    # the alphabet 1'..2): to_gt converts exactly the 16 tableaux, and
    # from_gt inverts it; 32 unsorted rows once gave a pattern too
    rejected = 0
    for row in itertools.product(range(6), repeat=3):
        s = Tableau(2, (row,))
        try:
            s.validate()
        except ValueError:
            with pytest.raises(ValueError):
                to_gt(s)
            rejected += 1
            continue
        assert from_gt(to_gt(s)) == s
    assert rejected == 6**3 - 16
    # a tableau ending in empty rows still converts
    s = Tableau(3, ((1, 2, 4), (4,), ()))
    s.validate()
    assert from_gt(to_gt(s)) == Tableau(3, ((1, 2, 4), (4,)))


def test_validate_agrees_with_to_gt():
    # every filling of the shifted shapes with rows of at most 3 cells (4 at
    # rank 1), ranks 1-3: validate raises exactly when to_gt does; shapes
    # with fewer than r-1 nonempty rows have no strict top row
    disagree = []
    for r, width in ((1, 4), (2, 3), (3, 3)):
        for n in range(r + 1):
            for shape in itertools.combinations(range(width, 0, -1), n):
                for fill in itertools.product(range(1, 2 * r + 1), repeat=sum(shape)):
                    cells = iter(fill)
                    s = Tableau(r, tuple(tuple(itertools.islice(cells, m)) for m in shape))
                    verdicts = []
                    for check in (s.validate, lambda: to_gt(s)):
                        try:
                            check()
                            verdicts.append(True)
                        except ValueError:
                            verdicts.append(False)
                    if verdicts[0] != verdicts[1]:
                        disagree.append(s)
    assert not disagree, disagree[:3]
    with pytest.raises(ValueError, match="padded"):
        Tableau(2, ()).validate()


@pytest.mark.parametrize("mu", [(2, 2), (3, 1), (2, 1, 1), (2, 2, 1)], ids=str)
def test_strips_are_scored_off_the_pattern_slices(mu):
    # the count map inverts from_gt, and symbol m's strip is the slice
    # (a_{r-m}, b_{r-m+1}, a_{r-m+1}) that corollary_rhs scores
    for p in enumerate_strict(mu):
        s = from_gt(p)
        assert count_rows(s) == (p.arows, p.brows)
        by_slice = [score_strip(*rows) for rows in slice_rows(p.arows, p.brows)]
        assert symbol_strips(s) == tuple(reversed(by_slice))


@pytest.mark.parametrize("mu", [(2, 2), (3, 1), (2, 1, 1), (2, 2, 1)], ids=str)
def test_count_map_counts_what_from_gt_carries(mu):
    # a tableau made from its rows alone carries no count rows, so the
    # count map reads them off the cells; they must be the pattern's rows
    for p in enumerate_strict(mu):
        s = from_gt(p)
        bare = Tableau(s.rank, s.rows)
        assert bare._count_rows is None
        assert count_rows(bare) == (p.arows, p.brows)
        assert symbol_strips(bare) == symbol_strips(s)


def test_carried_count_rows_stay_private():
    # the carried rows are no constructor argument and take no part in
    # equality, hashing or repr
    rows = ((1, 2), (4,))
    with pytest.raises(TypeError):
        Tableau(2, rows, (((2, 1), (1,)), ((1, 0), (0,))))
    with pytest.raises(TypeError):
        Tableau(2, rows, _count_rows=None)
    for mu in [(2, 2), (2, 1, 1)]:
        for p in enumerate_strict(mu):
            s = from_gt(p)
            bare = Tableau(p.rank, s.rows)
            assert s == bare and hash(s) == hash(bare) and repr(s) == repr(bare)
            assert from_gt(to_gt(s)) == s
            assert from_gt(to_gt(bare)) == s


def test_term_match_and_aggregate():
    for lam in itertools.product(range(2), repeat=2):
        r = 2
        mu = tuple(l + 1 for l in lam)
        assert corollary_rhs(lam, r) == tokuyama_rhs(lam, r)
        for p in enumerate_strict(upsilon(mu)):
            s = from_gt(p)
            if not in_gt_circle(p):
                assert not in_st_circle(s)
                continue
            expected = g_weight(p).shift(Monomial(tuple(-w for w in p.wt()), 0, 0))
            assert tableau_term(s) == expected


def test_row_statistic_is_undefined_off_the_circle():
    # rows 1' 1' 1' 2 / 2' 2: symbol 2 has an odd count in both rows, so
    # l has no value; the per-tableau term refuses, the record prints null
    s = Tableau(2, ((1, 1, 1, 4), (3, 4)))
    s.validate()
    assert not in_st_circle(s)
    with pytest.raises(ValueError, match="row statistic"):
        statistics(s)
    with pytest.raises(ValueError, match="row statistic"):
        tableau_term(s)
    record = json.loads(tableaux.tableau_json(s))
    assert record["l"] is None and record["in_circle"] is False


ENUMERATION_CASES = (
    [((lam,), 1) for lam in range(7)]
    + [(lam, 2) for lam in itertools.product(range(3), repeat=2)]
    + [((0, 0, 0), 3), ((1, 0, 0), 3), ((0, 0, 1), 3)]
)


@pytest.mark.parametrize("lam,r", ENUMERATION_CASES, ids=str)
def test_strip_transfer_matches_enumeration(lam, r):
    assert corollary_rhs(lam, r) == _corollary_rhs_by_enumeration(lam, r)


@pytest.mark.parametrize(
    "lam,r",
    list(THEOREM1_CASES) + [((2, 1, 1), 3), ((0, 0, 0, 0), 4)],
    ids=str,
)
def test_strip_transfer_matches_pattern_sum(lam, r):
    assert corollary_rhs(lam, r) == tokuyama_rhs(lam, r)


@pytest.mark.parametrize(
    "side", [tokuyama_rhs, corollary_rhs, _corollary_rhs_by_enumeration]
)
@pytest.mark.parametrize(
    "lam, r",
    [((0, -1), None), ((1, -1), None), ((0, 0, -1), None), ((-1,), 1),
     ((1, 0), 3), ((1, 0, 0), 2)],
    ids=str,
)
def test_both_sides_reject_a_weight_off_the_cone_or_rank(side, lam, r):
    # a negative entry, or a rank other than len(lambda), is not a weight
    # either sum is defined on: both raise instead of returning a polynomial
    with pytest.raises(ValueError):
        side(lam, r)


@pytest.mark.parametrize(
    "lam", [lam for lam, _ in THEOREM1_CASES] + [(2, 1, 1), (1, 0, 0, 0)], ids=str
)
def test_strip_walk_is_the_circle_tally(lam):
    # Corollary 2 before expansion: the strip walk sums each symbol's share
    # to the same signed (wt, 2t, n) tally as the pattern walk, key by key
    v = shifted_weight(lam)
    assert slice_walk(top_row(v), tableaux._strip_key) == circle_sum(v)


def test_strip_transfer_uses_no_pattern_statistics(monkeypatch):
    expected = {lam: corollary_rhs(lam, 3) for lam in [(0, 0, 1), (1, 1, 0)]}

    def refuse(*args, **kwargs):
        raise AssertionError("pattern statistics used by the tableau sum")

    monkeypatch.setattr(gtpatterns, "ShortGTPattern", refuse)
    monkeypatch.setattr(gtpatterns, "_slice", refuse)
    tableaux._strip.cache_clear()
    for lam, poly in expected.items():
        assert corollary_rhs(lam, 3) == poly


def test_strip_transfer_keeps_negative_t_guard(monkeypatch):
    real = tableaux.score_strip

    def skewed(hi, mid, lo):
        st = real(hi, mid, lo)
        return st._replace(row_u=st.row_u + 100)

    monkeypatch.setattr(tableaux, "score_strip", skewed)
    with pytest.raises(ValueError, match="negative t"):
        corollary_rhs((1, 0), 2)


@pytest.mark.parametrize(
    "mu", [(2, 2), (3, 2), (2, 1, 1), (2, 2, 2), upsilon((3, 2)), upsilon((2, 1, 1))],
    ids=str,
)
def test_run_components_match_search(mu):
    # The circle conditions characterize the circle subset on doubled tops
    # (mu_j even for j < r) only, so (3, 2) and (2, 1, 1) are compared there
    # through their doubled images.
    doubled = all(m % 2 == 0 for m in mu[:-1])
    for p in enumerate_strict(mu):
        s = from_gt(p)
        for m, st in enumerate(symbol_strips(s), 1):
            assert st.con_u == len(s.components(unbarred(m)))
            assert st.con_b == len(s.components(barred(m)))
        if doubled:
            assert in_st_circle(s) == in_gt_circle(p)
