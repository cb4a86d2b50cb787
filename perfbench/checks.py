"""Output checks made apart from the program.

The polynomial text grammar, the Weyl dimension formula, the Weyl-group
alternant and the pattern / tableau weights are written out here again, so
that a check does not trust the code it checks.  Each ``check_*`` function
returns a list of problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import comb


# -- polynomials as {(z-exponents doubled, t, q doubled): coefficient} ------


def parse_poly(text: str, rank: int) -> dict:
    """Read the program's text grammar: "c * z1^{3/2} t^{2} + ..."."""
    text = text.strip()
    poly = {}
    if text == "0":
        return poly
    for chunk in text.split(" + "):
        coef_text, _, factors = chunk.partition(" * ")
        z = [0] * rank
        t = q = 0
        for factor in factors.split():
            base, _, exp = factor.partition("^{")
            if not exp:
                twice = 2
            elif exp.endswith("/2}"):
                twice = int(exp[:-3])
            else:
                twice = 2 * int(exp[:-1])
            if base == "t":
                t = twice // 2
            elif base == "q":
                q = twice
            else:
                z[int(base[1:]) - 1] = twice
        key = (tuple(z), t, q)
        poly[key] = poly.get(key, 0) + int(coef_text)
    return {k: v for k, v in poly.items() if v}


def add_term(poly: dict, zexp: tuple, sign: int, t0: int, gen: int) -> None:
    """poly += sign * t^t0 * (1+t)^gen * z^zexp (z-exponents doubled)."""
    for j in range(gen + 1):
        key = (zexp, t0 + j, 0)
        val = poly.get(key, 0) + sign * comb(gen, j)
        if val:
            poly[key] = val
        else:
            del poly[key]


def at_z_one(poly: dict) -> dict:
    """Coefficient of each power of t once every z_i is set to 1."""
    out = {}
    for (_, t, q), c in poly.items():
        if q:
            raise ValueError("unexpected q in a z, t polynomial")
        out[t] = out.get(t, 0) + c
    return {t: c for t, c in out.items() if c}


def deformed_dimension(rank: int, lam) -> dict:
    """(1+t)^(r^2) dim V_lambda by powers of t: D(1; t) chi_lambda(1)."""
    dim = weyl_dimension(lam)
    n = rank * rank
    return {j: comb(n, j) * dim for j in range(n + 1)}


def eval_rational(poly: dict, s: list, t: Fraction) -> Fraction:
    """Exact value at z_i = s_i^2 (so z_i^(x/2) = s_i^x) and the given t.

    All terms are brought over one denominator so the sum runs on integers.
    """
    if not poly:
        return Fraction(0)
    rank = len(s)
    lo = [min(k[0][i] for k in poly) for i in range(rank)]
    hi = [max(k[0][i] for k in poly) for i in range(rank)]
    tmax = max(k[1] for k in poly)
    num = [x.numerator for x in s]
    den = [x.denominator for x in s]
    total = 0
    for (z, e, q), c in poly.items():
        if q:
            raise ValueError("unexpected q in a z, t polynomial")
        term = c * t.numerator**e * t.denominator ** (tmax - e)
        for i in range(rank):
            term *= num[i] ** (z[i] - lo[i]) * den[i] ** (hi[i] - z[i])
        total += term
    factor = Fraction(1, t.denominator**tmax)
    for i in range(rank):
        factor *= Fraction(num[i]) ** lo[i] * Fraction(den[i]) ** (-hi[i])
    return total * factor


def eval_q(poly: dict, q: int) -> Fraction:
    """Value of a q-only polynomial at an integer q (exponents doubled)."""
    root = int(round(q**0.5))
    total = Fraction(0)
    for (_, t, qq), c in poly.items():
        if t:
            raise ValueError("unexpected t in a q polynomial")
        if qq % 2:
            if root * root != q:
                raise ValueError("half-integer q power at a non-square q")
            total += c * Fraction(root) ** qq
        else:
            total += c * Fraction(q) ** (qq // 2)
    return total


# -- root data of B_r ---------------------------------------------------------


def lambda_plus_rho_twice(lam) -> tuple:
    """Doubled e-vee coordinates of lambda + rho (lambda in fundamental weights).

    nu_j = sum_{j <= i < r} (lambda_i + 1) + (lambda_r + 1) / 2.
    """
    mu = [l + 1 for l in lam]
    r = len(mu)
    return tuple(2 * sum(mu[j : r - 1]) + mu[r - 1] for j in range(r))


def weyl_dimension(lam) -> int:
    """prod over positive roots e_i, e_i +- e_j of <lambda+rho, a> / <rho, a>."""
    r = len(lam)
    nu = [Fraction(x, 2) for x in lambda_plus_rho_twice(lam)]
    rho = [Fraction(2 * (r - j) - 1, 2) for j in range(r)]
    value = Fraction(1)
    for i in range(r):
        value *= nu[i] / rho[i]
        for j in range(i + 1, r):
            value *= (nu[i] - nu[j]) * (nu[i] + nu[j])
            value /= (rho[i] - rho[j]) * (rho[i] + rho[j])
    if value.denominator != 1:
        raise ArithmeticError(f"non-integral dimension for {lam}")
    return int(value)


def _perm_sign(perm) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def product_side(lam, s: list, t: Fraction) -> Fraction:
    """prod (1 + t z^a) * z^(-rho) * sum_w sgn(w) z^(w(lambda+rho)) at z_i = s_i^2."""
    r = len(lam)
    z = [x * x for x in s]
    value = Fraction(1)
    for i in range(r):
        value *= 1 + t * z[i]
        value /= s[i] ** (2 * (r - i) - 1)  # z_i^(-rho_i), rho_i = r - i + 1/2
        for j in range(i + 1, r):
            value *= (1 + t * z[i] / z[j]) * (1 + t * z[i] * z[j])
    nu = lambda_plus_rho_twice(lam)
    alternant = Fraction(0)
    for perm in itertools.permutations(range(r)):
        sgn = _perm_sign(perm)
        for signs in itertools.product((1, -1), repeat=r):
            term = Fraction(sgn)
            for i in range(r):
                term *= signs[i] * s[perm[i]] ** (signs[i] * nu[i])
            alternant += term
    return value * alternant


# -- dumped records -------------------------------------------------------------


def gt_record_term(rec: dict, poly: dict) -> list:
    """Check one ``enumerate gt`` record against its own fields; add its
    weight to ``poly`` when it is in the circle subset."""
    problems = []
    classes, cstats = rec["classes"], rec["cstats"]
    gen = sum(1 for c in classes.values() if c == "generic")
    nmax = sum(1 for c in classes.values() if c == "maximal")
    max1 = sum(1 for k, c in classes.items() if c == "maximal" and cstats[k] % 2)
    if rec["stats"] != [gen, nmax, nmax - max1, max1]:
        problems.append(f"gt stats {rec['stats']} do not follow from the classes")
    circle = all(cstats[k] % 2 == 0 for k, c in classes.items() if c == "generic")
    if rec["in_circle"] != circle:
        problems.append("gt in_circle does not follow from the statistics")
    rows, r = rec["rows"], rec["rank"]
    wt = []
    for i in range(1, r + 1):
        v = sum(rows[2 * i - 2]) - 2 * sum(rows[2 * i - 1])
        if i < r:
            v += sum(rows[2 * i])
        wt.append(v)
    if rec["wt"] != wt:
        problems.append(f"gt wt {rec['wt']} does not follow from the rows")
    if circle:
        if max1 % 2:
            problems.append("odd max1 in the circle subset")
        else:
            sign = -1 if (max1 // 2) % 2 else 1
            add_term(poly, tuple(-w for w in wt), sign, nmax - max1 // 2, gen)
    return problems


def _symbol_code(name: str) -> tuple:
    return (int(name[:-1]), True) if name.endswith("'") else (int(name), False)


def tableau_record_term(rec: dict, poly: dict) -> list:
    """Check one ``enumerate tableaux`` record; add its weight to ``poly``."""
    problems = []
    r = rec["rank"]
    x = [0] * r
    xbar = [0] * r
    for row in rec["rows"]:
        for name in row:
            m, bar = _symbol_code(name)
            (xbar if bar else x)[m - 1] += 1
    if rec["x"] != x or rec["xbar"] != xbar:
        problems.append("tableau x / xbar do not count the entries")
    wt = [x[m] - xbar[m] for m in range(r - 1, -1, -1)]
    if rec["wt"] != wt:
        problems.append("tableau wt does not follow from x and xbar")
    if rec["shape"] != [len(row) for row in rec["rows"]]:
        problems.append("tableau shape does not match its rows")
    if rec["in_circle"]:
        if rec["l"] is None:
            problems.append("circle tableau without its row statistic")
        else:
            l_total = sum(rec["l"])
            sign = -1 if (r * (r + 1) // 2 - l_total) % 2 else 1
            add_term(poly, tuple(-w for w in wt), sign,
                     rec["hgtbar"] + l_total, rec["str"] - r)
    return problems


def check_dump(gt_text: str, tab_text: str, top) -> list:
    """Both streams of one doubled top: record-wise consistency, equal
    counts, equal weighted sums, and the z = 1 dimension identity."""
    problems = []
    r = len(top)
    lam = tuple(m // 2 - 1 for m in top[:-1]) + (top[-1] - 1,)
    gt_poly, tab_poly = {}, {}
    counts = []
    for text, record_term, poly in (
        (gt_text, gt_record_term, gt_poly),
        (tab_text, tableau_record_term, tab_poly),
    ):
        n = circle = 0
        for line in text.splitlines():
            rec = json.loads(line)
            n += 1
            circle += rec["in_circle"]
            found = record_term(rec, poly)
            if found:
                problems.append(found[0])
                break
        counts.append((n, circle))
    if counts[0] != counts[1]:
        problems.append(f"gt / tableaux (records, circle) counts {counts}")
    if gt_poly != tab_poly:
        problems.append("gt and tableau circle sums differ")
    if at_z_one(gt_poly) != deformed_dimension(r, lam):
        problems.append(f"circle sum at z = 1 is not (1+t)^{r * r} dim V{lam}")
    return problems


# -- reports ---------------------------------------------------------------------


def check_theorem1(report: dict, point: tuple) -> list:
    """Both sides at a seeded point against the product formula."""
    lam, r = tuple(report["params"]["lambda"]), report["params"]["rank"]
    s, t = point
    s = s[:r]
    want = product_side(lam, s, t)
    problems = []
    for side in ("lhs", "rhs"):
        got = eval_rational(parse_poly(report[side], r), s, t)
        if got != want:
            problems.append(f"theorem1 {lam} {side} is {got} at the point, want {want}")
    return problems


def check_corollary2(report: dict) -> list:
    lam, r = tuple(report["params"]["lambda"]), report["params"]["rank"]
    lhs = parse_poly(report["lhs"], r)
    problems = []
    if lhs != parse_poly(report["rhs"], r):
        problems.append(f"corollary2 {lam}: pattern and tableau sums differ")
    if at_z_one(lhs) != deformed_dimension(r, lam):
        problems.append(f"corollary2 {lam}: pattern sum at z = 1 is wrong")
    return problems


WORKED_EXPECTED = (
    "1 * z1^{3/2} t^{3} + 1 * z1^{1/2} t^{3} + 1 * z1^{1/2} t^{2} + "
    "1 * z1^{-1/2} t^{3} + 1 * z1^{-1/2} t^{2} + 1 * z1^{-3/2} t^{2}"
)


def check_product(text: str, lam) -> list:
    """A printed product D(z;t) chi_lambda(z) at z = 1."""
    r = len(lam)
    if at_z_one(parse_poly(text, r)) != deformed_dimension(r, lam):
        return [f"coeff {lam}: product at z = 1 is not (1+t)^{r * r} dim V"]
    return []


def check_worked(text: str) -> list:
    if parse_poly(text, 2) != parse_poly(WORKED_EXPECTED, 2):
        return [f"worked coefficient is {text.strip()!r}"]
    return []


def check_h_sums(whittaker, lams, qs) -> list:
    """sum_k q^(-sum k) H(p^k; p^lambda) = (1 - 1/q)^(r^2) dim V_lambda."""
    problems = []
    for lam in lams:
        r = len(lam)
        flat = {}
        for k in whittaker.h_support(tuple(lam)):
            for key, c in parse_poly(str(whittaker.h_flat(k, tuple(lam))), 0).items():
                flat[key] = flat.get(key, 0) + c
        for q in qs:
            want = (1 - Fraction(1, q)) ** (r * r) * weyl_dimension(lam)
            if eval_q(flat, q) != want:
                problems.append(f"H sum for {lam} at q = {q} is not {want}")
    return problems


SAMPLE_BUDGET = 20_000


def check_u_shift(padic, samples) -> list:
    """brute_force_G does not depend on the inverse representatives."""
    problems = []
    for mu, d, p, w in samples:
        t = padic.ShortPatternB(mu, d)
        base = padic.brute_force_G(t, p, budget=SAMPLE_BUDGET)
        moved = padic.brute_force_G(t, p, budget=SAMPLE_BUDGET, u_shift=w)
        if abs(moved - base) > 1e-9:
            problems.append(f"u_shift {w} moves G{mu, d} at p = {p}")
    return problems


def draw_u_shift_samples(padic, rng, mus, n=4) -> list:
    """Seeded oracle instances small enough to sum twice."""
    samples = []
    while len(samples) < n:
        mu = rng.choice(mus)
        d = tuple(rng.randrange(4) for _ in range(2 * len(mu) - 1))
        t = padic.ShortPatternB(mu, d)
        if not padic.preconditions_hold(t):
            continue
        p = rng.choice((2, 3, 5))
        try:
            padic.brute_force_G(t, p, budget=SAMPLE_BUDGET)
        except padic.BudgetExceededError:
            continue
        samples.append((mu, d, p, rng.choice((1, 2))))
    return samples


def draw_point(rng, rank=4) -> tuple:
    """Rational s_1..s_rank (z_i = s_i^2) and t, all distinct from 0 and 1."""
    s = [Fraction(rng.randint(2, 9), rng.randint(2, 9)) for _ in range(rank)]
    s = [x if x != 1 else Fraction(3, 2) for x in s]
    t = Fraction(rng.randint(1, 9), rng.randint(2, 9))
    return s, t


def draw_qs(rng, n=3) -> list:
    """Square integers q, so that half-integer q powers stay rational."""
    return sorted(rng.sample([4, 9, 16, 25, 36, 49, 64], n))
