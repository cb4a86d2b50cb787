"""Prime-power coefficients H(p^k; p^lambda) and their consistency checks.

The rank-one value is the classical Ramanujan-sum evaluation; higher ranks
come from one forward pass of the layer recursion per weight: flavor-C
decorated sums over the top layer (bucketed by weighting vector) times the
rank r-1 table at a shifted dominant weight.  h_table(lambda) holds every
k the pass reaches; h_coeff and h_support read it.  All values are exact
Laurent polynomials in q; the flat normalization divides by
q^(k_1 + ... + k_r).

The recursion filters the layer vectors k' to have even entries before the
last coordinate; the filter is redundant on the support (tested) since the
decorated sums vanish otherwise.  Layers whose shifted weight would leave
the dominant cone contribute nothing; any such nonzero layer is recorded in
NEGATIVE_NU_EVENTS (none are expected).

The checks gh and prop3 tie H to the circle-pattern sums and to the
expanded D(z; -1/q) chi_lambda; both index by k through the one map
_k_of_z / _z_of_k between k and the doubled z-exponent (= minus the
pattern weight).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .gtpatterns import add_g_terms, circle_sum, top_row
from .laurent import LaurentPoly, Monomial
from .padic import cqc_layer_sums
from .rootdata import upsilon

_Q0 = LaurentPoly.zero(0)

NEGATIVE_NU_EVENTS: list = []


def h_base(k: int, m: int) -> LaurentPoly:
    """Rank-one coefficient: 1, q^k (1 - 1/q), -q^m, or 0 by the position of k."""
    if k < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    if k == 0:
        return LaurentPoly.one(0)
    if k <= m:
        return LaurentPoly.monomial(0, qexp=k) - LaurentPoly.monomial(0, qexp=k - 1)
    if k == m + 1:
        return LaurentPoly.monomial(0, qexp=m, coef=-1)
    return _Q0


def _nu_shift(lam: tuple, kp: tuple) -> tuple:
    """Shifted rank r-1 weight; endpoint formulas with interior interpolation."""
    r = len(lam)
    nu = []
    for j in range(1, r):  # 1-based coordinate j of nu
        if j <= r - 3:
            val = lam[j] + kp[j - 1] // 2 + kp[j + 1] // 2 - kp[j]
        elif j == r - 2:
            val = lam[r - 2] + kp[r - 3] // 2 + kp[r - 1] - kp[r - 2]
        else:  # j == r - 1
            val = lam[r - 1] + kp[r - 2] - 2 * kp[r - 1]
        nu.append(val)
    return tuple(nu)


def _mu_second(lam: tuple, kp: tuple) -> tuple:
    """The doubled top row of the next layer, straight from its own formula."""
    r = len(lam)
    mu = tuple(l + 1 for l in lam)
    out = []
    for j in range(2, r):
        if j < r - 1:
            out.append(2 * mu[j - 1] + kp[j - 2] + kp[j] - 2 * kp[j - 1])
        else:  # j == r - 1
            out.append(2 * mu[r - 2] + kp[r - 3] + 2 * kp[r - 1] - 2 * kp[r - 2])
    out.append(mu[r - 1] + kp[r - 2] - 2 * kp[r - 1])
    return tuple(out)


@lru_cache(maxsize=None)
def h_table(lam: tuple) -> dict:
    """{k: H(p^k; p^lam)} over every k that the layer recursion reaches.

    Each nonzero layer k' with an even prefix and a dominant shifted weight
    nu adds q^e G(k') H(p^k''; p^nu) at k = (k'_1/2, k'_i/2 + k''_{i-1},
    k'_r + k''_{r-1}) for every entry k'' of the table of nu.  A k reached
    only by terms that cancel keeps its (zero) entry, so the keys are a
    superset of the support.  The returned dict is shared: do not mutate.
    """
    r = len(lam)
    if r == 1:
        return {(k,): h_base(k, lam[0]) for k in range(lam[0] + 2)}
    table = {}
    for kp, gsum in cqc_layer_sums(upsilon(tuple(l + 1 for l in lam))).items():
        if any(kp[i] % 2 for i in range(r - 1)):
            continue  # redundant on the support; kept as the outer-sum filter
        nu = _nu_shift(lam, kp)
        if any(x < 0 for x in nu):
            NEGATIVE_NU_EVENTS.append((lam, kp))
            continue
        assert upsilon(tuple(n + 1 for n in nu)) == _mu_second(lam, kp)
        layer = gsum.shift(Monomial((), 0, 2 * (kp[r - 1] + sum(kp[: r - 1]) // 2)))
        for ksub, hsub in h_table(nu).items():
            k = (
                (kp[0] // 2,)
                + tuple(kp[i] // 2 + ksub[i - 1] for i in range(1, r - 1))
                + (kp[r - 1] + ksub[r - 2],)
            )
            table[k] = table.get(k, _Q0) + layer * hsub
    return table


def h_coeff(k: tuple, lam: tuple) -> LaurentPoly:
    """H at prime powers, as an exact polynomial in q (rank-0 Laurent poly)."""
    if len(lam) != len(k):
        raise ValueError("k and lambda must have equal length")
    if any(x < 0 for x in k) or any(x < 0 for x in lam):
        raise ValueError("indices must be nonnegative")
    return h_table(tuple(lam)).get(tuple(k), _Q0)


def h_flat(k: tuple, lam: tuple) -> LaurentPoly:
    """q^(-sum k) H(p^k; p^lambda)."""
    return h_coeff(tuple(k), tuple(lam)).shift(Monomial((), 0, -2 * sum(k)))


def h_support(lam: tuple) -> frozenset:
    """Superset of the k-support of H(p^k; p^lam): the keys of its table."""
    return frozenset(h_table(tuple(lam)))


def _k_of_z(a0: tuple, z: tuple):
    """The k whose doubled z-exponents are z_i = 2 (k_i - k_{i-1}) - a_{0,i}
    (the pattern weight is -z), or None when there is no nonnegative one."""
    k = []
    acc = 0
    for zi, ai in zip(z, a0):
        step = zi + ai
        if step % 2:
            return None
        acc += step // 2
        k.append(acc)
    return tuple(k) if all(x >= 0 for x in k) else None


def _z_of_k(a0: tuple, k: tuple) -> tuple:
    """Doubled z-exponents of the monomial carrying H(p^k); inverse of _k_of_z."""
    return tuple(2 * (k[i] - (k[i - 1] if i else 0)) - a0[i] for i in range(len(k)))


@dataclass
class CheckResult:
    claim: str
    params: dict
    mismatches: list = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches


def circle_buckets(mu) -> dict:
    """{wt: sum of G(P) over the circle patterns P of top parameter mu with
    wt(P) = wt}, each a polynomial in t alone; summed from circle_sum."""
    parts: dict = {}
    for (wt, nmax, max1, gen), count in circle_sum(mu).items():
        add_g_terms(parts.setdefault(wt, {}), (), count, nmax, max1, gen)
    return {wt: LaurentPoly._make(terms, 0) for wt, terms in parts.items()}


def gh_check(lam, r: int = None) -> CheckResult:
    """Flat coefficients against the circle-subset sums at t = -1/q.

    For every k in the union of both supports, the sum of G(P) over
    patterns with wt_i(P) = a_{0,i} + 2 k_{i-1} - 2 k_i must equal
    q^(-sum k) H(p^k); a shell outside the supports must vanish on both
    sides.
    """
    lam = tuple(lam)
    if r is None:
        r = len(lam)
    mu = tuple(l + 1 for l in lam)
    a0 = top_row(upsilon(mu))
    result = CheckResult("gh", {"lambda": list(lam), "rank": r})

    buckets = circle_buckets(upsilon(mu))
    minus_qinv = LaurentPoly.monomial(0, qexp=-1, coef=-1)

    def gt_side(k):
        poly = buckets.get(tuple(-x for x in _z_of_k(a0, k)))
        return poly.substitute({"t": minus_qinv}) if poly is not None else _Q0

    domain = set(h_support(lam))
    for wt in buckets:
        k = _k_of_z(a0, tuple(-x for x in wt))
        if k is None:
            result.mismatches.append({"wt": list(wt), "error": "no matching k"})
            continue
        domain.add(k)
    for k in sorted(domain):
        lhs = h_flat(k, lam)
        rhs = gt_side(k)
        result.checked += 1
        if lhs != rhs:
            result.mismatches.append(
                {"k": list(k), "h_flat": str(lhs), "gt_sum": str(rhs)}
            )
    kmax = max(k[0] for k in domain), max(k[-1] for k in domain)
    shell = ((kmax[0] + 1,) + (kmax[0] + 1 + sum(a0),) * (r - 1),
             tuple(sum(a0) + i + 1 for i in range(r)))
    for k in shell:
        if h_flat(k, lam) or gt_side(k):
            result.mismatches.append({"k": list(k), "error": "nonzero outside box"})
        result.checked += 1
    return result


def prop3_check(lam, r: int = None) -> CheckResult:
    """Deformed denominator times character against the flat coefficients.

    Expands D(z; -1/q) chi(z) exactly and reads off each z-monomial, whose
    coefficient must be q^(-sum k) H(p^k); the reconstruction must also
    exhaust the product's support.
    """
    from .rootdata import character, deformed_denominator

    lam = tuple(lam)
    if r is None:
        r = len(lam)
    mu = tuple(l + 1 for l in lam)
    a0 = top_row(upsilon(mu))
    result = CheckResult("prop3", {"lambda": list(lam), "rank": r})

    tsub = LaurentPoly.monomial(r, qexp=-1, coef=-1)
    lhs = deformed_denominator(r).substitute({"t": tsub}) * character(lam, r)

    # The product split by k: each part keeps its (t, q) exponents only.
    parts = {}
    for mono, coef in lhs.terms.items():
        k = _k_of_z(a0, mono.z)
        if k is None:
            result.mismatches.append(
                {"monomial": str(mono), "error": "no matching k index"}
            )
            continue
        parts.setdefault(k, {})[Monomial((0,) * r, mono.t, mono.q)] = coef

    recon = {}
    for k in sorted(set(h_support(lam)) | set(parts)):
        coeff = LaurentPoly._make(parts.get(k, {}), r)
        hval = h_flat(k, lam).embed(r)
        result.checked += 1
        if coeff != hval:
            result.mismatches.append(
                {"k": list(k), "coefficient": str(coeff), "h_flat": str(hval)}
            )
        recon.update(hval.shift(Monomial(_z_of_k(a0, k), 0, 0)).terms)
    if LaurentPoly._make(recon, r) != lhs:
        result.mismatches.append({"error": "reconstruction differs from the product"})
    result.checked += 1
    return result
