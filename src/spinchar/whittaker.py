"""Prime-power coefficients H(p^k; p^lambda) and their consistency checks.

The rank-one value is the classical Ramanujan-sum evaluation; higher ranks
are computed by the layer recursion: flavor-C decorated sums over the top
layer (bucketed by weighting vector) times rank r-1 coefficients at a
shifted dominant weight.  All values are exact Laurent polynomials in q;
the flat normalization divides by q^(k_1 + ... + k_r).

The recursion filters the layer vectors k' to have even entries before the
last coordinate; the filter is redundant on the support (tested) since the
decorated sums vanish otherwise.  Terms whose shifted weight would leave
the dominant cone contribute nothing; any such term met with a nonzero
layer factor is recorded in NEGATIVE_NU_EVENTS (none are expected).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .gtpatterns import add_g_terms, circle_sum, top_row
from .laurent import LaurentPoly
from .padic import cqc_layer_sums
from .rootdata import upsilon, upsilon_inverse

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
def h_coeff(k: tuple, lam: tuple) -> LaurentPoly:
    """H at prime powers, as an exact polynomial in q (rank-0 Laurent poly)."""
    r = len(k)
    if len(lam) != r:
        raise ValueError("k and lambda must have equal length")
    if any(x < 0 for x in k) or any(x < 0 for x in lam):
        raise ValueError("indices must be nonnegative")
    if r == 1:
        return h_base(k[0], lam[0])
    mu = tuple(l + 1 for l in lam)
    layers = cqc_layer_sums(upsilon(mu))
    vk = upsilon(k)
    total = _Q0
    for kp, gsum in layers.items():
        if kp[0] != vk[0]:
            continue
        if any(kp[i] % 2 for i in range(r - 1)):
            continue  # redundant on the support; kept as the outer-sum filter
        kpp = tuple(vk[i] - kp[i] for i in range(1, r))
        if any(x < 0 for x in kpp):
            continue
        assert all(x % 2 == 0 for x in kpp[: r - 2])
        nu = _nu_shift(lam, kp)
        if any(x < 0 for x in nu):
            NEGATIVE_NU_EVENTS.append((k, lam, kp))
            continue
        assert upsilon(tuple(n + 1 for n in nu)) == _mu_second(lam, kp)
        exp = kp[r - 1] + sum(kp[: r - 1]) // 2
        prefactor = LaurentPoly.monomial(0, qexp=exp)
        total = total + prefactor * gsum * h_coeff(upsilon_inverse(kpp), nu)
    return total


def h_flat(k: tuple, lam: tuple) -> LaurentPoly:
    """q^(-sum k) H(p^k; p^lambda)."""
    return h_coeff(tuple(k), tuple(lam)) * LaurentPoly.monomial(0, qexp=-sum(k))


@lru_cache(maxsize=None)
def h_support(lam: tuple) -> frozenset:
    """Superset of the k-support of H(p^k; p^lam), by forward closure.

    Follows the nonzero layer buckets through the recursion; cancellation
    can only shrink the true support below this set.
    """
    r = len(lam)
    if r == 1:
        return frozenset((k,) for k in range(lam[0] + 2))
    mu = tuple(l + 1 for l in lam)
    out = set()
    for kp in cqc_layer_sums(upsilon(mu)):
        if any(kp[i] % 2 for i in range(r - 1)):
            continue
        nu = _nu_shift(lam, kp)
        if any(x < 0 for x in nu):
            continue
        for ksub in h_support(nu):
            k = (
                (kp[0] // 2,)
                + tuple(kp[i] // 2 + ksub[i - 1] for i in range(1, r - 1))
                + (kp[r - 1] + ksub[r - 2],)
            )
            out.add(k)
    return frozenset(out)


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

    def k_of_wt(wt):
        k = []
        acc = 0
        for i in range(r):
            step = a0[i] - wt[i]
            if step % 2:
                return None
            acc += step // 2
            k.append(acc)
        return tuple(k) if all(x >= 0 for x in k) else None

    def gt_side(k):
        target = tuple(
            a0[i] + 2 * (k[i - 1] if i else 0) - 2 * k[i] for i in range(r)
        )
        poly = buckets.get(target)
        return poly.substitute({"t": minus_qinv}) if poly is not None else _Q0

    domain = set(h_support(lam))
    for wt in buckets:
        k = k_of_wt(wt)
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

    domain = set(h_support(lam))
    for mono in lhs.terms:
        k = []
        acc = 0
        ok = True
        for i in range(r):
            step = mono.z[i] + a0[i]  # doubled z-exponent plus a_{0,i}
            if step % 2:
                ok = False
                break
            acc += step // 2
            k.append(acc)
        if not ok or any(x < 0 for x in k):
            result.mismatches.append(
                {"monomial": str(mono), "error": "no matching k index"}
            )
            continue
        domain.add(tuple(k))

    recon = LaurentPoly.zero(r)
    for k in sorted(domain):
        constraints = {}
        zexp = []
        for i in range(r):
            twice = 2 * (k[i] - (k[i - 1] if i else 0)) - a0[i]
            constraints[f"z{i + 1}"] = Fraction(twice, 2)
            zexp.append(Fraction(twice, 2))
        coeff = lhs.coefficient_of(constraints)
        hval = h_flat(k, lam).embed(r)
        result.checked += 1
        if coeff != hval:
            result.mismatches.append(
                {"k": list(k), "coefficient": str(coeff), "h_flat": str(hval)}
            )
        if hval:
            recon = recon + hval.shift(
                LaurentPoly.monomial(r, zexp=zexp).leading()
            )
    if recon != lhs:
        result.mismatches.append({"error": "reconstruction differs from the product"})
    result.checked += 1
    return result
