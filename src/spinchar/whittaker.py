"""Prime-power coefficients H(p^k; p^lambda) and their consistency checks.

The rank-one value is the classical Ramanujan-sum evaluation; higher ranks
come from one forward pass of the layer recursion per weight: flavor-C
decorated sums over the top layer (bucketed by weighting vector) times the
rank r-1 table at a shifted dominant weight.  h_table(lambda) holds every
k the pass reaches; h_coeff and h_support read it.  Each entry is summed
in place on one {q exponent: coefficient} map and becomes a polynomial
once.  All values are exact Laurent polynomials in q; the flat
normalization divides by q^(k_1 + ... + k_r).  The layer sums are counted
weight triples (see padic), expanded once per weighting vector.

The recursion filters the layer vectors k' to have even entries before the
last coordinate; the filter is redundant on the support (tested) since the
decorated sums vanish otherwise.  Layers whose shifted weight would leave
the dominant cone are skipped; none carries a nonzero sum (tested).

The two coefficient bridges read H off the two sides of the deformed
denominator identity at t = -1/q (a direct map of the keys): prop3 off
D(z; -1/q) chi_lambda, gh off the circle-pattern sum tokuyama_rhs(lambda).
Both are one check, _bridge, which splits a (z, q) polynomial by k through
the one map _k_of_z / _z_of_k between k and the doubled z-exponent (= minus
the pattern weight), compares each part, a polynomial in q, with the flat
coefficient and rebuilds the polynomial from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .gtpatterns import tokuyama_rhs
from .laurent import LaurentPoly, Monomial
from .padic import cqc_layer_sums
from .rootdata import character, deformed_denominator, dominant, shifted_weight, top_row

_Q0 = LaurentPoly.zero(0)


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
    """The doubled top parameter v(nu + rho) of the next layer, nu =
    _nu_shift(lam, kp), straight from its own formula."""
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
    acc = {}  # k -> {doubled q exponent: coefficient}, summed in place
    for kp, gsum in cqc_layer_sums(shifted_weight(lam)).items():
        if any(kp[i] % 2 for i in range(r - 1)):
            continue  # redundant on the support; kept as the outer-sum filter
        nu = _nu_shift(lam, kp)
        if any(x < 0 for x in nu):
            continue
        if shifted_weight(nu) != _mu_second(lam, kp):
            raise AssertionError(f"_mu_second({lam}, {kp}) is not v({nu} + rho)")
        shift = 2 * (kp[r - 1] + sum(kp[: r - 1]) // 2)
        layer = [(q + shift, c) for (_, q), c in gsum.terms.items()]
        for ksub, hsub in h_table(nu).items():
            k = (
                (kp[0] // 2,)
                + tuple(kp[i] // 2 + ksub[i - 1] for i in range(1, r - 1))
                + (kp[r - 1] + ksub[r - 2],)
            )
            terms = acc.setdefault(k, {})
            get = terms.get
            for (_, qb), cb in hsub.terms.items():
                for qa, ca in layer:
                    q = qa + qb
                    terms[q] = get(q, 0) + ca * cb
    return {
        k: LaurentPoly._make({(0, q): c for q, c in terms.items() if c}, 0)
        for k, terms in acc.items()
    }


def h_coeff(k: tuple, lam: tuple) -> LaurentPoly:
    """H at prime powers, as an exact polynomial in q (rank-0 Laurent poly)."""
    lam = dominant(lam)
    if len(lam) != len(k):
        raise ValueError("k and lambda must have equal length")
    if any(x < 0 for x in k):
        raise ValueError("indices must be nonnegative")
    return h_table(lam).get(tuple(k), _Q0)


def h_flat(k: tuple, lam: tuple) -> LaurentPoly:
    """q^(-sum k) H(p^k; p^lambda)."""
    return h_coeff(tuple(k), tuple(lam)).shift(Monomial((), 0, -2 * sum(k)))


def h_support(lam: tuple) -> frozenset:
    """Superset of the k-support of H(p^k; p^lam): the keys of its table."""
    return frozenset(h_table(dominant(lam)))


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
    mismatches: list = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _at_minus_qinv(poly: LaurentPoly) -> LaurentPoly:
    """poly with t = -1/q: each key (z, 2n, q) goes to (z, 0, q - 2n) with
    the sign (-1)^n."""
    r = poly.rank
    out = {}
    for mono, coef in poly.terms.items():
        t = mono[r]
        key = mono[:r] + (0, mono[r + 1] - t)
        out[key] = out.get(key, 0) + (-coef if t % 4 else coef)
    return LaurentPoly._make({m: c for m, c in out.items() if c}, r)


def _bridge(lam: tuple, poly: LaurentPoly) -> CheckResult:
    """A rank-r (z, q) polynomial against the flat coefficients, split by k.

    Each z-monomial of ``poly`` must carry a k (by _k_of_z), and its
    q-coefficient must be q^(-sum k) H(p^k; p^lam), for every k in either
    support; the flat coefficients put back at their monomials must also
    rebuild ``poly`` exactly.  Monomials without a k are listed in
    descending key order, so the report does not depend on term order.
    """
    r = len(lam)
    a0 = top_row(shifted_weight(lam))
    result = CheckResult()

    # The polynomial split by k into rank-0 (t, q) parts, where H lives.
    parts = {}
    k_of = {}  # one _k_of_z per distinct z-part
    strays = []
    for mono, coef in poly.terms.items():
        z = mono[:r]
        if z not in k_of:
            k_of[z] = _k_of_z(a0, z)
        k = k_of[z]
        if k is None:
            strays.append(mono)
        else:
            parts.setdefault(k, {})[mono[r:]] = coef
    for mono in sorted(strays, reverse=True):
        result.mismatches.append(
            {"monomial": str(LaurentPoly._make({mono: 1}, r)),
             "error": "no matching k index"}
        )

    recon = {}
    for k in sorted(set(h_support(lam)) | set(parts)):
        coeff = LaurentPoly._make(parts.get(k, {}), 0)
        hval = h_flat(k, lam)
        result.checked += 1
        if coeff != hval:
            result.mismatches.append(
                {"k": list(k), "coefficient": str(coeff), "h_flat": str(hval)}
            )
        z = _z_of_k(a0, k)
        recon.update({z + m: c for m, c in hval.terms.items()})
    if LaurentPoly._make(recon, r) != poly:
        result.mismatches.append({"error": "reconstruction differs from the polynomial"})
    result.checked += 1
    return result


def gh_check(lam) -> CheckResult:
    """The circle-pattern sum (tokuyama_rhs) at t = -1/q against the flat
    coefficients: the patterns of weight -z(k) sum to q^(-sum k) H(p^k)."""
    lam = tuple(lam)
    return _bridge(lam, _at_minus_qinv(tokuyama_rhs(lam)))


def prop3_check(lam) -> CheckResult:
    """D(z; -1/q) chi_lam(z), expanded exactly, against the flat coefficients."""
    lam = tuple(lam)
    r = len(lam)
    product = _at_minus_qinv(deformed_denominator(r)) * character(lam, r)
    return _bridge(lam, product)
