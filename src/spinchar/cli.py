"""Command line interface: verify / enumerate / coeff.

Exit codes: 0 = pass, 1 = verification failure, 2 = usage or budget error
(a malformed call, or a ValueError raised by the library on its input, is
reported in one line on stderr).  When the reader closes stdout early
(`spinchar ... | head`), the output stops quietly and the exit code stays.
Reports are emitted as JSON on stdout (deterministic; runtime_ms is null
unless --timing is given).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from fractions import Fraction

from . import gtpatterns, padic, rootdata, tableaux, whittaker
from .laurent import LaurentPoly
from .reports import Report

USAGE_ERROR = 2


class UsageError(Exception):
    pass


def _parse_ints(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}")


def _dominant_lambda(args, claim: str) -> tuple:
    """--lambda as a dominant weight, and the rank, which --rank must match."""
    lam = _parse_ints(args.lam)
    r = args.rank if args.rank is not None else len(lam)
    if r < 1 or len(lam) != r or any(x < 0 for x in lam):
        raise UsageError(f"{claim} needs --rank >= 1 and a dominant --lambda")
    return lam, r


def _mu(args, least: int = 1, least_rank: int = 2, dest: str = "mu") -> tuple:
    """--mu (or the flag of ``dest``) with entries >= ``least`` and rank >=
    ``least_rank``, which --rank must match where the command has one."""
    mu = _parse_ints(getattr(args, dest))
    r = getattr(args, "rank", None)
    if r is None:
        r = len(mu)
    if len(mu) != r or r < least_rank or any(m < least for m in mu):
        rank = f"rank >= {least_rank} and " if least_rank > 1 else ""
        sign = "positive" if least > 0 else "nonnegative"
        label = args.claim if args.command == "verify" else f"enumerate {args.kind}"
        raise UsageError(f"{label} needs {rank}{sign} --{dest}")
    return mu


def _top_mu(args) -> tuple:
    """--mu of a pattern top row, top_row(mu): nonnegative, and strictly
    decreasing only when no entry before the last is 0."""
    mu = _mu(args, least=0, least_rank=1)
    if 0 in mu[:-1]:
        raise UsageError(f"--mu {args.mu}: only its last entry may be 0")
    return mu


def _prime(args) -> int:
    """--p, default 3; the oracle sums need a prime.  ``brute_force_G``
    refuses ``p^cap > 2^31`` and only ``d = 0`` has cap 0, so a p of 2^31
    or more is refused before the trial division, which it would make slow."""
    p = 3 if args.p is None else args.p
    if p >= 2**31:
        raise UsageError(f"--p must be below 2^31, got {p}")
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise UsageError(f"--p must be a prime, got {p}")
    return p


def _at_least(value, flag: str, least: int = 0):
    """An optional sweep bound or budget; below ``least`` it would check nothing."""
    if value is not None and value < least:
        raise UsageError(f"{flag} must be >= {least}, got {value}")
    return value


# -- verify ------------------------------------------------------------------


def _verify_theorem1(args) -> Report:
    lam, r = _dominant_lambda(args, "theorem1")
    rep = Report("theorem1", {"rank": r, "lambda": list(lam)})
    # One side at a time is held as a polynomial and kept as its text: str
    # is canonical, so the texts agree exactly when the sides do.
    side = rootdata.deformed_denominator(r) * rootdata.weyl_numerator(
        rootdata.top_row(rootdata.shifted_weight(lam)), r
    )
    rep.lhs, lhs_terms = str(side), len(side)
    del side
    side = gtpatterns.tokuyama_rhs(lam, r) * rootdata.weyl_numerator(
        rootdata.rho(r), r
    )
    rep.rhs, rhs_terms = str(side), len(side)
    del side
    rep.counts = {"lhs_terms": lhs_terms, "rhs_terms": rhs_terms}
    if rep.lhs != rep.rhs:
        diff = LaurentPoly.parse(rep.lhs, r) - LaurentPoly.parse(rep.rhs, r)
        rep.mismatches.append({"difference": str(diff)})
    return rep


def _verify_corollary2(args) -> Report:
    lam, r = _dominant_lambda(args, "corollary2")
    lhs = gtpatterns.tokuyama_rhs(lam, r)
    rhs = tableaux.corollary_rhs(lam, r)
    rep = Report("corollary2", {"rank": r, "lambda": list(lam)})
    rep.lhs, rep.rhs = str(lhs), str(rhs)
    if lhs != rhs:
        rep.mismatches.append({"difference": str(lhs - rhs)})
    return rep


def _verify_bridge(args) -> Report:
    """gh or prop3: one side of Theorem 1 at t = -1/q against H(p^k; p^lambda)."""
    lam, _ = _dominant_lambda(args, args.claim)
    check = whittaker.gh_check if args.claim == "gh" else whittaker.prop3_check
    res = check(lam)
    rep = Report(args.claim, {"lambda": list(lam)})
    rep.counts = {"checked": res.checked}
    rep.mismatches = res.mismatches
    return rep


def _verify_prop4(args) -> Report:
    mu = _mu(args)
    r = len(mu)
    p = _prime(args)
    dmax = _at_least(args.dmax, "--dmax")
    budget = _at_least(args.budget, "--budget", 1)
    rep = Report("prop4", {"rank": r, "mu": list(mu), "p": p, "dmax": dmax})
    counts = {"agree": 0, "fail": 0, "skip": 0, "hypothesis_ok": 0, "hypothesis": 0}
    instances = 0
    for d in itertools.product(range(dmax + 1), repeat=2 * r - 1):
        t = padic.ShortPatternB(mu, d)
        if not padic.preconditions_hold(t):
            continue
        instances += 1
        try:
            bf = padic.brute_force_G(t, p, budget=budget)
        except padic.BudgetExceededError:
            counts["skip"] += 1
            continue
        cf = padic.closed_form_G(t)
        if cf is None:
            # Uncovered middle cell: the tested hypothesis is G = 0.
            kind = "hypothesis_ok" if bf == 0 else "hypothesis"
        else:
            want = cf.evaluate({"q": p})
            kind = "agree" if bf == want else "fail"
        counts[kind] += 1
        if kind == "fail":
            rep.mismatches.append(
                {"d": list(d), "p": p, "oracle": str(bf), "closed_form": str(want)}
            )
        elif kind == "hypothesis":
            rep.mismatches.append(
                {"d": list(d), "p": p, "oracle": str(bf), "error": "zero hypothesis"}
            )
    rep.counts = counts | {"instances": instances}
    return rep


def _verify_prop5(args) -> Report:
    mu = _mu(args)
    kmax = _at_least(args.kmax, "--kmax")
    if kmax is None:
        kmax = mu[-1] + 2 * sum(mu[:-1]) + 2
    rep = Report("prop5", {"mu": list(mu), "kmax": kmax, "q": args.q})
    values = []
    for kr in range(kmax + 1):
        lhs, rhs = padic.prop5_sides(mu, kr)
        if lhs != rhs:
            rep.mismatches.append({"k_r": kr, "lhs": str(lhs), "rhs": str(rhs)})
        if args.q is not None:
            values.append(
                [kr, str(lhs.evaluate({"q": args.q})),
                 str(rhs.evaluate({"q": args.q}))]
            )
    rep.counts = {"checked": kmax + 1}
    if args.q is not None:
        rep.counts["values_at_q"] = values
    return rep


def _verify_prop6(args) -> Report:
    mu = _mu(args)
    p = _prime(args)
    kmax = _at_least(args.kmax, "--kmax")
    budget = _at_least(args.budget, "--budget", 1)
    rep = Report("prop6", {"mu": list(mu), "p": p, "kmax": kmax})
    if args.k is not None:
        k = _parse_ints(args.k)
        if len(k) != len(mu) or min(k) < 0:
            raise UsageError(f"--k needs {len(mu)} nonnegative entries, as --mu has")
        if kmax is not None:
            raise UsageError("--k checks one k vector and --kmax sweeps: give one")
        kvecs = [k]
        rep.params["k"] = list(k)
    else:
        top = 4 if kmax is None else kmax
        kvecs = list(itertools.product(range(top + 1), repeat=len(mu)))
    used = skipped = 0
    for k in kvecs:
        res = padic.prop6_check(mu, k, p, budget=budget)
        used += res.used_oracle
        skipped += res.skipped_divisibility
        if not res.verdict:
            rep.mismatches.append(
                {"k": list(k), "lhs": str(res.lhs), "rhs": str(res.rhs)}
            )
    rep.counts = {"checked": len(kvecs), "oracle_terms": used,
                  "divisibility_skipped": skipped}
    return rep


def _verify_lemma3(args) -> Report:
    mu = _mu(args, least_rank=1)
    rep = Report("lemma3", {"mu": list(mu)})
    n = 0
    for s in padic.omega_sets(mu, "<="):
        direct = padic.lemma3_direct(s, mu)
        closed = padic.lemma3_closed(s, mu)
        n += 1
        if direct != closed:
            rep.mismatches.append(
                {"s": list(s), "direct": str(direct), "closed": str(closed)}
            )
    rep.counts = {"checked": n}
    return rep


def _verify_lemma10(args) -> Report:
    mu = _top_mu(args)
    mup = rootdata.upsilon(mu)
    rep = Report("lemma10-equiv", {"mu": list(mu), "top_parameter": list(mup)})
    n = 0
    for p in gtpatterns.enumerate_strict(mup):
        n += 1
        a = gtpatterns.gt_circle_by_cstat(p)
        b = gtpatterns.gt_circle_by_row_parity(p)
        if a != b:
            rep.mismatches.append(
                {"rows": [list(row) for row in p.rows()], "cstat": a, "rows_parity": b}
            )
    rep.counts = {"patterns": n}
    return rep


# Every claim: its handler and the flags the handler reads (and --timing).
_LAMBDA = ("rank", "lambda")
_VERIFIERS = {
    "theorem1": (_verify_theorem1, _LAMBDA),
    "corollary2": (_verify_corollary2, _LAMBDA),
    "prop3": (_verify_bridge, _LAMBDA),
    "gh": (_verify_bridge, _LAMBDA),
    "prop4": (_verify_prop4, ("rank", "mu", "p", "dmax", "budget")),
    "prop5": (_verify_prop5, ("rank", "mu", "kmax", "q")),
    "prop6": (_verify_prop6, ("rank", "mu", "k", "p", "kmax", "budget")),
    "lemma3": (_verify_lemma3, ("rank", "mu")),
    "lemma10-equiv": (_verify_lemma10, ("rank", "mu")),
}


# -- enumerate ----------------------------------------------------------------


def _enumerate_patterns(args) -> None:
    """gt / tableaux: one JSON line per strict pattern of top --mu, or per
    tableau it maps to.  The per-record functions are looked up on each
    call, so that wrappers installed on their modules see the calls."""
    limit = _at_least(args.limit, "--limit", 1)
    mu = _top_mu(args)
    tab = args.kind == "tableaux"
    in_circle = tableaux.in_st_circle if tab else gtpatterns.in_gt_circle
    to_json = tableaux.tableau_json if tab else gtpatterns.GTPattern.to_json
    out = sys.stdout
    n = 0
    for p in gtpatterns.enumerate_strict(mu):
        if tab:
            p = tableaux.from_gt(p)
        if args.circle_only and not in_circle(p):
            continue
        out.write(to_json(p) + "\n")
        n += 1
        if n == limit:
            break


def _enumerate_omega(args) -> None:
    mu = _mu(args, least=0, least_rank=1)
    if args.index is not None and not 1 <= args.index <= len(mu):
        raise UsageError(f"--index must lie in 1..{len(mu)}, got {args.index}")
    if (args.weighting is None) != (args.k_scalar is None):
        raise UsageError("--weighting and --k-scalar must be given together")
    for t in padic.omega_sets(
        mu, args.kind_rel, weighting=args.weighting, k=args.k_scalar, i=args.index
    ):
        sys.stdout.write(json.dumps({"d": list(t)}) + "\n")


def _enumerate_cq(args) -> None:
    mup = _mu(args, least=0, least_rank=1, dest="muprime")
    csv = args.format == "csv"
    if csv:
        head = [f"d{i}" for i in range(1, 2 * len(mup))] + ["k", "g"]
        sys.stdout.write(",".join(head) + "\n")
    for d in padic.iter_cqc(mup):
        arr = padic.decorate_C_pullback(d, mup)
        lit = padic.decorate_C_literal(d, mup)
        row = {
            "d": list(d),
            "entries": list(arr.entries),
            "boxed": list(arr.boxed),
            "circled": list(arr.circled),
            "literal_agrees": (arr.boxed, arr.circled) == (lit.boxed, lit.circled),
            "k": list(padic.k_vector_C(d, len(mup))),
            "g": str(padic.g_delta_C(arr)),
        }
        if csv:
            line = ",".join([str(x) for x in d]
                            + [" ".join(map(str, row["k"])), f"\"{row['g']}\""])
        else:
            line = json.dumps(row, sort_keys=True)
        sys.stdout.write(line + "\n")


# Every enumeration kind: its handler and the flags the handler reads.
_PATTERN_FLAGS = ("mu", "circle-only", "limit")
_ENUMERATORS = {
    "gt": (_enumerate_patterns, _PATTERN_FLAGS),
    "tableaux": (_enumerate_patterns, _PATTERN_FLAGS),
    "omega": (_enumerate_omega, ("mu", "kind-rel", "weighting", "k-scalar", "index")),
    "cq": (_enumerate_cq, ("muprime", "format")),
}


# -- coeff --------------------------------------------------------------------


def _coeff(args) -> None:
    lam, r = _dominant_lambda(args, "coeff")
    product = rootdata.deformed_denominator(r) * rootdata.character(lam, r)
    constraints = {}
    for fix in args.fix or ():
        if "=" not in fix:
            raise UsageError("--fix expects VAR=EXPONENT, e.g. z2=11/2")
        name, _, value = fix.partition("=")
        name = name.strip()
        if name in constraints:
            raise UsageError(f"--fix {name} is given twice; fix each variable once")
        try:
            constraints[name] = Fraction(value.strip())
        except ZeroDivisionError:
            raise UsageError(f"--fix {fix}: the exponent has a zero denominator")
    print(product.coefficient_of(constraints) if constraints else product)


# -- entry point ---------------------------------------------------------------

# argparse keywords of every flag, by name; a sub-parser gets exactly the
# flags its table entry lists, so a required one is enforced by argparse and
# one its handler does not read is refused.
_FLAG_SPECS = {
    "rank": {"type": int},
    "lambda": {"dest": "lam", "required": True},
    "mu": {"required": True},
    "muprime": {"required": True},
    "k": {},
    "p": {"type": int},
    "q": {"type": int},
    "dmax": {"type": int, "default": 3},
    "kmax": {"type": int},
    "budget": {"type": int, "default": padic.DEFAULT_BUDGET},
    "timing": {"action": "store_true"},
    "circle-only": {"action": "store_true"},
    "limit": {"type": int},
    "kind-rel": {"default": "<=", "choices": ("<", "<=", "=", ">=", ">")},
    "weighting": {"choices": ("A", "B")},
    "k-scalar": {"type": int},
    "index": {"type": int},
    "format": {"choices": ("jsonl", "csv"), "default": "jsonl"},
    "fix": {"action": "append", "metavar": "VAR=EXP"},
}


def _usage_exit(prefix: str, exc: Exception) -> int:
    """One line on stderr, usage exit code."""
    print(f"{prefix}: {' '.join(str(exc).split())}", file=sys.stderr)
    return USAGE_ERROR


class _OneLineParser(argparse.ArgumentParser):
    """Reports a malformed call in one stderr line, without the usage block;
    its subparsers share the class."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _with_flags(parser, flags) -> None:
    for flag in flags:
        parser.add_argument(f"--{flag}", **_FLAG_SPECS[flag])


def build_parser() -> argparse.ArgumentParser:
    """One sub-parser per claim, per enumeration kind and for coeff."""
    ap = _OneLineParser(
        prog="spinchar",
        description="verify, enumerate and print deformed-character data",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, dest, table, extra, help in (
        ("verify", "claim", _VERIFIERS, ("timing",), "run a verification claim"),
        ("enumerate", "kind", _ENUMERATORS, (), "stream combinatorial objects"),
    ):
        names = sub.add_parser(command, help=help).add_subparsers(
            dest=dest, required=True
        )
        for name, (_, flags) in table.items():
            _with_flags(names.add_parser(name), flags + extra)
    coeff = sub.add_parser("coeff", help="print a coefficient of the product")
    _with_flags(coeff, ("rank", "lambda", "fix"))
    return ap


# Built once per process, as a module constant rather than a functools cache
# (perfbench empties those after every job): a parse costs a small fraction
# of a build.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if [] in vars(args).values():  # argparse drops a value of --, leaving []
        _PARSER.error("a flag's value is --")
    code = 0  # the exit code once the output is written
    try:
        if args.command == "verify":
            start = time.monotonic()
            report = _VERIFIERS[args.claim][0](args)
            if args.timing:
                report.runtime_ms = round(1000 * (time.monotonic() - start), 3)
            code = 0 if report.verdict == "pass" else 1
            print(report.to_json())
        elif args.command == "enumerate":
            _ENUMERATORS[args.kind][0](args)
        else:
            _coeff(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`spinchar ... | head`), which is
        # not a failure: keep the exit code.  Point the descriptor at
        # devnull so that the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return code
    except padic.BudgetExceededError as exc:
        return _usage_exit("budget error", exc)
    except (UsageError, ValueError, OverflowError) as exc:
        # A library ValueError means the input is outside what it accepts;
        # an OverflowError, that a number given is too large for it.
        return _usage_exit("error", exc)
    return code


if __name__ == "__main__":
    sys.exit(main())
