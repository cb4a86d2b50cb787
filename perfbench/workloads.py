"""Job lists of the four workloads.

A job is one ``spinchar`` command line, run through ``spinchar.cli.main``.
Every job says what a correct run of it looks like:

* ``pass``   -- a ``verify`` claim: exit 0 and verdict ``pass``;
* ``output`` -- ``coeff`` / ``enumerate``: exit 0 with output on stdout;
* ``usage``  -- a malformed call: exit 2, a one-line error on stderr and
  no traceback.

The seed only orders the jobs of a round; the set of jobs is fixed, so
every seed does the same work.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

ORACLE_BUDGET = 300_000
RANK4_WEIGHTS = ((0, 0, 0, 2), (1, 0, 0, 0))
WORKED_COEFF = ("3,2", "z2=11/2")
DUMP_TOP = (2, 2, 2)  # the doubled top v(lambda + rho) for lambda = (0, 0, 1)


@dataclass(frozen=True)
class Job:
    argv: tuple
    expect: str  # "pass" | "output" | "usage"

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _verify(claim, *args) -> Job:
    return Job(("verify", claim) + tuple(str(a) for a in args), "pass")


def _usage(*args) -> Job:
    return Job(tuple(args), "usage")


def identity_weights():
    """(rank, lambda) of the identity workload: the acceptance grid at
    ranks 1 and 2 and its three cheapest rank-3 weights."""
    out = [(1, (lam,)) for lam in range(7)]
    out += [(2, lam) for lam in itertools.product(range(3), repeat=2)]
    out += [(3, lam) for lam in ((0, 0, 0), (1, 0, 0), (0, 0, 1))]
    return out


def prop3_weights():
    """Criterion-9 grid at ranks 1 and 2 plus three rank-3 weights."""
    out = [(l,) for l in range(4)]
    out += list(itertools.product(range(4), repeat=2))
    out += [(0, 0, 0), (1, 0, 0), (0, 0, 1)]
    return out


def oracle_mus():
    """mu of the prop4 sweeps: all of {1,2,3}^2 and five rank-3 vectors."""
    out = list(itertools.product((1, 2, 3), repeat=2))
    out += [(1, 1, 1), (2, 1, 2), (2, 2, 2), (1, 2, 3), (3, 2, 1)]
    return out


def _identity():
    jobs = []
    for claim in ("theorem1", "corollary2"):
        for r, lam in identity_weights():
            jobs.append(_verify(claim, "--rank", r, "--lambda", _csv(lam)))
    return jobs


def _oracle():
    jobs = []
    for mu in oracle_mus():
        for p in (2, 3, 5):
            jobs.append(_verify(
                "prop4", "--rank", len(mu), "--mu", _csv(mu), "--p", p,
                "--dmax", 3, "--budget", ORACLE_BUDGET,
            ))
    # A non-prime p: 4 makes the oracle raise, 1 is accepted and "passes".
    jobs.append(_usage("verify", "prop4", "--mu", "2,2", "--p", "4", "--dmax", "1"))
    jobs.append(_usage("verify", "prop4", "--mu", "2,2", "--p", "1", "--dmax", "1"))
    return jobs


def _coefficients():
    jobs = [_verify("prop3", "--lambda", _csv(lam)) for lam in prop3_weights()]
    jobs += [
        _verify("gh", "--lambda", _csv(lam))
        for lam in prop3_weights() if len(lam) <= 2
    ]
    for r in (2, 3):  # criterion-7 grid
        for mu in itertools.product(range(1, 7), repeat=r):
            if sum(mu) > 6:
                continue
            top = mu[-1] + 2 * sum(mu[:-1])
            jobs.append(_verify("prop5", "--mu", _csv(mu), "--kmax", top + 2))
            jobs.append(_verify("lemma3", "--mu", _csv(mu)))
    for r in (2, 3):  # criterion-8 grid
        for p in (3, 5):
            for mu in itertools.product((1, 2), repeat=r):
                jobs.append(_verify("prop6", "--mu", _csv(mu), "--p", p, "--kmax", 4))
    lam, fix = WORKED_COEFF
    jobs.append(Job(("coeff", "--rank", "2", "--lambda", lam, "--fix", fix), "output"))
    for lam in RANK4_WEIGHTS:
        jobs.append(Job(("coeff", "--rank", "4", "--lambda", _csv(lam)), "output"))
    jobs.append(_usage("verify", "prop3", "--lambda", "1,-1"))
    jobs.append(_usage("verify", "gh", "--lambda", "1,-1"))
    jobs.append(_usage("coeff", "--lambda", "1,1", "--fix", "z1=1/3"))
    return jobs


def _dump():
    top = _csv(DUMP_TOP)
    return [
        Job(("enumerate", "gt", "--mu", top), "output"),
        Job(("enumerate", "tableaux", "--mu", top), "output"),
        _usage("enumerate", "gt"),
        _usage("enumerate", "omega", "--mu", "2,2", "--k-scalar", "3"),
    ]


WORKLOADS = {
    "identity": _identity,
    "oracle": _oracle,
    "coefficients": _coefficients,
    "dump": _dump,
}


def build(name: str, seed: int) -> list:
    """The jobs of one round, in the order the seed gives them."""
    jobs = WORKLOADS[name]()
    random.Random(seed).shuffle(jobs)
    return jobs
