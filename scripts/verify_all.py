#!/usr/bin/env python3
"""Run the full desk-scale verification battery through the CLI.

Prints one line per job with its verdict, wall-clock runtime and peak RSS
(the job's own, from os.wait4), then a summary with the largest peak RSS.
A job that exits 1 with a JSON report is a verification failure; a usage
or budget error (exit 2), a traceback, or output that is not a report is
an error.  Exits 0 when every job passes, 1 when some claim
fails and nothing errs, 2 when any job errs.

A child's ru_maxrss never reads below the high-water mark of the process
that spawned it, so the driver never holds a report: each report is parsed
by a short-lived child that reads the report file on stdin (report_verdict).
"""

import itertools
import os
import subprocess
import sys
import tempfile
import time

IDENTITY_GRID = (
    [(lam,) for lam in range(7)]
    + list(itertools.product(range(3), repeat=2))
    + list(itertools.product(range(2), repeat=3))
)
# The {0,1}^4 weights that the rank-4 frontier jobs below leave out.
RANK4_GRID = [lam for lam in itertools.product(range(2), repeat=4)
              if lam not in ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1))]
# theorem1 runs at every {0,1}^4 weight but (1,1,1,1), which takes over 20 s.
THEOREM1_RANK4 = [lam for lam in itertools.product(range(2), repeat=4)
                  if lam not in ((0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1))]


def lambda_args(lam) -> list:
    return ["--rank", str(len(lam)), "--lambda", ",".join(map(str, lam))]


# theorem1 and its tableau twin corollary2 on the rank 1-3 grid, then the
# frontier weights.
JOBS = [(claim, lambda_args(lam)) for claim in ("theorem1", "corollary2")
        for lam in IDENTITY_GRID]
JOBS += [
    ("theorem1", lambda_args((2, 1, 1))),  # the rank-3 frontier
    ("theorem1", lambda_args((0, 0, 0, 0))),  # the rank-4 frontier
    ("theorem1", lambda_args((1, 0, 0, 0))),
    ("corollary2", lambda_args((2, 1, 1))),
    ("corollary2", lambda_args((0, 0, 0, 0))),
    ("corollary2", lambda_args((1, 0, 0, 0))),
    ("corollary2", lambda_args((0, 0, 0, 1))),
    ("corollary2", lambda_args((3, 2))),
    ("gh", ["--lambda", "3,2"]),
    ("gh", ["--lambda", "1,1,1"]),
    ("prop3", ["--lambda", "3,2"]),
    ("prop3", ["--lambda", "1,1,1"]),
    ("gh", ["--lambda", "2,1,1"]),
    ("prop3", ["--lambda", "2,1,1"]),
    ("gh", lambda_args((0, 0, 0, 0))),  # the rank-4 bridges
    ("gh", lambda_args((1, 0, 0, 0))),
    ("gh", lambda_args((0, 0, 0, 1))),
    ("prop3", lambda_args((0, 0, 0, 0))),
    ("prop3", lambda_args((1, 0, 0, 0))),
    ("prop3", lambda_args((0, 0, 0, 1))),
    ("prop3", lambda_args((1, 1, 1, 1))),  # the rank-4 frontier bridge
    ("prop3", lambda_args((0, 0, 0, 0, 0))),  # the rank-5 bridge
    ("gh", ["--lambda", "0,0,0,0,0"]),
    ("corollary2", lambda_args((0, 0, 0, 0, 0))),  # the rank-5 frontier
    *((claim, lambda_args(lam)) for lam in RANK4_GRID for claim in ("corollary2", "gh")),
    *(("theorem1", lambda_args(lam)) for lam in THEOREM1_RANK4),
    ("prop4", ["--rank", "2", "--mu", "2,2", "--p", "3", "--dmax", "3"]),
    *(("prop4", ["--rank", "3", "--mu", "2,1,2", "--p", p, "--dmax", "3",
                 "--budget", "300000"]) for p in ("2", "3", "5")),
    ("prop5", ["--mu", "2,2"]),
    ("prop5", ["--mu", "2,1,1"]),
    ("prop6", ["--mu", "2,2", "--p", "3", "--kmax", "4"]),
    ("prop6", ["--mu", "1,1,1", "--p", "5", "--kmax", "3"]),
    ("lemma3", ["--mu", "3,2"]),
    ("lemma3", ["--mu", "2,2,1"]),
    ("lemma10-equiv", ["--mu", "2,2"]),
    ("lemma10-equiv", ["--mu", "4,3"]),
    ("lemma10-equiv", ["--mu", "2,2,1"]),
]


def outcome(returncode: int, stderr: str, verdict) -> str:
    """pass / fail (a verification failure) / error, from the exit code,
    stderr and the report's verdict (None when stdout is not a report)."""
    if returncode in (0, 1) and "Traceback" not in stderr:
        if (returncode, verdict) == (0, "pass"):
            return "pass"
        if (returncode, verdict) == (1, "fail"):
            return "fail"
    return "error"


def report_verdict(report):
    """The "verdict" of the JSON report in the open file ``report``, or None
    when it holds no JSON object with a string verdict.  A short-lived child
    parses the whole report from its stdin, so the driver never holds it."""
    report.seek(0)
    child = subprocess.run([sys.executable, "-c", """
import json, sys
try:
    verdict = json.loads(sys.stdin.buffer.read().decode())["verdict"]
except (ValueError, KeyError, TypeError):
    verdict = None
if isinstance(verdict, str):
    sys.stdout.write(verdict)
"""], stdin=report, capture_output=True, text=True)
    return child.stdout or None


def run(cmd):
    """The outcome of cmd, its stderr, its wall time in s and its peak RSS
    in MB.  os.wait4 reads the child's own rusage; RUSAGE_CHILDREN would
    give the largest peak of every child so far."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        elapsed = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        err.seek(0)
        stderr = err.read().decode()
        result = outcome(child.returncode, stderr, report_verdict(out))
    return result, stderr, elapsed, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main():
    tally = {"pass": 0, "fail": 0, "error": 0}
    total = peak = 0.0
    for claim, args in JOBS:
        cmd = [sys.executable, "-m", "spinchar", "verify", claim] + args
        result, stderr, elapsed, rss = run(cmd)
        total += elapsed
        peak = max(peak, rss)
        tally[result] += 1
        print(f"{claim:14s} {' '.join(args):42s} -> {result:5s} {elapsed:8.2f}s {rss:7.1f} MB")
        if result == "error" and stderr:
            print("   ", stderr.strip())
    print(
        f"\n{tally['pass']}/{len(JOBS)} jobs passed in {total:.1f} s of job wall time, "
        f"{tally['fail']} failed verification, {tally['error']} errors, "
        f"peak RSS {peak:.1f} MB"
    )
    if tally["error"]:
        return 2
    return 1 if tally["fail"] else 0


if __name__ == "__main__":
    sys.exit(main())
