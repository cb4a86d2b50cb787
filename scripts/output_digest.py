#!/usr/bin/env python3
"""Print one SHA-256 over the output of every benchmark workload job.

Runs each job of perfbench/workloads.py (imported, never changed) through
spinchar.cli.main in this one process: the workloads in name order, each
workload's jobs in the order it lists them, unshuffled.  Prints the number
of jobs and one SHA-256 over repr((argv, stdout, stderr, exit code)) of
every job, so two checkouts that print the same digest gave the same bytes
and exit codes on every job.  The spinchar package is taken from this
checkout's src/.

Usage: python scripts/output_digest.py
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from spinchar import cli  # noqa: E402


def workload_jobs() -> list:
    """The argv of every workload job, workloads in name order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return [job.argv for name in sorted(workloads.WORKLOADS)
            for job in workloads.WORKLOADS[name]()]


def digest(argvs) -> tuple:
    """(number of jobs, SHA-256 hex digest) of the jobs' argv, stdout,
    stderr and exit code, run in order through cli.main."""
    sha = hashlib.sha256()
    n = 0
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse exits on a usage error
                code = exc.code
        sha.update(repr((tuple(argv), out.getvalue(), err.getvalue(), code)).encode())
        n += 1
    return n, sha.hexdigest()


def main() -> int:
    n, hexdigest = digest(workload_jobs())
    print(f"{n} jobs")
    print(hexdigest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
