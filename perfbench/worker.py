"""One benchmark run inside a fresh interpreter.

Started by ``run.py``; prints one JSON line.  The process imports the
program, builds the jobs of its workload, runs whole rounds of them through
``spinchar.cli.main`` until ``--seconds`` would be exceeded, then checks the
outputs.  Every lru cache of the program is emptied after each job, so each
job starts as a fresh ``spinchar`` command does.  With ``--trace 0`` a
``speed.SpeedProbe`` runs alongside the jobs, and job times are CPU times
scaled to reference speed.  With ``--trace 1`` untraced and traced rounds
alternate, starting with an untraced one, and times are plain CPU times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter, process_time, thread_time

import checks
import tracing
from speed import SpeedProbe
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))


def find_caches() -> dict:
    """Every functools cache at module level in the program, by name."""
    caches = {}
    for name in tracing.MODULES:
        module = importlib.import_module(f"spinchar.{name}")
        for attr, val in vars(module).items():
            if hasattr(val, "cache_info") and hasattr(val, "cache_clear"):
                if getattr(val, "__module__", None) == module.__name__:
                    caches[f"{name}.{attr}"] = val
    return caches


class Runner:
    """Runs jobs through ``cli.main`` as a shell user would run the command
    with stdout redirected to a file: one file per job, rewritten each round."""

    def __init__(self, cli, jobs, caches, out_dir):
        self.cli = cli
        self.jobs = jobs
        self.caches = caches
        self.out_dir = out_dir
        self.cache_stats = {}  # name -> [hits, misses] since the last reset
        self.tracer = None
        self.probe = SpeedProbe()  # armed, or not, by measure()
        self.next_id = 0

    def drain_caches(self) -> None:
        for name, cache in self.caches.items():
            info = cache.cache_info()
            acc = self.cache_stats.setdefault(name, [0, 0])
            acc[0] += info.hits
            acc[1] += info.misses
            cache.cache_clear()

    def path(self, index: int) -> str:
        return os.path.join(self.out_dir, f"job{index}.out")

    def run_job(self, index: int, job):
        """(CPU seconds, speed samples taken meanwhile, exit code, stderr,
        sha1 of stdout).  The probe's own CPU time is left out."""
        err = io.StringIO()
        tracer = self.tracer
        if tracer is not None:
            tracer.job = self.next_id
        self.next_id += 1
        probe = self.probe
        first, spent = len(probe.samples), probe.spent
        begin = thread_time()
        with open(self.path(index), "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = tracer.open(0) if tracer is not None else None
            try:
                rc = self.cli.main(list(job.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                rc = 1
            if span is not None:
                tracer.close(span)
        elapsed = thread_time() - begin - (probe.spent - spent)
        taken = probe.samples[first:]
        self.drain_caches()
        with open(self.path(index), "rb") as fh:
            digest = hashlib.sha1(fh.read()).digest()
        return elapsed, taken, rc, err.getvalue(), digest

    def run_round(self):
        """Per job: CPU seconds, speed samples, (exit code, stderr, digest)."""
        times, samples, results = [], [], []
        for index, job in enumerate(self.jobs):
            elapsed, taken, *result = self.run_job(index, job)
            times.append(elapsed)
            samples.append(taken)
            results.append(tuple(result))
        return times, samples, results

    def output(self, index: int) -> str:
        with open(self.path(index), encoding="utf-8") as fh:
            return fh.read()


def meets_expectation(job, rc, out, err) -> bool:
    if job.expect == "usage":
        lines = err.strip().splitlines()
        return rc == 2 and len(lines) == 1 and "Traceback" not in err
    if rc != 0 or err:
        return False
    if job.expect == "pass":
        try:
            return json.loads(out)["verdict"] == "pass"
        except (json.JSONDecodeError, KeyError, TypeError):
            return False
    return bool(out)


def decided(job, out: str) -> int:
    """Instances given a verdict: a prop4 sweep counts its decided oracle
    instances, every other job counts one."""
    if job.argv[:2] == ("verify", "prop4"):
        counts = json.loads(out)["counts"]
        return counts["agree"] + counts["hypothesis_ok"]
    return 1


def check_outputs(workload, jobs, outputs, ok, seed, plan) -> list:
    """Independent checks of the outputs of the jobs that did not fail."""
    from spinchar import padic, whittaker

    problems = []
    by_args = {
        job.argv: outputs[i]
        for i, job in enumerate(jobs) if ok[i] and job.expect != "usage"
    }
    if workload == "identity":
        for argv, out in by_args.items():
            report = json.loads(out)
            if argv[1] == "theorem1":
                problems += checks.check_theorem1(report, plan["point"])
            else:
                problems += checks.check_corollary2(report)
    elif workload == "oracle":
        agree = sum(json.loads(out)["counts"]["agree"] for out in by_args.values())
        if agree < 500:
            problems.append(f"only {agree} oracle agreements")
        rng = random.Random(seed + 1)
        samples = checks.draw_u_shift_samples(padic, rng, workloads.oracle_mus())
        problems += checks.check_u_shift(padic, samples)
    elif workload == "coefficients":
        lam, fix = workloads.WORKED_COEFF
        worked = ("coeff", "--rank", "2", "--lambda", lam, "--fix", fix)
        if worked in by_args:
            problems += checks.check_worked(by_args[worked])
        for lam in workloads.RANK4_WEIGHTS:
            argv = ("coeff", "--rank", "4", "--lambda", ",".join(map(str, lam)))
            if argv in by_args:
                problems += checks.check_product(by_args[argv], lam)
        problems += checks.check_h_sums(whittaker, workloads.prop3_weights(), plan["qs"])
    elif workload == "dump":
        top = ",".join(map(str, workloads.DUMP_TOP))
        gt = by_args.get(("enumerate", "gt", "--mu", top))
        tab = by_args.get(("enumerate", "tableaux", "--mu", top))
        if gt is not None and tab is not None:
            problems += checks.check_dump(gt, tab, workloads.DUMP_TOP)
    return problems


def measure(runner, args) -> dict:
    """Whole rounds until the next one would end after ``args.seconds``.

    A round's time is the sum of its jobs' CPU times: the calls into the
    program and the writing of their output, not the benchmark's own
    bookkeeping between jobs.  Untraced, each job's time is scaled to
    reference speed by the samples taken during it, or by those of the
    whole round if it ended before the first.  The run length itself is
    wall-clock time.
    """
    round_times, max_jobs, raw, first, stable = [], [], [], None, True
    layer_rounds, traced_rounds, untraced_rounds = [], [], []
    tracer = tracing.Tracer() if args.trace else None
    probe = runner.probe
    runner.drain_caches()
    if tracer is None:
        probe.start()
    begin = perf_counter()
    while True:
        # With tracing, rounds alternate untraced / traced, so that both
        # kinds see the same machine and their difference is the overhead.
        traced = tracer is not None and len(round_times) % 2 == 1
        if traced:
            tracer.install()
        runner.tracer = tracer if traced else None
        runner.cache_stats = {}
        ids = range(runner.next_id, runner.next_id + len(runner.jobs))
        times, samples, results = runner.run_round()
        if traced:
            tracer.uninstall()
        if tracer is None:
            raw.append(sum(times))
            whole = [s for taken in samples for s in taken]
            times = [t * SpeedProbe.factor(taken or whole)
                     for t, taken in zip(times, samples)]
        round_times.append(sum(times))
        max_jobs.append(max(times))
        if first is None:
            first = results
        # stderr is left out: a traceback names the tracing wrappers.
        stable = stable and [(r[0], r[2]) for r in results] == [(r[0], r[2]) for r in first]
        if traced:
            traced_rounds.append(round_times[-1])
            stats = {k: tuple(v) for k, v in runner.cache_stats.items()}
            layer_rounds.append(tracing.layer_metrics(tracer, ids, stats))
        else:
            untraced_rounds.append(round_times[-1])
        elapsed = perf_counter() - begin
        if tracer is not None and not traced_rounds:
            continue
        if elapsed + elapsed / len(round_times) > args.seconds:
            break
    probe.stop()
    out = {
        "rounds": len(round_times),
        "cpu_s": statistics.median(round_times),
        "max_job_cpu_s": statistics.median(max_jobs),
        "raw_cpu_s": statistics.median(raw) if raw else None,
        "probe_us": statistics.median(probe.samples) * 1e6 if probe.samples else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "first_round": first,
        "stable": stable,
    }
    if tracer is not None:
        layers = tracing.median_metrics(layer_rounds)
        layers["trace.overhead_s"] = (
            statistics.median(traced_rounds) - statistics.median(untraced_rounds)
        )
        out["layers"] = layers
        if args.trace_file:
            tracer.save(args.trace_file, [job.label for job in runner.jobs])
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    # -- set-up: what a fresh CLI process pays, plus input generation -------
    import numpy

    from spinchar import cli

    jobs = workloads.build(args.workload, args.seed)
    rng = random.Random(args.seed)
    plan = {"point": checks.draw_point(rng), "qs": checks.draw_qs(rng)}
    # CPU time of this process so far: interpreter start, imports, inputs.
    # Not scaled by the speed probe: set-up is short and partly file and
    # page-fault work, and scaling made it noisier.
    setup_s = process_time()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(HERE, "out"))
    try:
        runner = Runner(cli, jobs, find_caches(), out_dir)
        result = measure(runner, args)
        outputs = [runner.output(i) for i in range(len(jobs))]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    # -- after the clock: failures and independent checks ------------------
    first = result.pop("first_round")
    ok = [
        meets_expectation(job, rc, out, err)
        for job, (rc, err, _), out in zip(jobs, first, outputs)
    ]
    problems = [f"job failed: {job.label}"
                for job, good in zip(jobs, ok) if not good and job.expect != "usage"]
    if not result.pop("stable"):
        problems.append("outputs differ between rounds")
    problems += check_outputs(args.workload, jobs, outputs, ok, args.seed, plan)
    result.update({
        "correct": not problems,
        "problems": problems[:10],
        "attempted": result["rounds"] * len(jobs),
        "failed": result["rounds"] * ok.count(False),
        "jobs_per_round": len(jobs),
        "setup_s": setup_s,
        "instances_decided": sum(
            decided(job, out)
            for job, out, good in zip(jobs, outputs, ok) if good and job.expect != "usage"
        ),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
