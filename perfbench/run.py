#!/usr/bin/env python3
"""spinchar benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload identity --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --repeat 10 --seed 100

Run from the root of a source checkout.  Each run starts fresh single-
threaded interpreters (``TOKUYAMA_THREADS=1``): a few that only set up, to
time set-up, and one that runs whole rounds of the workload's CLI jobs for
about ``--seconds`` seconds and then checks every output.  Set-up times
are CPU times.  Job times are CPU times scaled to reference speed by
``speed.SpeedProbe``, which leaves out both the time a shared host takes
the CPU away and the slowdown of a core shared with other guests; the run
length is wall-clock time.  The last line
printed is a JSON object ``{correct, attempted, failed, metrics}``; with
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones, taken from a traced run.

``--repeat N`` runs each chosen workload N times with seeds seed, seed+1,
..., and prints the median and quartiles of every metric, and the spread
(q3 - q1) / median that the bounds in BENCHMARK.json are set against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SOURCE = os.path.join(ROOT, "src", "spinchar")
SETUP_PROBES = 6  # set-up-only processes per run, besides the measured one
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SOURCE)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(SOURCE, name), "rb") as fh:
                digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "TOKUYAMA_THREADS": "1",
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["TOKUYAMA_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list, deadline: float) -> dict:
    """Start a worker, wait for it, and return its JSON line."""
    cmd = [sys.executable, WORKER, *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not finish in time") from None
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_once(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(common + ["--setup-only"], deadline)["setup_s"])
    extra = ["--trace", str(trace)]
    if trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        extra += ["--trace-file", os.path.join(out_dir, f"trace-{workload}-seed{seed}.npz")]
    res = spawn(common + extra, deadline)
    setups.append(res["setup_s"])
    if trace:
        wanted, values = spec["per_layer"], res["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "cpu_s": res["cpu_s"],
            "max_job_cpu_s": res["max_job_cpu_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "instances_decided": res["instances_decided"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env = environment(seed) | {"python": res["python"], "numpy": res["numpy"],
                                "workload": workload, "rounds": res["rounds"],
                                "jobs_per_round": res["jobs_per_round"],
                                "raw_cpu_s": res["raw_cpu_s"], "probe_us": res["probe_us"]}
    return {
        "env": env,
        "problems": res["problems"],
        "result": {
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": metrics,
        },
    }


def print_run(run: dict) -> None:
    print("env " + json.dumps(run["env"], sort_keys=True))
    for problem in run["problems"]:
        print("problem: " + problem)
    res = run["result"]
    print(f"correct {res['correct']}  attempted {res['attempted']}  failed {res['failed']}")
    for name, m in res["metrics"].items():
        print(f"  {name:36s} {m['value']:>16.6f} {m['unit']}")


def summarize(runs: list) -> dict:
    """Median, quartiles and spread of every metric over repeated runs."""
    out = {}
    for name, first in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0}
    shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    out["failed_share"] = sorted(shares)
    out["all_correct"] = all(r["result"]["correct"] for r in runs)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SOURCE, "cli.py")):
        print(f"error: no spinchar source under {SOURCE}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in chosen):
        print(f"error: workload must be one of {names} or all", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    try:
        if args.repeat:
            summary = {}
            for w in chosen:
                runs = []
                for i in range(args.repeat):
                    run = run_once(spec, w, args.seed + i, seconds, args.trace)
                    runs.append(run)
                    res = run["result"]
                    print(f"{w} seed {args.seed + i}: correct {res['correct']} "
                          f"failed {res['failed']}/{res['attempted']} "
                          + " ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()),
                          flush=True)
                summary[w] = summarize(runs)
                for name, s in summary[w].items():
                    if isinstance(s, dict):
                        print(f"  {name:36s} median {s['median']:.6g} {s['unit']}  "
                              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
                print(f"  failed share {summary[w]['failed_share']}  "
                      f"all correct {summary[w]['all_correct']}", flush=True)
            print(json.dumps(summary))
            return 0
        results = {}
        for w in chosen:
            run = run_once(spec, w, args.seed, seconds, args.trace)
            print_run(run)
            results[w] = run["result"]
        print(json.dumps(results[chosen[0]] if len(chosen) == 1 else results))
        return 0
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
