import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import THEOREM1_CASES

from spinchar import cli, gtpatterns, padic, tableaux, whittaker
from spinchar.laurent import LaurentPoly
from spinchar.rootdata import deformed_denominator, lambda_to_evee, rho, weyl_numerator

PY = [sys.executable, "-m", "spinchar"]


def run(*args):
    return subprocess.run(
        PY + list(args), capture_output=True, text=True, timeout=300
    )


def test_verify_theorem1_pass():
    out = run("verify", "theorem1", "--rank", "2", "--lambda", "3,2")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["verdict"] == "pass"
    assert report["claim"] == "theorem1"
    assert report["runtime_ms"] is None


def test_verify_usage_error():
    assert run("verify", "theorem1", "--rank", "0", "--lambda", "1").returncode == 2
    assert run("verify", "theorem1").returncode == 2
    assert run("verify", "nonsense", "--lambda", "1").returncode == 2


def test_verify_budget_error():
    out = run(
        "verify", "prop4", "--rank", "2", "--mu", "3,3", "--p", "5",
        "--dmax", "3", "--budget", "10",
    )
    # tiny budget skips everything loudly but is not an error by itself
    report = json.loads(out.stdout)
    assert report["counts"]["skip"] > 0
    assert report["counts"]["agree"] + report["counts"]["hypothesis_ok"] >= 0


def test_verify_prop4_small():
    out = run(
        "verify", "prop4", "--rank", "2", "--mu", "2,2", "--p", "3",
        "--dmax", "2",
    )
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["verdict"] == "pass"
    assert report["counts"]["fail"] == 0


def test_verify_reports_are_byte_stable():
    a = run("verify", "prop5", "--mu", "2,1")
    b = run("verify", "prop5", "--mu", "2,1")
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_verify_prop5_values_at_q():
    report = json.loads(run("verify", "prop5", "--mu", "2,1", "--q", "4").stdout)
    assert report["params"]["q"] == 4
    assert len(report["counts"]["values_at_q"]) == report["counts"]["checked"]
    assert all(lhs == rhs for _, lhs, rhs in report["counts"]["values_at_q"])


def test_enumerate_limit():
    out = run("enumerate", "gt", "--mu", "2,2", "--limit", "1")
    assert out.returncode == 0
    assert len(out.stdout.splitlines()) == 1


def test_verify_lemma10():
    out = run("verify", "lemma10-equiv", "--mu", "2,2")
    assert out.returncode == 0
    assert json.loads(out.stdout)["verdict"] == "pass"


def test_verify_lemma3_and_prop6():
    assert run("verify", "lemma3", "--mu", "2,2").returncode == 0
    out = run("verify", "prop6", "--mu", "1,1", "--k", "2,2", "--p", "3")
    assert out.returncode == 0


def test_coeff_worked_example():
    out = run("coeff", "--rank", "2", "--lambda", "3,2", "--fix", "z2=11/2")
    assert out.returncode == 0
    got = LaurentPoly.parse(out.stdout.strip(), 2)
    expected = LaurentPoly.parse(
        "1 * z1^{3/2} t^{3} + 1 * z1^{1/2} t^{3} + 1 * z1^{1/2} t^{2} + "
        "1 * z1^{-1/2} t^{3} + 1 * z1^{-1/2} t^{2} + 1 * z1^{-3/2} t^{2}",
        2,
    )
    assert got == expected


def test_coeff_t0_and_impossible():
    # --fix t=0 keeps the t^0 part of the product; coeff reads no --t0
    out = run("coeff", "--rank", "1", "--lambda", "2", "--fix", "z1=99", "--fix", "t=0")
    assert out.returncode == 0
    assert out.stdout.strip() == "0"
    out = run("coeff", "--rank", "2", "--lambda", "1,1", "--fix", "t=0")
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == (
        "7606ba2eb855e8986cb04caa3f8409aa7fd30ff8b80ebbfaabff37d3fe9b4b54"
    )
    assert run("coeff", "--rank", "2", "--lambda", "1,1", "--t0").returncode == 2


def test_theorem1_reports_the_difference_of_spoiled_sides(monkeypatch):
    # tokuyama_rhs one term off: exit 1, and the difference is lhs - rhs
    lam, r = (1, 0), 2
    real = gtpatterns.tokuyama_rhs
    stray = LaurentPoly.monomial(r, [1, 0], texp=2)
    monkeypatch.setattr(gtpatterns, "tokuyama_rhs", lambda *a: real(*a) + stray)
    lhs = deformed_denominator(r) * weyl_numerator(lambda_to_evee((2, 1)), r)
    rhs = (real(lam, r) + stray) * weyl_numerator(rho(r), r)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "theorem1", "--rank", "2", "--lambda", "1,0"])
    report = json.loads(out.getvalue())
    assert code == 1 and report["verdict"] == "fail"
    assert report["mismatches"] == [{"difference": str(lhs - rhs)}]
    assert (report["lhs"], report["rhs"]) == (str(lhs), str(rhs))


@pytest.mark.parametrize(
    "argv, owner, name, spoil, keys",
    [
        (["corollary2", "--rank", "2", "--lambda", "1,0"], tableaux, "corollary_rhs",
         lambda value, lam, r: value + LaurentPoly.one(r), {"difference"}),
        (["gh", "--lambda", "1,2"], whittaker, "h_flat",
         lambda value, k, lam: value if any(k) else value + LaurentPoly.one(0),
         {"k", "coefficient", "h_flat"}),
        (["prop3", "--lambda", "1,2"], whittaker, "h_flat",
         lambda value, k, lam: value if any(k) else value + LaurentPoly.one(0),
         {"k", "coefficient", "h_flat"}),
        (["prop4", "--mu", "2,2", "--dmax", "1"], padic, "closed_form_G",
         lambda value, t: None if value is None else value + LaurentPoly.one(0),
         {"d", "p", "oracle", "closed_form"}),
        (["prop4", "--mu", "2,2", "--dmax", "1"], padic, "closed_form_G",
         lambda value, t: None, {"d", "p", "oracle", "error"}),
        (["prop5", "--mu", "2,2"], padic, "prop5_sides",
         lambda value, mu, kr: (value[0], value[1] + LaurentPoly.one(0)),
         {"k_r", "lhs", "rhs"}),
        (["prop6", "--mu", "1,1", "--kmax", "1"], padic, "prop6_check",
         lambda value, *args: dataclasses.replace(value, rhs=value.rhs + 1, verdict=False),
         {"k", "lhs", "rhs"}),
        (["lemma3", "--mu", "2,1"], padic, "lemma3_closed",
         lambda value, s, mu: value + LaurentPoly.one(0), {"s", "direct", "closed"}),
        (["lemma10-equiv", "--mu", "2,2"], gtpatterns, "gt_circle_by_cstat",
         lambda value, p: not value, {"rows", "cstat", "rows_parity"}),
    ],
    ids=["corollary2", "gh", "prop3", "prop4-closed-form", "prop4-no-closed-form",
         "prop5", "prop6", "lemma3", "lemma10-equiv"],
)
def test_each_claim_reports_a_spoiled_side(monkeypatch, argv, owner, name, spoil, keys):
    # one library function spoiled: the claim exits 1 with verdict fail, and
    # its first mismatch carries the keys of that claim's failure branch
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **kw: spoil(real(*a, **kw), *a))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", *argv])
    report = json.loads(out.getvalue())
    assert code == 1 and report["verdict"] == "fail"
    assert set(report["mismatches"][0]) == keys


def test_enumerate_gt_counts_match_tableaux():
    gt = run("enumerate", "gt", "--mu", "2,2")
    tb = run("enumerate", "tableaux", "--mu", "2,2")
    assert gt.returncode == 0 and tb.returncode == 0
    assert len(gt.stdout.splitlines()) == len(tb.stdout.splitlines())


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("gt", "a8393f2d8b913e5cb7c78a92e250e8bb6624820f6a7c0b895004eaa8a56b8e82"),
        ("tableaux", "2a5e5d21a1e3beb90f5fd4e85c8c0f79ab7feabfbf6a41638e6020c43f8946c6"),
    ],
)
def test_enumerate_streams_are_byte_stable(kind, digest):
    # the dump contract: 3,640 records whose bytes no refactor may change
    out = run("enumerate", kind, "--mu", "2,2,1")
    assert out.returncode == 0
    assert out.stdout.count("\n") == 3640
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, lines, digest",
    [
        (("enumerate", "cq", "--muprime", "4,2,2"), 510,
         "78ffe818ac2b06a74b7b15cbb2fa1d22f5510fea7a44743c0427ed9fcd82461b"),
        (("enumerate", "cq", "--muprime", "4,3", "--format", "csv"), 91,
         "d6860b419f8305dcdfaf36288ab4488edf9f1f6489afc4d5cc699dffc946fa31"),
        (("verify", "lemma3", "--mu", "2,2,1"), 1,
         "8923e6f25439785ec829f77bb007be35f3d40f2aeac37f87d07d988b9fd13a78"),
        (("verify", "prop5", "--mu", "2,1,1"), 1,
         "79b83835604a9211ab035f8e977c679998e97c24dc03e6c7bc9b52af967d66bb"),
    ],
    ids=["cq-4,2,2", "cq-4,3-csv", "lemma3-2,2,1", "prop5-2,1,1"],
)
def test_padic_outputs_are_byte_stable(argv, lines, digest):
    # the decorated arrays and resonant sums read the cap tables of padic;
    # their streams and reports are pinned byte for byte
    out = run(*argv)
    assert out.returncode == 0
    assert out.stdout.count("\n") == lines
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "lam, digest",
    [
        ("0,0,0,2", "6d80bcca25b8efd6e55149d9e62926632b1ad9d08f89cc01325392600841b116"),
        ("1,0,0,0", "b8da6bc2b4ab55ecf67f005f6149e195b57fe5ec46b2ec3ab6837798b08042e9"),
    ],
)
def test_rank4_coeff_outputs_are_byte_stable(lam, digest):
    # D(z; t) chi_lambda at rank 4: the large packed product and the exact
    # division behind chi, printed in full and pinned byte for byte
    out = run("coeff", "--rank", "4", "--lambda", lam)
    assert out.returncode == 0
    assert out.stdout.count("\n") == 1
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


def _pattern_record(p):
    """The gt record built as a dict and dumped: the oracle of GTPattern.to_json."""
    classes, cstats = {}, {}
    for i, s in enumerate(p.slices, 1):
        for (kind, j), (cls, c) in s.entries.items():
            name = f"{kind}{i},{j + i - 1}"
            classes[name] = cls
            cstats[name] = c
    record = {
        "rank": p.rank,
        "rows": [list(row) for row in p.rows()],
        "stats": list(p.stats()),
        "classes": classes,
        "cstats": cstats,
        "wt": list(p.wt()),
        "in_circle": gtpatterns.in_gt_circle(p),
    }
    return json.dumps(record, sort_keys=True)


def _tableau_record(s):
    """The tableaux record built as a dict and dumped: the oracle of tableau_json."""
    strips = tableaux.symbol_strips(s)
    stats = tableaux._statistics(strips)
    record = {
        "rank": s.rank,
        "rows": [[tableaux.symbol_name(c) for c in row] for row in s.rows],
        "shape": list(s.shape),
        "str": stats.str_total,
        "x": list(stats.x),
        "xbar": list(stats.xbar),
        "wt": list(stats.wt),
        "hgtbar": stats.hgtbar,
        "l": list(stats.l_values) if stats.l_values is not None else None,
        "in_circle": all(strip.in_circle for strip in strips),
    }
    return json.dumps(record, sort_keys=True)


_RECORD_CALLS = [
    (mu, extra) for extra in ((), ("--circle-only",))
    for mu in ("0", "1", "2,1,0", "2,2,1", "1,1,1,1")
] + [(",".join("1" * 10), ("--limit", "50"))]


@pytest.mark.parametrize("kind", ["gt", "tableaux"])
@pytest.mark.parametrize(
    "mu, extra", _RECORD_CALLS, ids=[" ".join((mu, *extra)) for mu, extra in _RECORD_CALLS]
)
def test_record_writers_match_the_dict_oracle(kind, mu, extra):
    # every record the CLI writes is byte for byte the dumped dict record,
    # at rank 10 too, where names sort as strings ("a10,10" before "a2,2");
    # the oracle's tableaux carry no count rows
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["enumerate", kind, "--mu", mu, *extra]) == 0
    expected = []
    for p in gtpatterns.enumerate_strict(tuple(map(int, mu.split(",")))):
        if kind == "tableaux":
            s = tableaux.Tableau(p.rank, tableaux.from_gt(p).rows)
            if "--circle-only" not in extra or tableaux.in_st_circle(s):
                expected.append(_tableau_record(s))
        elif "--circle-only" not in extra or gtpatterns.in_gt_circle(p):
            expected.append(_pattern_record(p))
        if len(expected) == 50 and "--limit" in extra:
            break
    assert out.getvalue().splitlines() == expected


def test_enumerate_zero_mu():
    out = run("enumerate", "gt", "--mu", "0")
    assert out.returncode == 0
    assert len(out.stdout.splitlines()) == 1


def test_enumerate_circle_only_and_determinism():
    a = run("enumerate", "gt", "--mu", "8,3", "--circle-only")
    b = run("enumerate", "gt", "--mu", "8,3", "--circle-only")
    assert a.stdout == b.stdout
    rows = [json.loads(line) for line in a.stdout.splitlines()]
    assert all(r["in_circle"] for r in rows)


def test_enumerate_cq_csv():
    out = run("enumerate", "cq", "--muprime", "2,1", "--format", "csv")
    assert out.returncode == 0
    header = out.stdout.splitlines()[0]
    assert header.startswith("d1,d2,d3")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "prop4", "--mu", "2,2", "--p", "4", "--dmax", "1"),
        ("verify", "prop4", "--mu", "2,2", "--p", "1", "--dmax", "1"),
        ("verify", "prop3", "--lambda", "1,-1"),
        ("verify", "gh", "--lambda", "1,-1"),
        ("coeff", "--lambda", "1,1", "--fix", "z1=1/3"),
        ("enumerate", "gt"),
        ("enumerate", "omega", "--mu", "2,2", "--k-scalar", "3"),
        ("verify", "prop6", "--mu", "2,2", "--k", "1,2,3"),
        ("verify", "prop6", "--mu", "2,2", "--k", "1"),
        ("verify", "prop6", "--mu", "1,1", "--kmax", "-1"),
        ("enumerate", "omega", "--mu", "2,2", "--index", "5"),
        ("enumerate", "omega", "--mu", "2,2", "--index", "0"),
        ("verify", "prop4", "--mu", "2,2", "--dmax", "-1"),
        ("verify", "prop5", "--mu", "2,2", "--kmax", "-1"),
        ("verify", "prop4", "--mu", "2,2", "--dmax", "1", "--budget", "-1"),
        ("verify", "prop4", "--mu", "2,2", "--dmax", "1", "--budget", "0"),
        ("verify", "nonsense"),
        ("verify", "prop6", "--mu", "2,2", "--k", "-1,0"),
        ("verify", "prop4", "--mu", "2"),
        ("verify", "prop5", "--mu", "2,0"),
        ("verify", "lemma3", "--mu", "0,1"),
        ("verify", "lemma10-equiv", "--mu", "2,-1"),
        ("verify", "prop5", "--rank", "3", "--mu", "2,2"),
        ("coeff", "--lambda", "1", "--fix", "z1=1/0"),
        ("coeff", "--lambda", "1,1", "--fix", "w=1"),
        ("coeff", "--lambda", "1", "--fix", "z1=1", "--fix", "z1=0"),
        ("enumerate", "gt", "--mu", "2,2", "--limit", "0"),
        ("enumerate", "tableaux", "--mu", "2,2", "--limit", "-1"),
        ("enumerate", "gt", "--mu", "2,-1"),
        ("enumerate", "tableaux", "--mu", "2,-1"),
        ("enumerate", "omega", "--mu", "2,-1"),
        ("enumerate", "cq", "--muprime", "2,-1"),
        ("verify", "prop5", "--mu", "2,2", "--q", "0"),
        ("verify", "lemma10-equiv", "--mu", "0,2"),
        ("enumerate", "gt", "--mu", "0,2"),
        ("enumerate", "tableaux", "--mu", "1,0,1"),
        ("verify", "prop4", "--mu", "2,2", "--p", "2305843009213693951", "--dmax", "0"),
        ("verify", "prop6", "--mu", "2,2", "--k=", "--kmax", "0"),
        # a flag the claim or kind does not read
        ("verify", "theorem1", "--lambda", "1", "--p", "4"),
        ("verify", "corollary2", "--lambda", "1,1", "--dmax", "-1"),
        ("verify", "prop4", "--mu", "2,2", "--dmax", "1", "--kmax", "0"),
        ("enumerate", "gt", "--mu", "2,2", "--format", "csv"),
        ("enumerate", "cq", "--muprime", "2,1", "--limit", "1"),
        ("enumerate", "omega", "--mu", "2,2", "--circle-only"),
        # a flag the others given would leave unread
        ("verify", "prop6", "--mu", "1,1", "--k", "1,1", "--kmax", "0"),
        ("enumerate", "omega", "--mu", "1,1", "--weighting", "A"),
        # an integer too large for the library
        ("enumerate", "cq", "--muprime", "99999999999999999999"),
        ("enumerate", "tableaux", "--mu", "99999999999999999999"),
        ("verify", "lemma3", "--mu", "99999999999999999999,1"),
        # "--" as a value, which argparse reads as no value at all
        ("verify", "theorem1", "--lambda=--"),
        ("verify", "prop4", "--mu", "2,2", "--p=--"),
        ("enumerate", "cq", "--muprime", "1", "--format=--"),
    ],
    ids=" ".join,
)
def test_malformed_calls_are_usage_errors(argv):
    out = run(*argv)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert len(out.stderr.strip().splitlines()) == 1
    assert out.stdout == ""
    if "--k-scalar" in argv:  # the missing flag is the one named
        assert "--weighting" in out.stderr
    if argv.count("--fix") > 1:  # so is the variable fixed twice
        assert "z1" in out.stderr


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, sink):
        self.sink = sink

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write

    def fileno(self):
        return self.sink.fileno()


@pytest.mark.parametrize(
    "argv, code",
    [
        (("enumerate", "gt", "--mu", "2,2"), 0),
        (("coeff", "--rank", "1", "--lambda", "2"), 0),
        (("verify", "prop5", "--mu", "2,1"), 0),
        (("verify", "lemma3", "--mu", "2,2"), 1),  # made to fail below
    ],
    ids=("enumerate", "coeff", "verify-pass", "verify-fail"),
)
def test_closed_stdout_keeps_the_exit_code(argv, code, monkeypatch, tmp_path, capsys):
    from spinchar import cli
    from spinchar.reports import Report

    def failing(args):
        return Report("lemma3", {}, mismatches=[{"error": "made to fail"}])

    monkeypatch.setitem(cli._VERIFIERS, "lemma3", (failing, ("rank", "mu")))
    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink))
        assert cli.main(list(argv)) == code
    assert capsys.readouterr().err == ""


def test_reader_closing_the_pipe_early_is_not_a_failure():
    proc = subprocess.Popen(
        PY + ["enumerate", "gt", "--mu", "2,2,2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    first = json.loads(proc.stdout.readline())
    proc.stdout.close()  # the rest of the stream, megabytes, has no reader
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 0
    assert err == ""
    assert "in_circle" in first


def test_verify_all_jobs_parse_and_cover_the_acceptance_grid():
    # scripts/verify_all.py is a script, so it is loaded by path; a mistyped
    # flag or a grid that drifts from THEOREM1_CASES shows here, not after a
    # long battery run.
    path = Path(__file__).resolve().parents[1] / "scripts" / "verify_all.py"
    spec = importlib.util.spec_from_file_location("verify_all", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    jobs = [(claim, tuple(argv)) for claim, argv in script.JOBS]
    assert len(set(jobs)) == len(jobs), "a job is listed twice"
    parser = cli.build_parser()
    grid = {"theorem1": set(), "corollary2": set()}
    for claim, argv in script.JOBS:
        args = parser.parse_args(["verify", claim, *argv])
        if claim in grid:
            grid[claim].add((cli._parse_ints(args.lam), args.rank))
    for claim, cases in grid.items():
        assert {(tuple(lam), r) for lam, r in THEOREM1_CASES} <= cases, claim


def test_verify_all_reads_each_jobs_own_peak_rss():
    # a child's ru_maxrss never reads below its parent's high-water mark, so
    # the driver must not hold a report.  The driver's job path runs in a
    # fresh interpreter (in process, pytest's own peak would be the floor):
    # a job printing a 60 MB report, then one that does nothing.
    path = Path(__file__).resolve().parents[1] / "scripts" / "verify_all.py"
    big = ("import sys; sys.stdout.write("
           "'{\"text\": \"' + 'x' * 60_000_000 + '\", \"verdict\": \"pass\"}')")
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('verify_all', {str(path)!r})\n"
        "script = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(script)\n"
        f"result, _, _, big_rss = script.run([sys.executable, '-c', {big!r}])\n"
        "_, _, _, rss = script.run([sys.executable, '-c', 'pass'])\n"
        "print(result, big_rss, rss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result, big_rss, rss = proc.stdout.split()
    assert result == "pass" and float(big_rss) > 60
    assert float(rss) < 40


def test_benchmark_tracer_finds_every_traced_function():
    # perfbench/tracing.py wraps each (module, attribute path) of LAYERS; a
    # renamed or deleted function would otherwise break only a traced
    # benchmark run.  The tracer is loaded by path and only read.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for name, (module, attrs, *_) in tracing.LAYERS.items():
        owner = importlib.import_module(f"spinchar.{module}")
        for attr in attrs.split("."):
            assert hasattr(owner, attr), name
            owner = getattr(owner, attr)
        assert callable(owner), name
    for module in tracing.MODULES:
        importlib.import_module(f"spinchar.{module}")


def test_readme_cli_examples_parse():
    # every command line of the README's CLI block parses against the flag
    # table, so the docs cannot name a flag a command does not read
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    calls = [line.split()[1:] for line in block.splitlines()
             if line.startswith("spinchar ")]
    assert len(calls) >= 9
    parser = cli.build_parser()
    for argv in calls:
        parser.parse_args(argv)


def test_readme_flag_table_matches_the_cli_tables():
    # each row of the README's `| command | flags |` table names commands and
    # the backticked flags they take; together the rows must list exactly the
    # flags of every verify claim (with --timing), enumeration kind and coeff
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| command | flags |", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for line in table.splitlines():
        if not line.startswith("| ") or line.startswith("| ---"):
            continue
        _, commands, flags, _ = line.split("|")
        if commands.strip() == "every `verify` claim":
            keys = [("verify", claim) for claim in cli._VERIFIERS]
        else:
            first, *rest = re.findall(r"`([^`]+)`", commands)
            command, *names = first.split()
            keys = [(command, name) for name in names + rest] or [(command, None)]
        for key in keys:
            documented.setdefault(key, set()).update(
                flag.split()[0][2:] for flag in re.findall(r"`(--[^`]+)`", flags))
    expected = {("verify", claim): {*flags, "timing"}
                for claim, (_, flags) in cli._VERIFIERS.items()}
    expected.update({("enumerate", kind): set(flags)
                     for kind, (_, flags) in cli._ENUMERATORS.items()})
    expected[("coeff", None)] = {"rank", "lambda", "fix"}
    assert documented == expected


# -- the CLI contract, swept over calls drawn from the command tables ---------

_MALFORMED = st.sampled_from(["", " ", "x", "1.5", "1e3", "--", "0x3", "nan", "1,,2", ",", "a,b"])
_LISTS = ("lambda", "mu", "muprime", "k")
# Flags whose size sets the work: well-formed values stay at most this.
_BOUNDS = {"dmax": 2, "kmax": 3, "budget": 10**4}
_EXPONENTS = ("1", "-1", "1/2", "-3/2", "0", "1e400", "nan", "1/0", "x", "")


def _flag_value(flag):
    """The text of one flag's value: well formed, or empty, negative,
    malformed or huge.  Lists have ranks and entries at most 3 and sums at
    most 5, and no huge value raises the work a call does."""
    spec = cli._FLAG_SPECS[flag]
    if "choices" in spec:
        return st.one_of(st.sampled_from(spec["choices"]), _MALFORMED)
    if flag == "fix":
        names = st.sampled_from(["z1", "z2", "z4", "t", "q", "w", ""])
        fixes = st.builds("{}={}".format, names, st.sampled_from(_EXPONENTS))
        return st.one_of(fixes, _MALFORMED)
    if flag in _LISTS:
        lists = st.lists(st.integers(-1, 3), max_size=3).filter(lambda xs: sum(xs) <= 5)
        return st.one_of(lists.map(lambda xs: ",".join(map(str, xs))), _MALFORMED)
    bound = _BOUNDS.get(flag, 3)
    huge = [-(10**25)] if flag in _BOUNDS else [-(10**25), 10**25, 2**63]
    ints = st.one_of(st.integers(-3, bound), st.sampled_from(huge))
    return st.one_of(ints.map(str), _MALFORMED)


def _commands():
    """(argv prefix, flags) of every claim, enumeration kind and coeff."""
    for command, table, extra in (
        ("verify", cli._VERIFIERS, ("timing",)), ("enumerate", cli._ENUMERATORS, ()),
    ):
        for name, (_, flags) in table.items():
            yield [command, name], flags + extra
    yield ["coeff"], ("rank", "lambda", "fix")


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_every_drawn_call_keeps_the_cli_contract(data):
    # Each flag of the call is left out, given once or given twice, and now
    # and then a flag the call does not read is added.
    prefix, flags = data.draw(st.sampled_from(list(_commands())))
    foreign = [flag for flag in cli._FLAG_SPECS if flag not in flags]
    chosen = [flag for flag in flags for _ in range(data.draw(st.sampled_from((0, 1, 1, 2))))]
    chosen += data.draw(st.lists(st.sampled_from(foreign), max_size=1))
    argv = list(prefix)
    for flag in data.draw(st.permutations(chosen)):
        if cli._FLAG_SPECS[flag].get("action") == "store_true":
            argv.append(f"--{flag}")
        elif data.draw(st.booleans()):
            argv.append(f"--{flag}={data.draw(_flag_value(flag))}")
        else:
            argv += [f"--{flag}", data.draw(_flag_value(flag))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing the call
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
    elif prefix[0] == "verify":
        assert json.loads(out.getvalue())["verdict"] == ("pass", "fail")[code], argv
