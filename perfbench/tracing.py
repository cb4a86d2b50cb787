"""Spans around calls into the program, recorded from outside it.

``Tracer.install`` replaces each public function named in ``LAYERS`` by a
wrapper, in every ``spinchar`` module and class that holds it, and
``uninstall`` puts the originals back.  A span is (name, start, end, busy,
parent, job, value): ``busy`` is the time spent inside the call (for a
generator, inside its ``next`` calls only), ``parent`` the span open when
it began, ``job`` the benchmark job it belongs to, and ``value`` a size the
layer reports (items yielded, terms multiplied, bytes written, ...).
Self time is a span's busy time minus the busy time of its child spans.
Spans are kept in flat arrays and written out with ``save``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from array import array
from time import perf_counter

import numpy as np

MODULES = ("laurent", "rootdata", "gtpatterns", "tableaux", "padic",
           "whittaker", "reports", "cli")


def _pairs(args, result):
    a, b = args[0], args[1]
    return len(a) * (len(b) if hasattr(b, "terms") else 1)


def _length(args, result):
    return len(result)


def _truth(args, result):
    return 1 if result else 0


def _budget_skip(exc):
    return -1 if type(exc).__name__ == "BudgetExceededError" else 0


# span name -> (module, attribute path, value of a returned call, value of a
# raised call).  Generators are recognised and timed over their iteration.
LAYERS = {
    "gtpatterns.enumerate_strict": ("gtpatterns", "enumerate_strict", None, None),
    "gtpatterns.in_gt_circle": ("gtpatterns", "in_gt_circle", _truth, None),
    "gtpatterns.tokuyama_rhs": ("gtpatterns", "tokuyama_rhs", None, None),
    "gtpatterns.to_json": ("gtpatterns", "GTPattern.to_json", None, None),
    "tableaux.from_gt": ("tableaux", "from_gt", None, None),
    "tableaux.in_st_circle": ("tableaux", "in_st_circle", _truth, None),
    "tableaux.tableau_term": ("tableaux", "tableau_term", None, None),
    "tableaux.corollary_rhs": ("tableaux", "corollary_rhs", None, None),
    "tableaux.tableau_json": ("tableaux", "tableau_json", None, None),
    "laurent.mul": ("laurent", "LaurentPoly.__mul__", _pairs, None),
    "laurent.div_exact": ("laurent", "LaurentPoly.div_exact", None, None),
    "laurent.coefficient_of": ("laurent", "LaurentPoly.coefficient_of", None, None),
    "laurent.substitute": ("laurent", "LaurentPoly.substitute", None, None),
    "laurent.evaluate": ("laurent", "LaurentPoly.evaluate", None, None),
    "laurent.str": ("laurent", "LaurentPoly.__str__", _length, None),
    "rootdata.deformed_denominator": ("rootdata", "deformed_denominator", None, None),
    "rootdata.weyl_numerator": ("rootdata", "weyl_numerator", None, None),
    "rootdata.character": ("rootdata", "character", None, None),
    "padic.brute_force_G": ("padic", "brute_force_G", None, _budget_skip),
    "padic.closed_form_G": ("padic", "closed_form_G", None, None),
    "padic.cqc_layer_sums": ("padic", "cqc_layer_sums", None, None),
    "padic.prop5_sides": ("padic", "prop5_sides", None, None),
    "padic.prop6_check": ("padic", "prop6_check", None, None),
    "whittaker.h_coeff": ("whittaker", "h_coeff", None, None),
    "whittaker.h_support": ("whittaker", "h_support", None, None),
    "whittaker.gh_check": ("whittaker", "gh_check", None, None),
    "whittaker.prop3_check": ("whittaker", "prop3_check", None, None),
    "reports.to_json": ("reports", "Report.to_json", _length, None),
}
CLI_MAIN = "cli.main"  # opened by the benchmark around each job


class Tracer:
    def __init__(self):
        self.names = [CLI_MAIN] + list(LAYERS)
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.parent = array("q")
        self.job_of = array("q")
        self.value = array("q")
        self.stack = []
        self.job = -1
        self._patched = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.busy.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job_of.append(self.job)
        self.value.append(0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int, value: int = 0) -> None:
        now = perf_counter()
        self.stack.pop()
        self.end[idx] = now
        self.busy[idx] = now - self.start[idx]
        self.value[idx] = value

    def _wrap_call(self, name_id, fn, on_return, on_raise):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, on_raise(exc) if on_raise else 0)
                raise
            tracer.close(idx, on_return(args, result) if on_return else 0)
            return result

        return traced

    def _wrap_generator(self, name_id, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name_id)
            tracer.stack.pop()  # pushed again only while the generator runs
            inner = fn(*args, **kwargs)
            busy = 0.0
            count = 0
            try:
                while True:
                    tracer.stack.append(idx)
                    begin = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += perf_counter() - begin
                        tracer.stack.pop()
                    count += 1
                    yield item
            finally:
                inner.close()
                tracer.end[idx] = perf_counter()
                tracer.busy[idx] = busy
                tracer.value[idx] = count

        return traced

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"spinchar.{m}") for m in MODULES]
        for name, (mod, path, on_return, on_raise) in LAYERS.items():
            owner = importlib.import_module(f"spinchar.{mod}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(self.name_id[name], original)
            else:
                wrapper = self._wrap_call(self.name_id[name], original, on_return, on_raise)
            # Every module or class attribute bound to the original, so that
            # names imported with "from ... import" are traced as well.
            holders = modules + [owner] if outer else modules
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.array(self.name, dtype=np.uint16),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "busy": np.array(self.busy, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "job": np.array(self.job_of, dtype=np.int64),
            "value": np.array(self.value, dtype=np.int64),
        }

    def save(self, path, job_labels) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), jobs=np.array(job_labels),
            **self.arrays(),
        )


def layer_metrics(tracer: Tracer, jobs: range, cache_stats: dict) -> dict:
    """Per-layer figures of one round (the spans of the given job ids)."""
    a = tracer.arrays()
    child = a["parent"] >= 0
    covered = np.bincount(a["parent"][child], weights=a["busy"][child],
                          minlength=len(a["busy"]))
    sel = (a["job"] >= jobs.start) & (a["job"] < jobs.stop)
    names = a["name"][sel]
    own, value = (a["busy"] - covered)[sel], a["value"][sel]
    n = len(tracer.names)
    self_s = np.bincount(names, weights=own, minlength=n)
    calls = np.bincount(names, minlength=n)
    total = np.bincount(names, weights=value, minlength=n)
    neg = np.bincount(names[value < 0], minlength=n)
    ident = tracer.name_id

    out = {f"{name}_s": float(self_s[i]) for i, name in enumerate(tracer.names)}
    circle_calls = calls[ident["gtpatterns.in_gt_circle"]]
    circle_kept = total[ident["gtpatterns.in_gt_circle"]]
    bf = ident["padic.brute_force_G"]
    hits, misses = cache_stats.get("whittaker.h_coeff", (0, 0))
    out.update({
        "gtpatterns.patterns": int(total[ident["gtpatterns.enumerate_strict"]]),
        "gtpatterns.circle_patterns": int(circle_kept),
        "gtpatterns.circle_ratio": float(circle_kept / circle_calls) if circle_calls else 0.0,
        "laurent.mul_calls": int(calls[ident["laurent.mul"]]),
        "laurent.mul_terms": int(total[ident["laurent.mul"]]),
        "laurent.coefficient_of_calls": int(calls[ident["laurent.coefficient_of"]]),
        "laurent.str_bytes": int(total[ident["laurent.str"]]),
        "padic.brute_force_G_calls": int(calls[bf]),
        "padic.budget_skips": int(neg[bf]),
        "padic.oracle_ratio": float((calls[bf] - neg[bf]) / calls[bf]) if calls[bf] else 0.0,
        "whittaker.h_coeff_nodes": int(misses),
        "whittaker.h_coeff_hits": int(hits),
        "reports.bytes": int(total[ident["reports.to_json"]]),
        "trace.spans": int(sel.sum()),
    })
    return out


def median_metrics(rounds: list) -> dict:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
