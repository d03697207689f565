"""Wrappers around shadowipw's public functions, installed at the sites
where each calling module imports them.

Untraced, a wrapper only keeps the arguments and result of the calls the
checks need. Traced, every wrapper also records a span: name, start, end,
parent span, the benchmark operation that caused it, and counts read from
the returned object. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass


def _fit_info(fit):
    return {"iters": fit.iterations, "rows": fit.n_obs,
            "not_converged": not fit.converged, "separated": fit.separated}


def _solve_info(model):
    return {"iters": model.iterations, "fallback": model.used_fallback,
            "not_converged": not model.converged}


# what each span keeps from the returned object
INFO = {
    "glm.fit_glm": _fit_info,
    "shadow.solve_propensity": _solve_info,
    "search.find_adjustment_set": lambda o: {"status": o.status,
                                             "tests_run": o.tests_run},
    "simulate.generate": lambda ds: {"rows": ds.n_rows},
    "data.load_csv": lambda ds: {"rows": ds.n_rows},
    "estimate.ipw_ace": lambda est: {"clipped_fraction": est.clipped_fraction},
}


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float
    info: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Probe:
    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[Span] = []
        self.captured: list[tuple] = []   # (name, args, kwargs, result)
        self.op = -1
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    def install(self, sites, capture):
        """Wrap each (owner, attribute, name) site: all of them when
        tracing, else only those whose name is in ``capture``."""
        for owner, attr, name in sites:
            if self.trace or name in capture:
                self._patch(owner, attr, name, name in capture)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, name, keep):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, keep))
        self._patches.append((owner, attr, original))

    def wrap(self, fn, name, keep=False):
        if not self.trace:
            def capture(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.captured.append((name, args, kwargs, result))
                return result
            return capture

        info = INFO.get(name)

        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(
                    span_id, parent, self.op, name, start, end,
                    info(result) if info and result is not None else None))
                if keep:
                    self.captured.append((name, args, kwargs, result))
        return traced

    def overhead_per_span(self, calls=20000) -> float:
        """Seconds a traced wrapper adds to one call, measured on a no-op
        and with its spans discarded afterwards."""
        def noop():
            return None
        wrapped, kept = self.wrap(noop, "noop"), len(self.spans)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - start
        del self.spans[kept:]
        return max(0.0, traced - bare) / calls


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, ref_ops):
    """Per-layer totals over all spans, and ``ref.*`` counts over the
    spans of operations below ``ref_ops``, which repeat exactly for a
    seed."""
    by_id = {s.id: s for s in spans}
    child_s = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.duration
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def calls(name):
        return len(named[name])

    def total(name):
        return sum(s.duration for s in named[name])

    def self_s(name):
        return sum(s.duration - child_s[s.id] for s in named[name])

    def info_sum(name, key):
        return sum(s.info[key] for s in named[name] if s.info)

    def in_search(s):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == "search.find_adjustment_set":
                return True
        return False

    # a call that raised has no info, and its operation counts as failed
    searches = [s for s in named["search.find_adjustment_set"] if s.info]
    search_fits = [s for s in named["glm.fit_glm"] if s.info and in_search(s)]
    n_search = len(searches)
    fits = [s for s in named["glm.fit_glm"] if s.info]
    load_s = total("data.load_csv")
    m = {
        "glm.fit_glm.calls": calls("glm.fit_glm"),
        "glm.fit_glm.s": total("glm.fit_glm"),
        "glm.fit_glm.irls_iters": info_sum("glm.fit_glm", "iters"),
        "glm.fit_glm.rows": info_sum("glm.fit_glm", "rows"),
        "glm.fit_glm.not_converged": info_sum("glm.fit_glm", "not_converged"),
        "glm.fit_glm.separated": info_sum("glm.fit_glm", "separated"),
        "glm.likelihood_ratio_test.calls": calls("glm.likelihood_ratio_test"),
    }
    for c in ("c1", "c2", "c3", "c4"):
        m[f"citest.{c}.calls"] = calls(f"citest.{c}")
        m[f"citest.{c}.s"] = total(f"citest.{c}")
    m.update({
        "search.find_adjustment_set.calls":
            calls("search.find_adjustment_set"),
        "search.find_adjustment_set.s": total("search.find_adjustment_set"),
        "search.find_adjustment_set.self_s":
            self_s("search.find_adjustment_set"),
        "search.find_adjustment_set.tests_run":
            info_sum("search.find_adjustment_set", "tests_run"),
        "search.fits_per_search":
            len(search_fits) / n_search if n_search else 0.0,
        "search.irls_iters_per_search":
            sum(s.info["iters"] for s in search_fits) / n_search
            if n_search else 0.0,
        "search.c2_memo_hits":
            calls("search.LrtTester.c2") - calls("citest.c2"),
        "search.found.s_p50": _median(
            [s.duration for s in searches if s.info["status"] == "found"]),
        "search.not_found.s_p50": _median(
            [s.duration for s in searches if s.info["status"] != "found"]),
        "data.load_csv.s": load_s,
        "data.load_csv.rows_per_s":
            info_sum("data.load_csv", "rows") / load_s if load_s else 0.0,
        "data.subset_observed.calls": calls("data.subset_observed"),
        "data.subset_observed.s": total("data.subset_observed"),
        "simulate.generate.calls": calls("simulate.generate"),
        "simulate.generate.s": total("simulate.generate"),
        "simulate.generate.rows": info_sum("simulate.generate", "rows"),
        "graphs.d_separated.calls": calls("graphs.d_separated"),
        "graphs.d_separated.s": total("graphs.d_separated"),
        "shadow.solve_propensity.calls": calls("shadow.solve_propensity"),
        "shadow.solve_propensity.s": total("shadow.solve_propensity"),
        "shadow.solve_propensity.newton_iters":
            info_sum("shadow.solve_propensity", "iters"),
        "shadow.solve_propensity.fallbacks":
            info_sum("shadow.solve_propensity", "fallback"),
        "shadow.solve_propensity.not_converged":
            info_sum("shadow.solve_propensity", "not_converged"),
        "estimate.fit_treatment_propensity.calls":
            calls("estimate.fit_treatment_propensity"),
        "estimate.fit_treatment_propensity.s":
            total("estimate.fit_treatment_propensity"),
        "estimate.ipw_ace.calls": calls("estimate.ipw_ace"),
        "estimate.ipw_ace.s": total("estimate.ipw_ace"),
        "estimate.baseline_ignore_missingness.s":
            total("estimate.baseline_ignore_missingness"),
        "estimate.baseline_wrong_adjustment.s":
            total("estimate.baseline_wrong_adjustment"),
        "estimate.clipped_fraction": statistics.fmean(
            [s.info["clipped_fraction"] for s in named["estimate.ipw_ace"]
             if s.info] or [0.0]),
        "experiments.run_search_experiment.self_s":
            self_s("experiments.run_search_experiment"),
        "experiments.run_estimation_experiment.self_s":
            self_s("experiments.run_estimation_experiment"),
        "cli.pipeline.s": total("cli.pipeline"),
        "cli.pipeline.self_s": self_s("cli.pipeline"),
    })

    ref_searches = [s for s in searches if s.op < ref_ops]
    ref_search_fits = [s for s in search_fits if s.op < ref_ops]
    ref_fits = [s for s in fits if s.op < ref_ops]
    ref_solves = [s for s in named["shadow.solve_propensity"]
                  if s.info and s.op < ref_ops]
    ref_c2 = sum(s.op < ref_ops for s in named["search.LrtTester.c2"])
    ref_c2_fitted = sum(s.op < ref_ops for s in named["citest.c2"])
    m.update({
        "ref.search.calls": len(ref_searches),
        "ref.search.tests_run": sum(s.info["tests_run"]
                                    for s in ref_searches),
        "ref.search.fits": len(ref_search_fits),
        "ref.search.irls_iters": sum(s.info["iters"]
                                     for s in ref_search_fits),
        "ref.search.c2_memo_hits": ref_c2 - ref_c2_fitted,
        "ref.glm.fits": len(ref_fits),
        "ref.glm.irls_iters": sum(s.info["iters"] for s in ref_fits),
        "ref.shadow.solves": len(ref_solves),
        "ref.shadow.newton_iters": sum(s.info["iters"] for s in ref_solves),
    })
    return m
