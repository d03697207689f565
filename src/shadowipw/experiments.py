"""Monte Carlo experiment harnesses for the search and the estimators.

Trials are embarrassingly parallel; each trial derives its own seed from the
base seed so reports are byte-identical regardless of the worker count.
Positive and negative search trials use disjoint seed offsets.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

from . import estimate, shadow
from .search import (FOUND, GraphOracleTester, check_search_settings,
                     find_adjustment_set)
from .simulate import (SCENARIO_ADD_A_TO_RY, SCENARIO_BASE, SCENARIO_HIDE_W4,
                       default_config, generate, scenario_graph, true_ace)

CORRECT_SET = ("W2", "W3", "W4")
_NEGATIVE_SEED_STRIDE = 1_000_003  # keeps positive/negative streams disjoint

ALL_METHODS = (estimate.METHOD_FULL, estimate.METHOD_ORACLE_SEARCH,
               estimate.METHOD_IGNORE_MISSINGNESS,
               estimate.METHOD_WRONG_ADJUSTMENT)


@dataclass(frozen=True)
class SearchCell:
    sample_size: int
    alpha: float
    tp: int
    fn: int
    tn: int
    fp: int

    @property
    def sensitivity(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else float("nan")

    @property
    def specificity(self) -> float:
        return self.tn / (self.tn + self.fp) if (self.tn + self.fp) else float("nan")

    def to_dict(self) -> dict:
        return {**asdict(self), "sensitivity": self.sensitivity,
                "specificity": self.specificity}


@dataclass(frozen=True)
class SearchExperimentReport:
    cells: tuple[SearchCell, ...]
    trials_positive: int
    trials_negative: int
    alpha: float
    seed: int
    rows: tuple[tuple, ...]   # (sample_size, kind, trial, scenario, status, correct)

    def cell(self, sample_size: int) -> SearchCell:
        for c in self.cells:
            if c.sample_size == sample_size:
                return c
        raise KeyError(sample_size)

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "seed": self.seed,
                "trials_positive": self.trials_positive,
                "trials_negative": self.trials_negative,
                "cells": [c.to_dict() for c in self.cells]}

    def rows_csv(self) -> str:
        lines = ["sample_size,kind,trial,scenario,status,correct"]
        lines += [",".join(str(v) for v in row) for row in self.rows]
        return "\n".join(lines) + "\n"


def _tester(config, ds, oracle: bool):
    """The d-separation oracle on the generating graph, or None for the
    likelihood-ratio tests."""
    if oracle:
        return GraphOracleTester(scenario_graph(config.scenario), ds.roles)
    return None


def _search_trial(args):
    n, alpha, seed, kind, oracle = args
    scenario = SCENARIO_BASE
    if kind == "negative":
        coin = np.random.Generator(
            np.random.Philox(key=seed % (1 << 64))).uniform()
        scenario = SCENARIO_ADD_A_TO_RY if coin < 0.5 else SCENARIO_HIDE_W4
    config = default_config(n=n, seed=seed, scenario=scenario)
    ds = generate(config)
    outcome = find_adjustment_set(ds, alpha,
                                  tester=_tester(config, ds, oracle))
    if kind == "negative":
        correct = outcome.status != FOUND
    else:
        correct = (outcome.status == FOUND
                   and tuple(sorted(outcome.adjustment_set)) == CORRECT_SET)
    return (n, kind, seed, scenario, outcome.status, correct)


def _distinct(values, what: str) -> tuple:
    """``values`` as a tuple, nonempty and without repeats: a repeat would
    make two cells that ``cell()`` cannot tell apart."""
    values = tuple(values)
    if not values:
        raise ValueError(f"no {what} given")
    if len(set(values)) < len(values):
        raise ValueError(f"{what} must be distinct, got {list(values)}")
    return values


def _check_design(sample_sizes, trials: int, alpha) -> tuple:
    """The sample-size grid as a tuple, once ``alpha`` is known to lie in
    (0, 1), the sizes to be distinct and >= 1 and ``trials`` to be >= 1."""
    check_search_settings(alpha)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sample_sizes = _distinct(sample_sizes, "sample sizes")
    for n in sample_sizes:
        if n < 1:
            raise ValueError(f"sample sizes must be >= 1, got {n}")
    return sample_sizes


def _run_jobs(fn, jobs_args, jobs: int):
    if jobs <= 1:
        return [fn(a) for a in jobs_args]
    # imported here: loading the pool's module costs every CLI start
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, jobs_args, chunksize=4))


def run_search_experiment(sample_sizes, trials: int, alpha: float,
                          seed: int = 0, jobs: int = 1,
                          oracle: bool = False) -> SearchExperimentReport:
    """Confusion counts of the adjustment-set search over simulated trials.

    Per sample size, ``trials`` positive trials draw from the base scenario
    (a true positive requires returning exactly the correct set) and
    ``trials`` negative trials draw one of the two broken scenarios with
    equal probability (a true negative is any run that returns no set).
    With ``oracle=True`` the likelihood-ratio tests are replaced by
    d-separation on the generating graph.
    """
    sample_sizes = _check_design(sample_sizes, trials, alpha)
    rows = []
    cells = []
    for idx, n in enumerate(sample_sizes):
        block = 2 * trials * idx
        args = ([(n, alpha, seed + block + t, "positive", oracle)
                 for t in range(trials)]
                + [(n, alpha, seed + _NEGATIVE_SEED_STRIDE + block + t,
                    "negative", oracle) for t in range(trials)])
        cell_rows = _run_jobs(_search_trial, args, jobs)
        tp = sum(row[5] for row in cell_rows[:trials])
        tn = sum(row[5] for row in cell_rows[trials:])
        cells.append(SearchCell(n, alpha, tp=tp, fn=trials - tp,
                                tn=tn, fp=trials - tn))
        rows += cell_rows
    return SearchExperimentReport(tuple(cells), trials, trials, alpha, seed,
                                  tuple(rows))


@dataclass(frozen=True)
class EstimationCell:
    sample_size: int
    method: str
    estimates: tuple[float, ...]
    n_not_found: int

    @property
    def median(self) -> float:
        return float(np.median(self.estimates)) if self.estimates else float("nan")

    def quantiles(self, qs=(0.25, 0.5, 0.75)) -> tuple[float, ...]:
        if not self.estimates:
            return tuple(float("nan") for _ in qs)
        return tuple(float(v) for v in np.quantile(self.estimates, qs))

    def median_abs_error(self, truth: float) -> float:
        if not self.estimates:
            return float("nan")
        return float(np.median(np.abs(np.asarray(self.estimates) - truth)))

    def to_dict(self, truth: float) -> dict:
        q25, q50, q75 = self.quantiles()
        return {"sample_size": self.sample_size, "method": self.method,
                "trials": len(self.estimates) + self.n_not_found,
                "n_not_found": self.n_not_found, "median": q50,
                "q25": q25, "q75": q75,
                "median_abs_error": self.median_abs_error(truth)}


@dataclass(frozen=True)
class EstimationExperimentReport:
    cells: tuple[EstimationCell, ...]
    ground_truth: float
    alpha: float
    seed: int
    rows: tuple[tuple, ...]   # (sample_size, trial, method, ace or "")

    def cell(self, sample_size: int, method: str) -> EstimationCell:
        for c in self.cells:
            if c.sample_size == sample_size and c.method == method:
                return c
        raise KeyError((sample_size, method))

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "seed": self.seed,
                "ground_truth": self.ground_truth,
                "cells": [c.to_dict(self.ground_truth) for c in self.cells]}

    def rows_csv(self) -> str:
        lines = ["sample_size,trial,method,ace"]
        lines += [",".join(str(v) for v in row) for row in self.rows]
        return "\n".join(lines) + "\n"


def _estimation_trial(args):
    n, alpha, seed, methods, h_mode = args
    config = default_config(n=n, seed=seed, scenario=SCENARIO_BASE)
    ds = generate(config)
    results = {}
    for method in methods:
        if method in (estimate.METHOD_FULL, estimate.METHOD_ORACLE_SEARCH):
            tester = _tester(config, ds,
                             method == estimate.METHOD_ORACLE_SEARCH)
            outcome = find_adjustment_set(ds, alpha, tester=tester)
            results[method] = (estimate.fit_and_weight(
                ds, outcome.adjustment_set, h_mode, method=method)[2].ace
                if outcome.status == FOUND else None)
        elif method == estimate.METHOD_IGNORE_MISSINGNESS:
            results[method] = estimate.baseline_ignore_missingness(
                ds, CORRECT_SET).ace
        else:   # METHOD_WRONG_ADJUSTMENT: the caller admits only ALL_METHODS
            results[method] = estimate.baseline_wrong_adjustment(
                ds, h_mode=h_mode).ace
    return seed, results


def run_estimation_experiment(sample_sizes, trials: int, alpha: float,
                              methods=ALL_METHODS, seed: int = 0,
                              jobs: int = 1, h_mode: str = shadow.H_MODE_A_MEAN
                              ) -> EstimationExperimentReport:
    """ACE estimates per (sample size, method) across simulated trials,
    scored against the 10^6-row ``true_ace`` of the default config.

    ``full``-method trials where the search finds no set are recorded as
    missing estimates and excluded from the summaries; the exclusion count
    is reported alongside.
    """
    sample_sizes = _check_design(sample_sizes, trials, alpha)
    methods = _distinct(methods, "methods")
    for m in methods:
        if m not in ALL_METHODS:
            raise ValueError(f"unknown method {m!r}")
    shadow.check_h_mode(h_mode)
    # positional, the key under which a caller may have cached the truth
    truth = true_ace(default_config(), 1_000_000)
    rows = []
    cells = []
    for idx, n in enumerate(sample_sizes):
        args = [(n, alpha, seed + trials * idx + t, methods, h_mode)
                for t in range(trials)]
        outputs = _run_jobs(_estimation_trial, args, jobs)
        for method in methods:
            estimates = []
            not_found = 0
            for trial_seed, results in outputs:
                ace = results[method]
                if ace is None:
                    not_found += 1
                    rows.append((n, trial_seed, method, ""))
                else:
                    estimates.append(ace)
                    rows.append((n, trial_seed, method, repr(ace)))
            cells.append(EstimationCell(n, method, tuple(estimates),
                                        not_found))
    return EstimationExperimentReport(tuple(cells), truth, alpha, seed,
                                      tuple(rows))


def default_jobs() -> int:
    return os.cpu_count() or 1
