"""Digests of the program's numbers, to check that a change keeps them bit
for bit.

Run from the repository root, on the parent commit and on the change:

    PYTHONPATH=src python tests/golden/fingerprint.py [--seeds 100]

and compare the lines it prints. Each line is the SHA-256 digest of one
part of the program's output, with counts that show what it covered:

  search    ``find_adjustment_set`` on each scenario, at 10^4 rows and at
            40 and 200 rows, where fits separate or are rank deficient:
            each outcome's ``to_dict()`` and every fit in the search's
            memo (its design, coefficient bytes, log-likelihood,
            iterations and flags);
  fits      ``fit_glm`` on random designs, some of them separated, with a
            duplicated column or with a column scaled by 10^6, where fits
            also reach ``glm.MAX_ITER``;
  estimate  ``fit_and_weight`` in both h modes, at 2,000 and 20,000 rows,
            on the correct adjustment set, on one stratum
            (``tests/oracles.py:one_stratum_dataset``), where response
            solves stall, and on the correct set with every outcome
            observed, where the response model is degenerate: the response
            model, the treatment fit and the estimate, and ``ipw_ace`` on
            those models at clip bounds (0.1, 0.9); there also
            ``baseline_ignore_missingness`` at the default bounds and at
            (0.1, 0.9), and ``baseline_wrong_adjustment`` in both h modes
            where the data hold its set;
  generate  ``generate``'s columns on each scenario;
  experiments  ``run_search_experiment``, with the likelihood-ratio tests
            and with the d-separation oracle, at 200 and 1,000 rows, and
            ``run_estimation_experiment`` with every method at 800 rows,
            one trial per kind and size for every 10 seeds: each report's
            ``to_dict()`` and ``rows_csv()``.

Its name does not start with ``test_``, so pytest does not collect it.
"""

import argparse
import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from oracles import all_observed, one_stratum_dataset  # noqa: E402
from shadowipw import estimate, glm, shadow  # noqa: E402
from shadowipw.experiments import (run_estimation_experiment,  # noqa: E402
                                   run_search_experiment)
from shadowipw.search import LrtTester, find_adjustment_set  # noqa: E402
from shadowipw.simulate import (SCENARIOS, default_config,  # noqa: E402
                                generate)

CORRECT_SET = ("W2", "W3", "W4")
OTHER_CLIP = (0.1, 0.9)


def _update(digest, *values):
    for value in values:
        if isinstance(value, np.ndarray):
            digest.update(np.ascontiguousarray(value, dtype=float).tobytes())
        else:
            digest.update(json.dumps(value, sort_keys=True).encode())


def _fit(digest, fit: glm.GlmFit, counts):
    _update(digest, fit.coefficients, fit.log_likelihood.hex(),
            fit.iterations, fit.converged, fit.separated,
            fit.rank_deficient)
    counts["fits"] += 1
    counts["not converged"] += not fit.converged
    counts["separated"] += fit.separated
    counts["rank deficient"] += fit.rank_deficient
    # a fit that stopped where no halved step kept the likelihood
    counts["stalled"] += (not fit.converged and not fit.separated
                          and fit.iterations < glm.MAX_ITER)


def searches(seeds: int):
    digest, counts = hashlib.sha256(), dict.fromkeys(
        ("searches", "fits", "not converged", "separated", "rank deficient",
         "stalled"), 0)
    for n, n_seeds in ((10_000, seeds), (40, seeds), (200, seeds)):
        for scenario in SCENARIOS:
            for seed in range(n_seeds):
                ds = generate(default_config(n=n, seed=seed,
                                             scenario=scenario))
                tester = LrtTester(ds)
                outcome = find_adjustment_set(ds, 0.05, tester=tester)
                _update(digest, outcome.to_dict())
                counts["searches"] += 1
                for key, fit in tester._fits.items():
                    if isinstance(fit, glm.GlmFit):
                        _update(digest, repr(key))
                        _fit(digest, fit, counts)
    return digest, counts


def fits(seeds: int):
    digest, counts = hashlib.sha256(), dict.fromkeys(
        ("fits", "not converged", "separated", "rank deficient", "stalled",
         "at MAX_ITER"), 0)
    rng = np.random.default_rng(0)
    for _ in range(10 * seeds):
        n, p = int(rng.integers(40, 400)), int(rng.integers(1, 7))
        scale = float(rng.choice([0.01, 1.0, 100.0]))
        X = glm.design_matrix(n, *(scale * rng.normal(size=(p - 1, n))))
        beta = rng.uniform(-1.0, 1.0, size=p) / scale
        y = (rng.uniform(size=n) < glm.expit(X @ beta)).astype(float)
        case = rng.integers(4)
        if case == 1 and p > 1:
            y = (X[:, -1] > 0).astype(float)
        elif case == 2 and p > 2:
            X[:, -1] = X[:, 1]
        elif case == 3 and p > 1:
            X[:, -1] *= 1e6
        fit = glm.fit_glm(y, X)
        _fit(digest, fit, counts)
        counts["at MAX_ITER"] += fit.iterations == glm.MAX_ITER
    return digest, counts


def estimates(seeds: int):
    digest, counts = hashlib.sha256(), dict.fromkeys(
        ("calls", "baselines", "fits", "not converged", "separated",
         "rank deficient", "stalled", "solves not converged",
         "solves stalled", "degenerate"), 0)
    for n, n_seeds in ((2_000, seeds), (20_000, max(1, seeds // 10))):
        for seed in range(n_seeds):
            ds = generate(default_config(n=n, seed=seed))
            data = ((ds, CORRECT_SET), (one_stratum_dataset(n, seed), ("C",)),
                    (all_observed(ds), CORRECT_SET))
            for ds, Z in data:
                wrong_set = "W2" in ds.roles.covariates
                for h_mode in shadow.H_MODES:
                    with warnings.catch_warnings():
                        # a solve on fully observed data says so
                        warnings.simplefilter("ignore", UserWarning)
                        model, treat, est = estimate.fit_and_weight(
                            ds, Z, h_mode)
                        wrong = (estimate.baseline_wrong_adjustment(
                            ds, h_mode=h_mode) if wrong_set else None)
                    other = estimate.ipw_ace(ds, Z, model, treat, OTHER_CLIP)
                    _update(digest, model.to_dict(), est.to_dict(),
                            other.to_dict())
                    _fit(digest, treat, counts)
                    counts["calls"] += 2
                    counts["solves not converged"] += not model.converged
                    counts["solves stalled"] += model.used_fallback
                    counts["degenerate"] += model.degenerate
                    if wrong is not None:
                        _update(digest, wrong.to_dict())
                        counts["baselines"] += 1
                for bounds in (estimate.DEFAULT_CLIP, OTHER_CLIP):
                    _update(digest, estimate.baseline_ignore_missingness(
                        ds, Z, bounds).to_dict())
                    counts["baselines"] += 1
    return digest, counts


def columns(seeds: int):
    digest, counts = hashlib.sha256(), {"datasets": 0}
    for scenario in SCENARIOS:
        for seed in range(seeds):
            ds = generate(default_config(n=2_000, seed=seed,
                                         scenario=scenario))
            for name in ds.names:
                _update(digest, name, ds.column(name))
            counts["datasets"] += 1
    return digest, counts


def experiments(seeds: int):
    digest, counts = hashlib.sha256(), {"reports": 0, "rows": 0}
    trials = max(1, seeds // 10)
    reports = [run_search_experiment([200, 1_000], trials, 0.05,
                                     oracle=oracle)
               for oracle in (False, True)]
    reports.append(run_estimation_experiment([800], trials, 0.05))
    for report in reports:
        _update(digest, report.to_dict(), report.rows_csv())
        counts["reports"] += 1
        counts["rows"] += len(report.rows_csv().splitlines()) - 1
    return digest, counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=100,
                        help="seeds per scenario and size (default 100)")
    args = parser.parse_args(argv)
    for name, part in (("search", searches), ("fits", fits),
                       ("estimate", estimates), ("generate", columns),
                       ("experiments", experiments)):
        digest, counts = part(args.seeds)
        shown = ", ".join(f"{v} {k}" for k, v in counts.items())
        print(f"{name:12s}{digest.hexdigest()}  ({shown})", flush=True)


if __name__ == "__main__":
    main()
