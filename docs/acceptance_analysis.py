"""Reproduce the numbers behind acceptance criteria 3, 4 and 5.

``docs/acceptance_analysis.md`` explains the numbers. Run from the
repository root:

    PYTHONPATH=src python docs/acceptance_analysis.py search
    PYTHONPATH=src python docs/acceptance_analysis.py estimate-spread
    PYTHONPATH=src python docs/acceptance_analysis.py estimate-large-n
    PYTHONPATH=src python docs/acceptance_analysis.py search-large-n

``search`` runs the same search experiments as the acceptance fixture
(n=10000, 200+200 trials, seed 0, alpha 0.01/0.05/0.1, two jobs). It then explains
each outcome: the p-values of C2, C3 and C4 at the correct candidate
(witness W1, adjustment W2,W3,W4) on every positive dataset, which condition
caused each positive miss, the outcomes of each negative scenario, and
whether per-dataset verdicts are nested across alpha.

``estimate-spread`` computes the complete-case baseline and the full
estimator with the adjustment set fixed to (W2, W3, W4) on the criterion-5
seeds. ``estimate-large-n`` computes the same two estimates on single draws
at n=10^6.

``search-large-n`` runs the search on 10^5-row ``base`` datasets, seeds
1-10, under the shipped simulator and with its probability clip switched
off (``prob_clip=(0, 1)``, a ``DgpConfig`` override), and prints C4's LRT
at the correct candidate. It then averages that LRT over more seeds and at
10^6 rows, also with the outcome's effect on the response switched off
(``gamma_true=0``).

The sizes, trial counts and seeds are the constants below. The first four
equal the acceptance fixture's N_DESK, TRIALS, SEED and JOBS, so the
numbers match the ones the suite prints.
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np

from shadowipw import citest, estimate
from shadowipw.experiments import (CORRECT_SET, _run_jobs,
                                   run_search_experiment)
from shadowipw.search import FOUND, find_adjustment_set
from shadowipw.simulate import (SCENARIO_ADD_A_TO_RY, SCENARIO_BASE,
                                SCENARIO_HIDE_W4, default_config, generate,
                                true_ace)

N = 10_000
TRIALS = 200
SEED = 0
JOBS = 2
ALPHAS = (0.01, 0.05, 0.1)
N_LARGE = 1_000_000
LARGE_SEEDS = (1, 2)
WITNESS = "W1"
N_SEARCH_LARGE = 100_000
SEARCH_LARGE_SEEDS = range(1, 11)
C4_SEEDS = {N_SEARCH_LARGE: range(1, 31), N_LARGE: range(1, 9)}
NO_CLIP = {"prob_clip": (0.0, 1.0)}
DGP_VARIANTS = (("shipped", {}), ("prob_clip (0, 1)", NO_CLIP),
                ("prob_clip (0, 1), gamma_true 0",
                 {**NO_CLIP, "gamma_true": 0.0}))


def _dataset(n, seed, scenario, **overrides):
    return generate(default_config(n=n, seed=seed, scenario=scenario,
                                   **overrides))


def _correct_candidate_pvalues(args):
    """p-values of C2, C3 and C4 at (W1; W2,W3,W4); they do not depend on
    alpha, which only sets the cut."""
    n, seed = args
    ds = _dataset(n, seed, SCENARIO_BASE)
    return (citest.test_c2(ds, CORRECT_SET, 0.05).result.p_value,
            citest.test_c3(ds, WITNESS, CORRECT_SET, 0.05).result.p_value,
            citest.test_c4(ds, WITNESS, CORRECT_SET, 0.05).result.p_value)


def _search_outcome(args):
    n, seed, scenario, alpha = args
    out = find_adjustment_set(_dataset(n, seed, scenario), alpha)
    return out.status, out.witness, out.adjustment_set


def _first_rejection(pvalues, alpha):
    """First of C2, C3, C4 that rejects the correct candidate at alpha, by
    each condition's rule in ``citest.CONDITIONS``: a condition that
    requires dependence passes when p < alpha, the others when p >= alpha."""
    for condition, p in zip((citest.C2, citest.C3, citest.C4), pvalues):
        if (p < alpha) != citest.CONDITIONS[condition].requires_dependence:
            return condition
    return None


def _fmt_set(status, witness, Z):
    if status != FOUND:
        return status
    return f"({witness}; {','.join(Z)})"


def cmd_search():
    reports = {alpha: run_search_experiment([N], TRIALS, alpha,
                                            seed=SEED, jobs=JOBS)
               for alpha in ALPHAS}
    print(f"n={N} trials={TRIALS}+{TRIALS} seed={SEED} "
          f"alphas={ALPHAS}")
    sens = [reports[al].cell(N).sensitivity for al in ALPHAS]
    spec = [reports[al].cell(N).specificity for al in ALPHAS]
    print("sensitivity:", [round(s, 3) for s in sens])
    print("predicted (1-alpha)^2:", [round((1 - al) ** 2, 3) for al in ALPHAS])
    print("specificity:", [round(s, 3) for s in spec])

    # rows are identical across alpha in (seed, kind, scenario) order
    rows = {al: reports[al].rows for al in ALPHAS}
    pos_rows = [r for r in rows[ALPHAS[0]] if r[1] == "positive"]
    pvals = dict(zip((r[2] for r in pos_rows),
                     _run_jobs(_correct_candidate_pvalues,
                               [(N, r[2]) for r in pos_rows], JOBS)))
    p2, p3, p4 = (np.array([p[i] for p in pvals.values()]) for i in range(3))
    print(f"correct candidate over {len(pvals)} positive datasets: "
          f"max C3 p-value {p3.max():.2e}; min C2 p-value {p2.min():.2e}; "
          f"min C4 p-value {p4.min():.2e}")

    misses = [(r, al) for al in ALPHAS for r in rows[al] if not r[5]]
    outcomes = dict(zip(((r[2], al) for r, al in misses),
                        _run_jobs(_search_outcome,
                                  [(N, r[2], r[3], al) for r, al in misses],
                                  JOBS)))

    print("\npositive misses by cause (correct candidate's first rejecting "
          "condition, or an earlier W1 candidate accepted):")
    for al in ALPHAS:
        causes = Counter()
        for r in rows[al]:
            if r[1] != "positive" or r[5]:
                continue
            status, witness, _ = outcomes[(r[2], al)]
            if status == FOUND and witness == WITNESS:
                causes["earlier W1 set accepted"] += 1
            else:
                causes[_first_rejection(pvals[r[2]], al) or "?"] += 1
        print(f"  alpha={al}: {sum(causes.values())} misses "
              f"{dict(sorted(causes.items()))}")

    print("\nnegative outcomes by scenario:")
    for al in ALPHAS:
        for scenario in (SCENARIO_ADD_A_TO_RY, SCENARIO_HIDE_W4):
            sc = [r for r in rows[al] if r[1] == "negative" and r[3] == scenario]
            tn = sum(r[5] for r in sc)
            certified = Counter(_fmt_set(*outcomes[(r[2], al)])
                                for r in sc if not r[5])
            print(f"  alpha={al} {scenario}: {tn}/{len(sc)} rejected "
                  f"({tn / len(sc):.3f}); certified: {dict(certified)}")

    verdicts = {al: {(r[1], r[2]): r[5] for r in rows[al]} for al in ALPHAS}
    violations = 0
    for key in verdicts[ALPHAS[0]]:
        seq = [verdicts[al][key] for al in ALPHAS]
        # positives may only lose hits as alpha grows, negatives only gain
        violations += seq != sorted(seq, reverse=key[0] == "positive")
    print(f"\nnesting violations across alpha: {violations} in "
          f"{len(verdicts[ALPHAS[0]])} datasets")


def _two_estimates(args):
    """(complete-case ACE, full ACE) with the adjustment set fixed to the
    correct one, so no search noise enters."""
    n, seed = args
    ds = _dataset(n, seed, SCENARIO_BASE)
    ignore = estimate.baseline_ignore_missingness(ds, CORRECT_SET).ace
    return ignore, estimate.fit_and_weight(ds, CORRECT_SET)[2].ace


def cmd_estimate_spread():
    truth = true_ace(default_config())
    seeds = range(SEED, SEED + TRIALS)
    est = np.array(_run_jobs(_two_estimates, [(N, s) for s in seeds],
                             JOBS))
    print(f"n={N} seeds {seeds.start}..{seeds.stop - 1} Z={CORRECT_SET} "
          f"truth {truth:.4f}")
    for name, col in (("ignore_missingness", est[:, 0]), ("full", est[:, 1])):
        err = col - truth
        print(f"  {name}: median error {np.median(err):+.4f}, SD "
              f"{np.std(col, ddof=1):.4f}, MAE {np.median(np.abs(err)):.4f}")
    mae_ignore = np.median(np.abs(est[:, 0] - truth))
    sd_full = np.std(est[:, 1], ddof=1)
    print(f"  a 3x ratio needs full MAE <= {mae_ignore / 3:.4f}; an unbiased "
          f"normal estimator with the full SD has MAE "
          f"{0.6745 * sd_full:.4f}")


def cmd_estimate_large_n():
    truth = true_ace(default_config())
    print(f"n={N_LARGE} Z={CORRECT_SET} truth {truth:.4f}")
    for seed in LARGE_SEEDS:
        ignore, full = _two_estimates((N_LARGE, seed))
        print(f"  seed {seed}: ignore_missingness {ignore:.4f}, "
              f"full {full:.4f}")


def _c4_at_correct_candidate(ds):
    return citest.test_c4(ds, WITNESS, CORRECT_SET, 0.05).result


def cmd_search_large_n():
    print(f"n={N_SEARCH_LARGE} base, alpha 0.05; C4 at the correct "
          f"candidate ({WITNESS}; {','.join(CORRECT_SET)})")
    for label, overrides in DGP_VARIANTS[:2]:
        print(f"{label}:")
        for seed in SEARCH_LARGE_SEEDS:
            ds = _dataset(N_SEARCH_LARGE, seed, SCENARIO_BASE, **overrides)
            out = find_adjustment_set(ds, 0.05)
            c4 = _c4_at_correct_candidate(ds)
            print(f"  seed {seed}: "
                  f"{_fmt_set(out.status, out.witness, out.adjustment_set)}"
                  f"; C4 LRT {c4.statistic:.2f}, p {c4.p_value:.3g}")
    print("C4's LRT at the correct candidate; under a true null it is "
          "chi-square(1): mean 1, p < 0.05 in 5% of seeds")
    for n, seeds in C4_SEEDS.items():
        for label, overrides in DGP_VARIANTS:
            res = [_c4_at_correct_candidate(
                _dataset(n, seed, SCENARIO_BASE, **overrides))
                for seed in seeds]
            stats = np.array([r.statistic for r in res])
            rejected = sum(r.p_value < 0.05 for r in res)
            print(f"  n={n} seeds {seeds.start}..{seeds.stop - 1} {label}: "
                  f"mean LRT {stats.mean():.2f}, p < 0.05 in "
                  f"{rejected}/{len(res)}")


COMMANDS = {"search": cmd_search, "estimate-spread": cmd_estimate_spread,
            "estimate-large-n": cmd_estimate_large_n,
            "search-large-n": cmd_search_large_n}


def main():
    if len(sys.argv) != 2 or sys.argv[1] not in COMMANDS:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(COMMANDS)}}}")
    COMMANDS[sys.argv[1]]()


if __name__ == "__main__":
    main()
