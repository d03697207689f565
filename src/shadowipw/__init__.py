"""Causal effect estimation when the outcome censors its own reporting.

The package tests identification conditions with likelihood-ratio tests,
searches for a witness covariate and a joint backdoor/shadow adjustment
set, estimates the response propensity through an odds-ratio factorization
solved from mean-zero estimating equations, and combines response and
treatment weights into a double inverse-probability-weighted estimate of
the average causal effect. A simulator and Monte Carlo harnesses reproduce
the accompanying simulation study.
"""

__version__ = "0.1.0"

from .data import Dataset, RoleMap, load_csv, subset_observed, write_csv
from .estimate import (AceEstimate, baseline_ignore_missingness,
                       baseline_wrong_adjustment, clip, fit_and_weight,
                       fit_treatment_propensity, ipw_ace)
from .glm import (CiTestResult, GlmFit, chi_square_sf, fit_glm,
                  likelihood_ratio_test)
from .search import (SearchOutcome, GraphOracleTester, LrtTester,
                     find_adjustment_set)
from .shadow import (ShadowPropensityModel, moment_residuals, or_propensity,
                     reconstruct_propensity_from_joint, solve_propensity)
from .simulate import DgpConfig, default_config, generate, true_ace

__all__ = [
    "AceEstimate", "CiTestResult", "Dataset", "DgpConfig", "GlmFit",
    "GraphOracleTester", "LrtTester", "RoleMap", "SearchOutcome",
    "ShadowPropensityModel", "baseline_ignore_missingness",
    "baseline_wrong_adjustment", "chi_square_sf", "clip", "default_config",
    "find_adjustment_set", "fit_and_weight", "fit_glm",
    "fit_treatment_propensity", "generate", "ipw_ace",
    "likelihood_ratio_test", "load_csv", "moment_residuals", "or_propensity",
    "reconstruct_propensity_from_joint", "solve_propensity",
    "subset_observed", "true_ace", "write_csv",
]
