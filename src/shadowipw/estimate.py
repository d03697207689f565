"""Average-causal-effect estimators.

The main estimator weights each observed-outcome row by the inverse of the
product of the response propensity p(R=1 | y, z) and the treatment-arm
probability p(A=a | z), both clipped away from 0 and 1, and averages over
all rows (rows with a missing outcome contribute zero). On fully observed
data the response model is degenerate, p = 1 exactly, and is not clipped.
``fit_and_weight`` runs the whole estimator: it solves the response
propensity, fits the treatment propensity and weights. Two deliberately
biased baselines are provided for comparison experiments: complete-case
IPW that ignores the missingness mechanism, and ``fit_and_weight`` on a
deliberately insufficient adjustment set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import shadow as shadow_module
from .data import Dataset, respondent_rows, subset_observed
from .glm import GlmFit, design_matrix, fit_glm
from .shadow import ShadowPropensityModel, or_propensity

METHOD_FULL = "full"
METHOD_ORACLE_SEARCH = "oracle_search"
METHOD_IGNORE_MISSINGNESS = "ignore_missingness"
METHOD_WRONG_ADJUSTMENT = "wrong_adjustment"

DEFAULT_CLIP = (0.01, 0.99)


@dataclass(frozen=True)
class AceEstimate:
    mean_treated: float
    mean_control: float
    ace: float
    n: int
    n_observed: int
    clipped_fraction: float
    method: str

    def to_dict(self) -> dict:
        return asdict(self)


def clip(p, lo: float = DEFAULT_CLIP[0], hi: float = DEFAULT_CLIP[1]):
    """Truncate propensities into [lo, hi]."""
    if not (0.0 < lo < hi < 1.0):
        raise ValueError(f"need 0 < lo < hi < 1, got ({lo}, {hi})")
    return np.minimum(hi, np.maximum(lo, p))


def fit_treatment_propensity(ds: Dataset, Z) -> GlmFit:
    """Logistic fit of the treatment on the adjustment set, over all rows."""
    roles = ds.roles
    a = ds.column(roles.treatment)
    X = design_matrix(ds.n_rows, *(ds.column(z) for z in Z))
    return fit_glm(a, X)


def _arm_means(p1, a, y, p_r, lo, hi, n):
    """Per-arm sums of y / (p_r * p(A=arm)) over the rows given, divided by
    n, with p(A=1) = p1 clipped into [lo, hi]; and the number of rows whose
    treatment weight was clipped."""
    means, n_clipped = {}, 0
    for arm in (1, 0):
        p_a = p1 if arm == 1 else 1.0 - p1
        p_a_clipped = clip(p_a, lo, hi)
        n_clipped += int(np.sum((p_a != p_a_clipped) & (a == arm)))
        term = np.where(a == arm, y / (p_r * p_a_clipped), 0.0)
        means[arm] = float(np.sum(term) / n)
    return means, n_clipped


def ipw_ace(ds: Dataset, Z, shadow: ShadowPropensityModel, treat: GlmFit,
            clip_bounds=DEFAULT_CLIP, method: str = METHOD_FULL
            ) -> AceEstimate:
    """Double inverse-probability-weighted ACE over treatment arms 1 and 0."""
    lo, hi = clip_bounds
    roles = ds.roles
    Z = tuple(Z)
    if Z != tuple(shadow.adjustment):
        raise ValueError(f"adjustment set {Z} does not match the fitted "
                         f"response-propensity model {shadow.adjustment}")
    n = ds.n_rows
    rows = respondent_rows(ds)
    a = ds.column(roles.treatment).take(rows)
    y = ds.column(roles.outcome).take(rows)
    X = design_matrix(rows.size, *(ds.column(z).take(rows) for z in Z))

    p_r = np.atleast_1d(or_propensity(y, X[:, 1:], shadow))
    p_r_clipped = p_r if shadow.degenerate else clip(p_r, lo, hi)
    means, n_clipped = _arm_means(treat.predict_proba(X), a, y,
                                  p_r_clipped, lo, hi, n)
    n_clipped += int(np.sum(p_r != p_r_clipped))
    n_weights = 2 * p_r.size   # a response and a treatment weight per row

    return AceEstimate(
        mean_treated=means[1], mean_control=means[0],
        ace=means[1] - means[0], n=n, n_observed=rows.size,
        clipped_fraction=(n_clipped / n_weights if n_weights else 0.0),
        method=method)


def fit_and_weight(ds: Dataset, Z, h_mode: str = shadow_module.H_MODE_A_MEAN,
                   clip_bounds=DEFAULT_CLIP, method: str = METHOD_FULL
                   ) -> tuple[ShadowPropensityModel, GlmFit, AceEstimate]:
    """The double-IPW estimator on adjustment set Z: solve the response
    propensity, fit the treatment propensity, and weight. Returns both
    fitted models with the estimate."""
    model = shadow_module.solve_propensity(ds, Z, h_mode)
    treat = fit_treatment_propensity(ds, Z)
    return model, treat, ipw_ace(ds, Z, model, treat, clip_bounds,
                                 method=method)


def baseline_ignore_missingness(ds: Dataset, Z, clip_bounds=DEFAULT_CLIP
                                ) -> AceEstimate:
    """Complete-case IPW with treatment weights only: subset to observed
    outcomes and ignore the missingness mechanism entirely."""
    lo, hi = clip_bounds
    obs = subset_observed(ds)
    roles = obs.roles
    n = obs.n_rows
    a = obs.column(roles.treatment)
    y = obs.column(roles.outcome)
    treat = fit_treatment_propensity(obs, Z)
    X = design_matrix(n, *(obs.column(z) for z in Z))
    means, n_clipped = _arm_means(treat.predict_proba(X), a, y, 1.0, lo, hi, n)
    return AceEstimate(
        mean_treated=means[1], mean_control=means[0],
        ace=means[1] - means[0], n=ds.n_rows, n_observed=n,
        clipped_fraction=(n_clipped / n if n else 0.0),
        method=METHOD_IGNORE_MISSINGNESS)


def baseline_wrong_adjustment(ds: Dataset, Z=("W2", "W3"),
                              h_mode: str = shadow_module.H_MODE_A_MEAN,
                              clip_bounds=DEFAULT_CLIP) -> AceEstimate:
    """Full pipeline (response and treatment propensities, double IPW) run
    with a deliberately insufficient adjustment set."""
    return fit_and_weight(ds, Z, h_mode, clip_bounds,
                          METHOD_WRONG_ADJUSTMENT)[2]
