"""Average-causal-effect estimators.

The main estimator weights each observed-outcome row by the inverse of the
product of the response propensity p(R=1 | y, z) and the treatment-arm
probability p(A=a | z), both clipped away from 0 and 1, and averages over
all rows (rows with a missing outcome contribute zero). On fully observed
data the response model is degenerate, p = 1 exactly, and is not clipped.
One builder, ``_weigh``, weights the rows and returns the ``AceEstimate``
of the estimator and of its complete-case baseline. ``fit_and_weight``
runs the whole estimator: it solves the response propensity, fits the
treatment propensity and weights. Two deliberately biased baselines are
provided for comparison experiments: complete-case IPW, the estimator's
weighting with a response weight of 1 over the observed-outcome rows, and
``fit_and_weight`` on an insufficient set.
"""

from __future__ import annotations

import numbers
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


def check_clip_bounds(lo, hi) -> None:
    """Refuse clip bounds other than real numbers with 0 < lo < hi < 1."""
    if not (isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real)
            and 0.0 < lo < hi < 1.0):
        raise ValueError("clip bounds must satisfy 0 < lo < hi < 1, "
                         f"got ({lo}, {hi})")


def clip(p, lo: float = DEFAULT_CLIP[0], hi: float = DEFAULT_CLIP[1]):
    """Truncate propensities into [lo, hi]."""
    check_clip_bounds(lo, hi)
    return np.minimum(hi, np.maximum(lo, p))


def fit_treatment_propensity(ds: Dataset, Z) -> GlmFit:
    """Logistic fit of the treatment on the adjustment set, over all rows."""
    Z = ds.roles.check_adjustment(Z)
    a = ds.column(ds.roles.treatment)
    X = design_matrix(ds.n_rows, *(ds.column(z) for z in Z))
    return fit_glm(a, X)


def _weigh(ds, rows, Z, shadow, treat, clip_bounds, *, n, n_weights, method):
    """Build the estimate over ds's given rows: each arm's sum of
    y / (p_r * p(A=arm)) over ds.n_rows, with p_r and p(A=1) clipped into
    clip_bounds, and the clipped share of n_weights weights. A degenerate
    model's p_r is 1, not computed or clipped."""
    lo, hi = clip_bounds
    a = ds.column(ds.roles.treatment)[rows]
    y = ds.column(ds.roles.outcome)[rows]
    X = design_matrix(a.size, *(ds.column(z)[rows] for z in Z))
    p_r = 1.0 if shadow.degenerate else or_propensity(y, X[:, 1:], shadow)
    p_r_clipped = p_r if shadow.degenerate else clip(p_r, lo, hi)
    n_clipped = int(np.sum(p_r != p_r_clipped))
    p1 = treat.predict_proba(X)
    means = {}
    for arm in (1, 0):
        p_a = p1 if arm == 1 else 1.0 - p1
        p_a_clipped = clip(p_a, lo, hi)
        n_clipped += int(np.sum((p_a != p_a_clipped) & (a == arm)))
        term = np.where(a == arm, y / (p_r_clipped * p_a_clipped), 0.0)
        means[arm] = float(np.sum(term) / ds.n_rows)
    return AceEstimate(mean_treated=means[1], mean_control=means[0],
                       ace=means[1] - means[0], n=n, n_observed=a.size,
                       clipped_fraction=(n_clipped / n_weights if n_weights
                                         else 0.0), method=method)


def ipw_ace(ds: Dataset, Z, shadow: ShadowPropensityModel, treat: GlmFit,
            clip_bounds=DEFAULT_CLIP, method: str = METHOD_FULL
            ) -> AceEstimate:
    """Double inverse-probability-weighted ACE over treatment arms 1 and 0."""
    Z = ds.roles.check_adjustment(Z)
    if Z != tuple(shadow.adjustment):
        raise ValueError(f"adjustment set {Z} does not match the fitted "
                         f"response-propensity model {shadow.adjustment}")
    if treat.coefficients.shape != (1 + len(Z),):
        raise ValueError(f"adjustment set {Z} does not match the treatment "
                         f"fit's {treat.coefficients.size} coefficients")
    rows = respondent_rows(ds)   # a response and a treatment weight each
    return _weigh(ds, rows, Z, shadow, treat, clip_bounds, n=ds.n_rows,
                  n_weights=2 * rows.size, method=method)


def fit_and_weight(ds: Dataset, Z,
                   h_mode: str = shadow_module.DEFAULT_H_MODE,
                   clip_bounds=DEFAULT_CLIP, method: str = METHOD_FULL
                   ) -> tuple[ShadowPropensityModel, GlmFit, AceEstimate]:
    """The double-IPW estimator on adjustment set Z: solve the response
    propensity, fit the treatment propensity, and weight. Returns both
    fitted models with the estimate."""
    Z = ds.roles.check_adjustment(Z)
    model = shadow_module.solve_propensity(ds, Z, h_mode)
    treat = fit_treatment_propensity(ds, Z)
    return model, treat, ipw_ace(ds, Z, model, treat, clip_bounds,
                                 method=method)


def baseline_ignore_missingness(ds: Dataset, Z, clip_bounds=DEFAULT_CLIP
                                ) -> AceEstimate:
    """Complete-case IPW: the estimator's weighting with a response weight
    of 1 over the observed-outcome rows, with a treatment fit on them."""
    Z = ds.roles.check_adjustment(Z)
    obs = subset_observed(ds)
    return _weigh(obs, slice(None), Z, ShadowPropensityModel.trivial(Z),
                  fit_treatment_propensity(obs, Z), clip_bounds,
                  n=ds.n_rows, n_weights=obs.n_rows,
                  method=METHOD_IGNORE_MISSINGNESS)


def baseline_wrong_adjustment(ds: Dataset, Z=("W2", "W3"),
                              h_mode: str = shadow_module.DEFAULT_H_MODE,
                              clip_bounds=DEFAULT_CLIP) -> AceEstimate:
    """Full pipeline (response and treatment propensities, double IPW) run
    with a deliberately insufficient adjustment set."""
    return fit_and_weight(ds, Z, h_mode, clip_bounds,
                          METHOD_WRONG_ADJUSTMENT)[2]
