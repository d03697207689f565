"""The four testable identification conditions, as likelihood-ratio tests.

Each test regresses a binary endpoint on conditioning variables and asks,
via a one-degree-of-freedom LRT, whether adding the tested variable improves
fit:

  c1: response  ~ 1            vs  + incentive     (dependence must hold)
  c2: treatment ~ outcome, Z   vs  + incentive     (independence must hold,
      fitted on rows with response == 1)
  c3: response  ~ Z            vs  + witness       (dependence must hold)
  c4: response  ~ treatment, Z vs  + witness       (independence must hold)

A condition "passes" when the observed verdict matches the required one at
level alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, subset_observed
from .glm import CiTestResult, GlmError, design_matrix, fit_glm, \
    likelihood_ratio_test

C1, C2, C3, C4 = "C1", "C2", "C3", "C4"

# conditions whose pass-verdict is "dependence detected" (p < alpha)
_REQUIRES_DEPENDENCE = {C1: True, C2: False, C3: True, C4: False}


class DegenerateDataError(ValueError):
    """Raised when an endpoint column is constant or a subset is empty."""


@dataclass(frozen=True)
class ConditionRecord:
    condition: str
    witness: str | None
    adjustment: tuple[str, ...]
    result: CiTestResult | None
    error: str | None = None

    @property
    def passed(self) -> bool:
        if self.result is None:
            return False
        wants_dependence = _REQUIRES_DEPENDENCE[self.condition]
        return self.result.independent != wants_dependence

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "witness": self.witness,
            "adjustment": list(self.adjustment),
            "result": None if self.result is None else self.result.to_dict(),
            "passed": self.passed,
            "error": self.error,
        }


def _check_binary_endpoint(values: np.ndarray, name: str):
    if values.size == 0:
        raise DegenerateDataError(f"no rows available for endpoint {name!r}")
    if values.min() == values.max():
        raise DegenerateDataError(f"endpoint column {name!r} is constant")


def _lrt(endpoint, base_columns, added_column, alpha) -> CiTestResult:
    n = endpoint.size
    null_fit = fit_glm(endpoint, design_matrix(n, *base_columns))
    # start the full fit at the null optimum with the added coefficient at 0;
    # under the null hypothesis that is a few steps from the full optimum
    full_fit = fit_glm(endpoint, design_matrix(n, *base_columns, added_column),
                       start=np.append(null_fit.coefficients, 0.0))
    return likelihood_ratio_test(null_fit, full_fit, alpha)


def test_c1(ds: Dataset, alpha: float) -> ConditionRecord:
    """Incentive must be associated with the response indicator."""
    roles = ds.roles
    response = ds.column(roles.response)
    _check_binary_endpoint(response, roles.response)
    result = _lrt(response, (), ds.column(roles.incentive), alpha)
    return ConditionRecord(C1, None, (), result)


def test_c2(ds: Dataset, Z, alpha: float,
            observed: Dataset | None = None) -> ConditionRecord:
    """Treatment must be independent of the incentive given the outcome and
    Z among respondents.

    ``observed`` is ``subset_observed(ds)``, for a caller that runs many C2
    tests on one dataset and slices its respondents once.
    """
    roles = ds.roles
    Z = tuple(Z)
    _check_adjustment(roles, None, Z)
    obs = subset_observed(ds) if observed is None else observed
    if obs.n_rows == 0:
        raise DegenerateDataError("no rows with response == 1")
    treatment = obs.column(roles.treatment)
    _check_binary_endpoint(treatment, roles.treatment)
    base = [obs.column(roles.outcome)] + [obs.column(z) for z in Z]
    result = _lrt(treatment, base, obs.column(roles.incentive), alpha)
    return ConditionRecord(C2, None, Z, result)


def test_c3(ds: Dataset, W: str, Z, alpha: float) -> ConditionRecord:
    """Witness W must be associated with the response given Z."""
    roles = ds.roles
    Z = tuple(Z)
    _check_adjustment(roles, W, Z)
    response = ds.column(roles.response)
    _check_binary_endpoint(response, roles.response)
    base = [ds.column(z) for z in Z]
    result = _lrt(response, base, ds.column(W), alpha)
    return ConditionRecord(C3, W, Z, result)


def test_c4(ds: Dataset, W: str, Z, alpha: float) -> ConditionRecord:
    """Witness W must be independent of the response given treatment and Z."""
    roles = ds.roles
    Z = tuple(Z)
    _check_adjustment(roles, W, Z)
    response = ds.column(roles.response)
    _check_binary_endpoint(response, roles.response)
    base = [ds.column(roles.treatment)] + [ds.column(z) for z in Z]
    result = _lrt(response, base, ds.column(W), alpha)
    return ConditionRecord(C4, W, Z, result)


def _check_adjustment(roles, W, Z):
    role_names = {roles.treatment, roles.outcome, roles.response,
                  roles.incentive}
    for z in Z:
        if z in role_names:
            raise GlmError(f"adjustment set may not contain role column {z!r}")
        if z not in roles.covariates:
            raise GlmError(f"adjustment column {z!r} is not a covariate")
    if W is not None:
        if W in Z:
            raise GlmError(f"witness {W!r} may not appear in the adjustment set")
        if W not in roles.covariates:
            raise GlmError(f"witness {W!r} is not a covariate")
