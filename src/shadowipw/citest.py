"""The four testable identification conditions, as one table.

Each row of ``CONDITIONS`` names a binary endpoint role, the roles it is
conditioned on ahead of the adjustment set Z, the variable whose
association with the endpoint is tested (a role, or the witness W), whether
only respondents (rows with response == 1) are used, and the verdict the
condition requires:

  c1: response  ~ 1            vs  + incentive     (dependence must hold)
  c2: treatment ~ outcome, Z   vs  + incentive     (independence must hold,
      fitted on rows with response == 1)
  c3: response  ~ Z            vs  + witness       (dependence must hold)
  c4: response  ~ treatment, Z vs  + witness       (independence must hold)

``run_condition`` reads a row as a one-degree-of-freedom likelihood-ratio
test; the search's d-separation oracle reads the same rows as graph
queries. A condition "passes" when the observed verdict matches the
required one at level alpha.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, subset_observed
from .glm import CiTestResult, GlmError, design_matrix, fit_glm, \
    likelihood_ratio_test

C1, C2, C3, C4 = "C1", "C2", "C3", "C4"


@dataclass(frozen=True)
class Condition:
    endpoint: str               # RoleMap attribute of the endpoint
    given: tuple[str, ...]      # RoleMap attributes conditioned on ahead of Z
    added: str | None           # RoleMap attribute tested; None: the witness
    respondents_only: bool
    requires_dependence: bool   # pass verdict: dependence (p < alpha)


CONDITIONS = {
    C1: Condition("response", (), "incentive", False, True),
    C2: Condition("treatment", ("outcome",), "incentive", True, False),
    C3: Condition("response", (), None, False, True),
    C4: Condition("response", ("treatment",), None, False, False),
}


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
        wants_dependence = CONDITIONS[self.condition].requires_dependence
        return self.result.independent != wants_dependence

    def to_dict(self) -> dict:
        return {**asdict(self), "adjustment": list(self.adjustment),
                "passed": self.passed}


def run_condition(condition: str, ds: Dataset, W, Z, alpha: float,
                  observed: Dataset | None = None,
                  null_fits: dict | None = None) -> ConditionRecord:
    """Test one row of ``CONDITIONS`` for witness W (None for a row that
    tests a role) and adjustment set Z.

    ``observed`` is ``subset_observed(ds)``, for a caller that runs many
    respondents-only tests on one dataset and slices its respondents once.
    ``null_fits`` is a dict, keyed on ``(condition, Z)``, that holds the
    null fits of earlier calls on ``ds``, for a caller that tests many
    witnesses against one Z: the null design does not involve the witness,
    and a fit found there is the one this call would compute.
    """
    cond = CONDITIONS[condition]
    roles = ds.roles
    Z = tuple(Z)
    if (W is None) != (cond.added is not None):
        raise GlmError(f"condition {condition} takes "
                       f"{'no' if cond.added else 'a'} witness, got {W!r}")
    _check_adjustment(roles, W, Z)
    rows = ds
    if cond.respondents_only:
        rows = subset_observed(ds) if observed is None else observed
        if rows.n_rows == 0:
            raise DegenerateDataError("no rows with response == 1")
    name = getattr(roles, cond.endpoint)
    endpoint = rows.column(name)
    if endpoint.size == 0:
        raise DegenerateDataError(f"no rows available for endpoint {name!r}")
    if endpoint.min() == endpoint.max():
        raise DegenerateDataError(f"endpoint column {name!r} is constant")
    base = ([rows.column(getattr(roles, g)) for g in cond.given]
            + [rows.column(z) for z in Z])
    added = rows.column(W if cond.added is None else getattr(roles, cond.added))
    n = endpoint.size
    null_fits = {} if null_fits is None else null_fits
    if (condition, Z) not in null_fits:
        null_fits[condition, Z] = fit_glm(endpoint, design_matrix(n, *base))
    null_fit = null_fits[condition, Z]
    # start the full fit at the null optimum with the added coefficient at 0;
    # under the null hypothesis that is a few steps from the full optimum
    full_fit = fit_glm(endpoint, design_matrix(n, *base, added),
                       start=np.append(null_fit.coefficients, 0.0))
    return ConditionRecord(condition, W, Z,
                           likelihood_ratio_test(null_fit, full_fit, alpha))


def test_c1(ds: Dataset, alpha: float) -> ConditionRecord:
    """Incentive must be associated with the response indicator."""
    return run_condition(C1, ds, None, (), alpha)


def test_c2(ds: Dataset, Z, alpha: float,
            observed: Dataset | None = None) -> ConditionRecord:
    """Treatment must be independent of the incentive given the outcome and
    Z among respondents."""
    return run_condition(C2, ds, None, Z, alpha, observed)


def test_c3(ds: Dataset, W: str, Z, alpha: float,
            null_fits: dict | None = None) -> ConditionRecord:
    """Witness W must be associated with the response given Z."""
    return run_condition(C3, ds, W, Z, alpha, null_fits=null_fits)


def test_c4(ds: Dataset, W: str, Z, alpha: float,
            null_fits: dict | None = None) -> ConditionRecord:
    """Witness W must be independent of the response given treatment and Z."""
    return run_condition(C4, ds, W, Z, alpha, null_fits=null_fits)


def _check_adjustment(roles, W, Z):
    for z in Z:
        if z not in roles.covariates:
            raise GlmError(f"adjustment column {z!r} is not a covariate")
    if W is not None:
        if W in Z:
            raise GlmError(f"witness {W!r} may not appear in the adjustment set")
        if W not in roles.covariates:
            raise GlmError(f"witness {W!r} is not a covariate")
