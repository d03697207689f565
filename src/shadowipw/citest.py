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

A test fits two designs, null and full. A design lists the row's given
roles, then its covariates in ``roles.covariates`` order whatever order Z
arrives in, then, for C1 and C2, the tested role last; C3's and C4's
witness is one more covariate. A fit is keyed on ``(respondents_only,
endpoint, design)``, so C3's full design at (W, Z) is its null design at
Z + W, and C1's null R ~ 1 is C3's null at Z = (). The same dict holds,
under ``(respondents_only, endpoint)``, the endpoint's rows as its folded
table (R on all rows, A on the respondents, sliced once): the intercept,
the roles its conditions give or test and every covariate, validated and
folded once by ``glm.fold``. ``_table`` alone stores a table and
``_design_fit`` alone fits a design and stores the fit, on the design's
rows of its table. Each design starts from a start that depends on the
design alone, so a fit is the same whichever test asks for it first:

  (a) no covariates and no tested role (R ~ 1, R ~ A, A ~ Y): zeros;
  (b) with the tested role: its null fit, with the role's coefficient 0;
  (c) C3 and C4, with covariates: the reference fit, the given roles plus
      every covariate fitted from zeros, restricted to the design's
      columns; zeros if the reference raises, does not converge (a
      separated fit does not) or is rank deficient. The reference is the
      full design of the search's first witness at its last candidate;
  (d) C2, with covariates: the fit of the design without its last
      covariate, that covariate's coefficient 0; zeros if that fit raises
      or did not converge. A search tests every shorter prefix before it.

Rule (c) is not used for C2 because C2's reference always holds the
witness the search excludes, so it would be a fit no test needs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, subset_observed
from .glm import CiTestResult, GlmError, fit_glm, fold, \
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
                  fits: dict | None = None) -> ConditionRecord:
    """Test one row of ``CONDITIONS`` for witness W (None for a row that
    tests a role) and adjustment set Z.

    ``fits`` is a dict of the folded tables and fits of earlier calls on
    ``ds``, for a caller that runs many tests on one dataset, such as a
    search: a respondents-only row's table slices the respondents once per
    dict. Every design is fitted from a start that depends on the design
    alone (see the module docstring), so a fit found there is the one this
    call would compute. The record keeps Z in the caller's order.
    """
    cond = CONDITIONS[condition]
    roles = ds.roles
    Z = tuple(Z)
    if (W is None) != (cond.added is not None):
        raise GlmError(f"condition {condition} takes "
                       f"{'no' if cond.added else 'a'} witness, got {W!r}")
    roles.check_adjustment(Z, W)
    fits = {} if fits is None else fits
    y = _table(fits, ds, cond)[1].y
    name = getattr(roles, cond.endpoint)
    if cond.respondents_only and y.size == 0:
        raise DegenerateDataError("no rows with response == 1")
    if y.size == 0:
        raise DegenerateDataError(f"no rows available for endpoint {name!r}")
    if y.min() == y.max():
        raise DegenerateDataError(f"endpoint column {name!r} is constant")
    given = tuple(getattr(roles, g) for g in cond.given)
    null = given + tuple(c for c in roles.covariates if c in Z)
    if cond.added is None:
        full = given + tuple(c for c in roles.covariates if c in Z or c == W)
    else:
        full = null + (getattr(roles, cond.added),)
    null_fit = _design_fit(fits, ds, cond, null)
    full_fit = _design_fit(fits, ds, cond, full)
    return ConditionRecord(condition, W, Z,
                           likelihood_ratio_test(null_fit, full_fit, alpha))


def _table(fits: dict, ds: Dataset, cond: Condition):
    """The folded table of ``cond``'s endpoint, from ``fits`` or built and
    stored there under ``(respondents_only, endpoint)``: on the endpoint's
    rows (the respondents for a respondents-only row), the intercept, every
    covariate and every role that a condition on the endpoint gives or
    tests, validated and folded once by ``glm.fold``. Returns the column
    names after the intercept and the table."""
    roles = ds.roles
    key = (cond.respondents_only, getattr(roles, cond.endpoint))
    if key not in fits:
        rows = subset_observed(ds) if cond.respondents_only else ds
        names = roles.covariates + tuple(
            getattr(roles, role) for c in CONDITIONS.values()
            if (c.respondents_only, c.endpoint) ==
            (cond.respondents_only, cond.endpoint)
            for role in (*c.given, c.added) if role)
        y = rows.column(key[1])
        fits[key] = names, fold(y, np.vstack([np.ones(y.size),
                                              *map(rows.column, names)]))
    return fits[key]


def _design_fit(fits: dict, ds: Dataset, cond: Condition, design):
    """The fit of ``cond``'s endpoint on ``design`` (column names after the
    intercept): from ``fits``, or fitted from the design's start on the
    design's rows of the endpoint's table and stored there under
    ``(respondents_only, endpoint, design)``."""
    key = (cond.respondents_only, getattr(ds.roles, cond.endpoint), design)
    if key not in fits:
        start = _start(fits, ds, cond, design)
        names, table = _table(fits, ds, cond)
        columns = [0, *(1 + names.index(c) for c in design)]
        fits[key] = fit_glm(table.y, table.take(columns), start=start)
    return fits[key]


def _start(fits: dict, ds: Dataset, cond: Condition, design):
    # the start rules (a)-(d) of the module docstring; None means zeros
    roles = ds.roles
    given = len(cond.given)
    tested = cond.added and getattr(roles, cond.added)
    if design[-1:] == (tested,):
        # (b): the tested role joins its null fit at 0
        null_fit = _design_fit(fits, ds, cond, design[:-1])
        return np.append(null_fit.coefficients, 0.0)
    if len(design) == given:
        return None                                               # (a)
    if cond.added is None:
        # (c): the reference, restricted to the design's columns
        reference = design[:given] + roles.covariates
        if design == reference:
            return None
        try:
            ref = _design_fit(fits, ds, cond, reference)
        except ValueError:
            return None
        if not ref.converged or ref.rank_deficient:
            return None
        keep = [*range(1 + given), *(1 + given + roles.covariates.index(c)
                                     for c in design[given:])]
        return ref.coefficients[keep]
    # (d): the design without its last covariate, at 0. The prefixes are
    # fitted shortest first, so each one's own rule (d) finds its shorter
    # prefixes stored and no call recurses more than one level; a prefix
    # that raises is tried again at each level and gives zeros each time
    start = None
    for j in range(given, len(design)):
        try:
            prefix = _design_fit(fits, ds, cond, design[:j])
        except ValueError:
            start = None
            continue
        start = (np.append(prefix.coefficients, 0.0) if prefix.converged
                 else None)
    return start


def test_c1(ds: Dataset, alpha: float,
            fits: dict | None = None) -> ConditionRecord:
    """Incentive must be associated with the response indicator."""
    return run_condition(C1, ds, None, (), alpha, fits=fits)


def test_c2(ds: Dataset, Z, alpha: float,
            fits: dict | None = None) -> ConditionRecord:
    """Treatment must be independent of the incentive given the outcome and
    Z among respondents."""
    return run_condition(C2, ds, None, Z, alpha, fits)


def test_c3(ds: Dataset, W: str, Z, alpha: float,
            fits: dict | None = None) -> ConditionRecord:
    """Witness W must be associated with the response given Z."""
    return run_condition(C3, ds, W, Z, alpha, fits=fits)


def test_c4(ds: Dataset, W: str, Z, alpha: float,
            fits: dict | None = None) -> ConditionRecord:
    """Witness W must be independent of the response given treatment and Z."""
    return run_condition(C4, ds, W, Z, alpha, fits=fits)
