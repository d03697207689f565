"""Exhaustive search for a witness covariate and adjustment set.

The search first gates on condition C1. It then iterates the witness W over
the covariates in dataset order and, for each W, iterates candidate subsets
Z of the remaining covariates by ascending size and lexicographic order of
column positions, accepting the first (W, Z) for which C2, C3, and C4 all
pass (evaluated in that order with short-circuiting).

A condition backend is any callable ``tester(condition, W, Z, alpha)``
that returns a ``ConditionRecord``. W is the witness for the rows that test
it (C3, C4) and None for the others (C1, C2); C1 gets Z = (). A backend
may raise ValueError; the search then records the error in the trail and
rejects the candidate.

Both backends here read the rows of ``citest.CONDITIONS``, so they cannot
disagree on what a condition conditions on or requires: LrtTester runs
each row as a likelihood-ratio test on the dataset; GraphOracleTester
answers it from d-separation on a known generating graph, with pass/fail
encoded as p-values 1.0/0.0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import citest
from .citest import C1, C2, C3, C4, CONDITIONS, ConditionRecord
from .data import Dataset, RoleMap, is_integer
from .glm import CiTestResult, check_alpha
from .graphs import Dag

FOUND = "found"
NOT_FOUND = "not_found"
C1_FAILED = "c1_failed"


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    witness: str | None
    adjustment_set: tuple[str, ...] | None
    trail: tuple[ConditionRecord, ...]

    @property
    def tests_run(self) -> int:
        return len(self.trail)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": self.witness,
            "adjustment_set": (None if self.adjustment_set is None
                               else list(self.adjustment_set)),
            "tests_run": self.tests_run,
            "trail": [rec.to_dict() for rec in self.trail],
        }


class LrtTester:
    """Likelihood-ratio-test backend over a Dataset.

    All four conditions share one memo of logistic fits, keyed on
    ``(respondents_only, endpoint, design)`` as ``citest`` lists a design,
    so each design the search needs is fitted once. A design's start
    depends on the design alone (``citest``'s two start rules), so a memo
    hit is the fit an uncached ``citest`` call would compute, and the trail
    replays bit for bit. C2 does not involve the witness, so the search
    asks it about the same adjustment set under several witnesses; each
    time, its record is recomputed from the two memoized fits. The memo
    also holds each endpoint's rows as its folded table, under
    ``(respondents_only, endpoint)``: R on all rows, and A on the
    respondents, sliced once at the first C2 test. Every fit gathers its
    design from that table. The memo is the tester's only state and
    lives as long as the tester, one search.
    """

    def __init__(self, ds: Dataset):
        self.ds = ds
        self._fits: dict[tuple, object] = {}

    def __call__(self, condition, W, Z, alpha):
        if condition == C1:
            return citest.test_c1(self.ds, alpha, self._fits)
        if condition == C2:
            return self.c2(Z, alpha)
        if condition == C3:
            return citest.test_c3(self.ds, W, Z, alpha, self._fits)
        return citest.test_c4(self.ds, W, Z, alpha, self._fits)

    def c2(self, Z, alpha):
        return citest.test_c2(self.ds, Z, alpha, self._fits)


class GraphOracleTester:
    """d-separation backend over a known generating DAG.

    It reads the rows of ``citest.CONDITIONS``: a row holds when the tested
    variable and the endpoint are d-separated given the row's roles and Z,
    and a respondents-only row also conditions on the response node. Node
    names for the roles are taken from the RoleMap, so oracle answers line
    up with dataset columns.
    """

    def __init__(self, graph: Dag, roles: RoleMap):
        self.graph = graph
        self.roles = roles

    def __call__(self, condition, W, Z, alpha):
        cond = CONDITIONS[condition]
        roles = self.roles
        given = [getattr(roles, g) for g in cond.given]
        if cond.respondents_only:
            given.append(roles.response)
        added = W if cond.added is None else getattr(roles, cond.added)
        dependent = not self.graph.d_separated(
            added, getattr(roles, cond.endpoint), (*given, *Z))
        # encode a certain verdict as a degenerate test result
        result = CiTestResult(statistic=float("inf") if dependent else 0.0,
                              df=1, p_value=0.0 if dependent else 1.0,
                              independent=not dependent, alpha=alpha)
        return ConditionRecord(condition, W, tuple(Z), result)


def check_search_settings(alpha, max_subset_size=None) -> None:
    """Refuse a test level that ``glm.check_alpha`` refuses, and a
    subset-size bound that is neither None nor an integer >= 0. NumPy
    scalars pass; bools and strings do not."""
    check_alpha(alpha)
    size = max_subset_size
    if size is not None and not is_integer(size, 0):
        raise ValueError("max_subset_size must be an integer >= 0, "
                         f"got {size}")


def find_adjustment_set(ds: Dataset, alpha: float,
                        max_subset_size: int | None = None,
                        tester=None) -> SearchOutcome:
    """Run the full witness/adjustment-set search on a dataset.

    A test error (degenerate endpoint, empty subset) aborts only the
    candidate that raised it; the error is recorded in the trail.
    """
    check_search_settings(alpha, max_subset_size)
    roles = ds.roles
    if len(roles.covariates) < 2:
        raise ValueError("search needs at least two covariates "
                         "(a witness plus candidates)")
    if tester is None:
        tester = LrtTester(ds)

    trail: list[ConditionRecord] = []

    c1_record = tester(C1, None, (), alpha)
    trail.append(c1_record)
    if not c1_record.passed:
        return SearchOutcome(C1_FAILED, None, None, tuple(trail))

    for witness in roles.covariates:
        remaining = tuple(z for z in roles.covariates if z != witness)
        limit = len(remaining)
        if max_subset_size is not None:
            limit = min(limit, max_subset_size)
        for size in range(limit + 1):
            for Z in itertools.combinations(remaining, size):
                for cond in (C2, C3, C4):
                    W = witness if CONDITIONS[cond].added is None else None
                    try:
                        record = tester(cond, W, Z, alpha)
                    except ValueError as exc:   # DegenerateDataError, GlmError
                        record = ConditionRecord(cond, W, Z, None,
                                                 error=str(exc))
                    trail.append(record)
                    if not record.passed:
                        break
                else:
                    return SearchOutcome(FOUND, witness, Z, tuple(trail))
    return SearchOutcome(NOT_FOUND, None, None, tuple(trail))
