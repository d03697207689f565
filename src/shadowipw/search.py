"""Exhaustive search for a witness covariate and adjustment set.

The search first gates on condition C1. It then iterates the witness W over
the covariates in dataset order and, for each W, iterates candidate subsets
Z of the remaining covariates by ascending size and lexicographic order of
column positions, accepting the first (W, Z) for which C2, C3, and C4 all
pass (evaluated in that order with short-circuiting).

The condition backend is pluggable: LrtTester runs the likelihood-ratio
tests on the dataset; GraphOracleTester answers from d-separation on a
known generating graph, with pass/fail encoded as p-values 1.0/0.0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import citest
from .citest import C1, C2, C3, C4, ConditionRecord, DegenerateDataError
from .data import Dataset, RoleMap
from .glm import CiTestResult
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
    tests_run: int

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

    C2 does not involve the witness, so its result is memoized per
    adjustment set; the search revisits the same Z under different
    witnesses on exhaustive runs. C2's respondent rows are sliced once, at
    the first C2 test.
    """

    def __init__(self, ds: Dataset):
        self.ds = ds
        self._observed: Dataset | None = None
        self._c2_memo: dict[tuple, ConditionRecord] = {}

    def c1(self, alpha):
        return citest.test_c1(self.ds, alpha)

    def c2(self, Z, alpha):
        key = (tuple(Z), alpha)
        if key not in self._c2_memo:
            if self._observed is None:
                self._observed = citest.subset_observed(self.ds)
            self._c2_memo[key] = citest.test_c2(self.ds, Z, alpha,
                                                self._observed)
        return self._c2_memo[key]

    def c3(self, W, Z, alpha):
        return citest.test_c3(self.ds, W, Z, alpha)

    def c4(self, W, Z, alpha):
        return citest.test_c4(self.ds, W, Z, alpha)


class GraphOracleTester:
    """d-separation backend over a known generating DAG.

    Node names for treatment/outcome/response/incentive are taken from the
    RoleMap, so oracle answers line up with dataset columns.
    """

    def __init__(self, graph: Dag, roles: RoleMap):
        self.graph = graph
        self.roles = roles

    def _record(self, condition, witness, Z, dependent: bool, alpha):
        # encode a certain verdict as a degenerate test result
        p = 0.0 if dependent else 1.0
        result = CiTestResult(statistic=float("inf") if dependent else 0.0,
                              df=1, p_value=p, independent=not dependent,
                              alpha=alpha)
        return ConditionRecord(condition, witness, tuple(Z), result)

    def c1(self, alpha):
        dep = not self.graph.d_separated(self.roles.incentive,
                                         self.roles.response)
        return self._record(C1, None, (), dep, alpha)

    def c2(self, Z, alpha):
        given = (self.roles.outcome, self.roles.response, *Z)
        dep = not self.graph.d_separated(self.roles.treatment,
                                         self.roles.incentive, given)
        return self._record(C2, None, Z, dep, alpha)

    def c3(self, W, Z, alpha):
        dep = not self.graph.d_separated(W, self.roles.response, tuple(Z))
        return self._record(C3, W, Z, dep, alpha)

    def c4(self, W, Z, alpha):
        given = (self.roles.treatment, *Z)
        dep = not self.graph.d_separated(W, self.roles.response, given)
        return self._record(C4, W, Z, dep, alpha)


def enumerate_subsets(items, size: int):
    """All size-``size`` subsets of ``items`` in lexicographic order of the
    original positions."""
    items = tuple(items)
    if size > len(items):
        raise ValueError(f"subset size {size} exceeds {len(items)} items")
    return [frozenset(c) for c in itertools.combinations(items, size)]


def find_adjustment_set(ds: Dataset, alpha: float,
                        max_subset_size: int | None = None,
                        tester=None) -> SearchOutcome:
    """Run the full witness/adjustment-set search on a dataset.

    A test error (degenerate endpoint, empty subset) aborts only the
    candidate that raised it; the error is recorded in the trail.
    """
    roles = ds.roles
    if roles is None:
        raise ValueError("dataset has no roles assigned")
    if len(roles.covariates) < 2:
        raise ValueError("search needs at least two covariates "
                         "(a witness plus candidates)")
    if tester is None:
        tester = LrtTester(ds)

    trail: list[ConditionRecord] = []

    c1_record = tester.c1(alpha)
    trail.append(c1_record)
    if not c1_record.passed:
        return SearchOutcome(C1_FAILED, None, None, tuple(trail), len(trail))

    for witness in roles.covariates:
        remaining = tuple(z for z in roles.covariates if z != witness)
        limit = len(remaining)
        if max_subset_size is not None:
            limit = min(limit, max_subset_size)
        for size in range(limit + 1):
            for Z in itertools.combinations(remaining, size):
                candidate_ok = True
                for cond, runner in ((C2, lambda: tester.c2(Z, alpha)),
                                     (C3, lambda: tester.c3(witness, Z, alpha)),
                                     (C4, lambda: tester.c4(witness, Z, alpha))):
                    try:
                        record = runner()
                    except (DegenerateDataError, ValueError) as exc:
                        record = ConditionRecord(
                            cond, None if cond == C2 else witness, Z,
                            None, error=str(exc))
                    trail.append(record)
                    if not record.passed:
                        candidate_ok = False
                        break
                if candidate_ok:
                    return SearchOutcome(FOUND, witness, Z, tuple(trail),
                                         len(trail))
    return SearchOutcome(NOT_FOUND, None, None, tuple(trail), len(trail))
