"""Synthetic data generators with counterfactual oracle columns.

The main generator draws four correlated gaussian covariates, a randomized
gaussian incentive, binary treatment and outcome from logistic structural
equations, and a response indicator from the odds-ratio-factorized
propensity. All structural probabilities are clipped into [0.01, 0.99].

Two negative variants break identification: ``add_a_to_ry`` adds a direct
treatment effect on the response, and ``hide_w4`` drops the fourth
covariate from the emitted data (it still drives generation).

Columns are drawn from per-variable counter-based RNG substreams so that
scenario toggles leave the shared noise untouched, which keeps scenario
comparisons paired, and ``true_ace`` draws only the covariate and outcome
streams. Counterfactual outcome columns reuse the outcome's noise, so they
hold all exogenous noise fixed per unit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .data import Dataset, RoleMap
from .glm import expit
from .graphs import Dag

SCENARIO_BASE = "base"
SCENARIO_ADD_A_TO_RY = "add_a_to_ry"
SCENARIO_HIDE_W4 = "hide_w4"
SCENARIOS = (SCENARIO_BASE, SCENARIO_ADD_A_TO_RY, SCENARIO_HIDE_W4)

ORACLE_COMPLETE = "Y_complete"
ORACLE_ARM1 = "Y_arm1"
ORACLE_ARM0 = "Y_arm0"

# substream ids for the counter-based generator
_STREAM_W, _STREAM_I, _STREAM_A, _STREAM_Y, _STREAM_R = 1, 2, 3, 4, 5


@dataclass(frozen=True)
class DgpConfig:
    n: int = 10000
    seed: int = 0
    sigma: tuple = ((1.2, 0.0, 0.0, 0.0),
                    (0.0, 1.0, 0.4, 0.4),
                    (0.0, 0.4, 1.0, 0.3),
                    (0.0, 0.4, 0.3, 1.0))
    coef_a: tuple = (0.52, 2.0, 2.0, 2.0, 2.0)   # intercept, W1..W4
    coef_y: tuple = (3.0, 2.0, 2.0, 2.0)         # A, W2, W3, W4 (no intercept)
    coef_r_ref: tuple = (1.0, 1.0, 1.0, 0.5)     # W2, W3, W4, I
    gamma_true: float = -1.5
    incentive_variance: float = 2.0
    prob_clip: tuple = (0.01, 0.99)
    scenario: str = SCENARIO_BASE
    a_to_ry_coef: float = 1.5

    def __post_init__(self):
        # normalize array-likes to nested tuples so configs stay hashable
        object.__setattr__(self, "sigma",
                           tuple(tuple(float(v) for v in row)
                                 for row in self.sigma))
        for name in ("coef_a", "coef_y", "coef_r_ref", "prob_clip"):
            object.__setattr__(self, name,
                               tuple(float(v) for v in getattr(self, name)))
        if (isinstance(self.n, bool)
                or not isinstance(self.n, (int, np.integer)) or self.n < 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        lo, hi = self.prob_clip
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError(f"invalid probability clip ({lo}, {hi})")


def default_config(**overrides) -> DgpConfig:
    """The simulation-study configuration; keyword overrides allowed."""
    return replace(DgpConfig(), **overrides) if overrides else DgpConfig()


def _rng(seed: int, stream: int) -> np.random.Generator:
    key = (int(seed) % (1 << 64)) + (stream << 64)
    return np.random.Generator(np.random.Philox(key=key))


def roles_for(config: DgpConfig) -> RoleMap:
    covariates = ("W1", "W2", "W3") if config.scenario == SCENARIO_HIDE_W4 \
        else ("W1", "W2", "W3", "W4")
    return RoleMap(treatment="A", outcome="Y", response="R", incentive="I",
                   covariates=covariates)


def _covariates_and_arms(config: DgpConfig):
    """The covariates W and the two potential-outcome arms, drawn from the
    W and Y streams alone; both arms share the outcome's noise."""
    n, seed, cb = config.n, config.seed, config.prob_clip
    sigma = np.asarray(config.sigma, dtype=float)
    chol = np.linalg.cholesky(sigma)   # raises on a non-PD sigma
    W = _rng(seed, _STREAM_W).standard_normal((n, sigma.shape[0])) @ chol.T
    cy = np.asarray(config.coef_y)
    w234 = W[:, 1:] @ cy[1:]
    u_y = _rng(seed, _STREAM_Y).uniform(size=n)
    y_arm1 = (u_y < np.clip(expit(cy[0] * 1.0 + w234), *cb)).astype(float)
    y_arm0 = (u_y < np.clip(expit(cy[0] * 0.0 + w234), *cb)).astype(float)
    return W, y_arm1, y_arm0


def generate(config: DgpConfig) -> Dataset:
    """Draw a Dataset from the structural equations.

    Emits observed columns (covariates, incentive, treatment, outcome with
    missing cells, response) plus oracle-only columns: the complete outcome
    and the two counterfactual outcomes.
    """
    n, seed, cb = config.n, config.seed, config.prob_clip
    W, y_arm1, y_arm0 = _covariates_and_arms(config)
    incentive = _rng(seed, _STREAM_I).normal(
        0.0, np.sqrt(config.incentive_variance), n)

    ca = np.asarray(config.coef_a)
    p_a = np.clip(expit(ca[0] + W @ ca[1:]), *cb)
    a = (_rng(seed, _STREAM_A).uniform(size=n) < p_a).astype(float)
    y_complete = np.where(a == 1.0, y_arm1, y_arm0)

    cr = np.asarray(config.coef_r_ref)
    ref_logit = W[:, 1:] @ cr[:3] + cr[3] * incentive
    if config.scenario == SCENARIO_ADD_A_TO_RY:
        ref_logit = ref_logit + config.a_to_ry_coef * a
    pi0 = np.clip(expit(ref_logit), *cb)
    eta = np.exp(config.gamma_true * y_complete)
    p_r = pi0 / (pi0 + eta * (1.0 - pi0))
    r = (_rng(seed, _STREAM_R).uniform(size=n) < p_r).astype(float)

    y_observed = np.where(r == 1.0, y_complete, np.nan)

    columns = {"W1": W[:, 0], "W2": W[:, 1], "W3": W[:, 2], "W4": W[:, 3],
               "I": incentive, "A": a, "Y": y_observed, "R": r,
               ORACLE_COMPLETE: y_complete, ORACLE_ARM1: y_arm1,
               ORACLE_ARM0: y_arm0}
    if config.scenario == SCENARIO_HIDE_W4:
        del columns["W4"]
    oracle = (ORACLE_COMPLETE, ORACLE_ARM1, ORACLE_ARM0)
    return Dataset(columns, roles_for(config), oracle)


@lru_cache(maxsize=32, typed=True)   # so a cached 1000 cannot answer 1000.0
def true_ace(config: DgpConfig, n_oracle: int = 1_000_000) -> float:
    """Ground-truth ACE: the mean counterfactual contrast over ``n_oracle``
    units with per-unit noise held fixed across arms.

    Draws only the covariate (W) and outcome (Y) streams, under the base
    scenario; no incentive, treatment or response is drawn. The two arms
    are those ``generate`` returns as ``Y_arm1`` and ``Y_arm0`` for the
    same config at ``n=n_oracle``, bit for bit.
    """
    _, y_arm1, y_arm0 = _covariates_and_arms(
        replace(config, n=n_oracle, scenario=SCENARIO_BASE))
    return float(np.mean(y_arm1 - y_arm0))


def scenario_graph(scenario: str = SCENARIO_BASE) -> Dag:
    """The generating DAG for a scenario, with correlated covariate errors
    expanded into latent parent nodes."""
    edges = [("U23", "W2"), ("U23", "W3"), ("U24", "W2"), ("U24", "W4"),
             ("U34", "W3"), ("U34", "W4"),
             ("W1", "A"), ("W2", "A"), ("W3", "A"), ("W4", "A"),
             ("A", "Y"), ("W2", "Y"), ("W3", "Y"), ("W4", "Y"),
             ("Y", "R"), ("W2", "R"), ("W3", "R"), ("W4", "R"),
             ("I", "R")]
    if scenario == SCENARIO_ADD_A_TO_RY:
        edges.append(("A", "R"))
    elif scenario not in (SCENARIO_BASE, SCENARIO_HIDE_W4):
        # hide_w4 drops W4 from the data only; the graph keeps it
        raise ValueError(f"unknown scenario {scenario!r}")
    return Dag(tuple(edges))


# ---------------------------------------------------------------------------
# A small three-covariate example system with two latent confounders, used
# in tests: the search should land on witness W3 with adjustment {W1, W2}.

EXAMPLE_COEFS = {
    "w1_u": 1.2, "w2_u": 1.5, "a_u2": 2.0, "a_w3": 1.5,
    "y_a": 2.0, "y_w2": 2.0, "r_w1": 1.2, "r_i": 0.7, "r_y": 1.5,
}


def example_graph() -> Dag:
    edges = (("U1", "W1"), ("U1", "W2"), ("U2", "W1"), ("U2", "A"),
             ("W3", "A"), ("A", "Y"), ("W2", "Y"), ("Y", "R"),
             ("W1", "R"), ("I", "R"))
    return Dag(edges)


def example_roles() -> RoleMap:
    return RoleMap(treatment="A", outcome="Y", response="R", incentive="I",
                   covariates=("W1", "W2", "W3"))


def generate_example(n: int, seed: int) -> Dataset:
    """Sample the example system; coefficients are strong enough that the
    canonical search narrative holds with high probability at n of 20000."""
    c = EXAMPLE_COEFS
    u1 = _rng(seed, 11).standard_normal(n)
    u2 = _rng(seed, 12).standard_normal(n)
    e = _rng(seed, 13).standard_normal((n, 3))
    w1 = c["w1_u"] * (u1 + u2) + 0.5 * e[:, 0]
    w2 = c["w2_u"] * u1 + 0.5 * e[:, 1]
    w3 = e[:, 2]
    incentive = _rng(seed, _STREAM_I).normal(0.0, np.sqrt(2.0), n)
    a = (_rng(seed, _STREAM_A).uniform(size=n) <
         expit(c["a_u2"] * u2 + c["a_w3"] * w3)).astype(float)
    y = (_rng(seed, _STREAM_Y).uniform(size=n) <
         expit(c["y_a"] * a + c["y_w2"] * w2 - 0.5)).astype(float)
    r = (_rng(seed, _STREAM_R).uniform(size=n) <
         expit(c["r_w1"] * w1 + c["r_i"] * incentive + c["r_y"] * y)).astype(float)
    columns = {"W1": w1, "W2": w2, "W3": w3, "I": incentive, "A": a,
               "Y": np.where(r == 1.0, y, np.nan), "R": r}
    return Dataset(columns, example_roles())
