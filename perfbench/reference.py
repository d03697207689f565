"""Reference computations the benchmark checks shadowipw's outputs against.

Each function is written from the model's definition, not from the
package's code: its own logistic maximum-likelihood fit, its own
odds-ratio propensity, and quadrature instead of simulation for the true
effect. Only NumPy and SciPy's chi-square tail are used.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import chi2

# C1 and C3 certify a dependence, C2 and C4 an independence
REQUIRES_DEPENDENCE = {"C1": True, "C2": False, "C3": True, "C4": False}


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def logistic_max_loglik(y, X, max_iter=100):
    """Maximised log-likelihood of a logistic regression of y on X.

    Newton's method with a backtracking line search, stopped when the
    Newton decrement falls below 1e-20 (far inside any tolerance the
    checks use)."""
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)

    def loglik(beta):
        eta = X @ beta
        return float(np.sum(y * eta - _softplus(eta)))

    beta = np.zeros(X.shape[1])
    ll = loglik(beta)
    for _ in range(max_iter):
        mu = _sigmoid(X @ beta)
        grad = X.T @ (y - mu)
        hess = (X * (mu * (1.0 - mu))[:, None]).T @ X
        step = np.linalg.solve(hess, grad)
        if float(grad @ step) < 1e-20:
            break
        t = 1.0
        while t > 1e-10:
            cand = loglik(beta + t * step)
            if cand >= ll:
                break
            t /= 2.0
        if t <= 1e-10:
            break
        beta, ll = beta + t * step, cand
    return ll


def _design(n, columns):
    return np.column_stack([np.ones(n), *columns])


def lrt(column, roles, condition, witness, Z):
    """The likelihood-ratio statistic and p-value of one identification
    condition, fitted from scratch.

    ``column(name)`` returns a data column; ``roles`` names the treatment,
    outcome, response and incentive columns. The conditions are
      C1: response ~ 1 + incentive
      C2: treatment ~ outcome + Z + incentive, among respondents
      C3: response ~ Z + witness
      C4: response ~ treatment + Z + witness
    each tested against the same model without its last term."""
    Z = [column(z) for z in Z]
    if condition == "C1":
        y, base, added = column(roles.response), [], column(roles.incentive)
    elif condition == "C2":
        obs = column(roles.response) == 1.0
        y = column(roles.treatment)[obs]
        base = [column(roles.outcome)[obs]] + [z[obs] for z in Z]
        added = column(roles.incentive)[obs]
    elif condition == "C3":
        y, base, added = column(roles.response), Z, column(witness)
    elif condition == "C4":
        y = column(roles.response)
        base, added = [column(roles.treatment)] + Z, column(witness)
    else:
        raise ValueError(f"unknown condition {condition!r}")
    null = logistic_max_loglik(y, _design(y.size, base))
    full = logistic_max_loglik(y, _design(y.size, base + [added]))
    statistic = max(0.0, 2.0 * (full - null))
    return statistic, float(chi2.sf(statistic, 1))


def or_propensity(y, Zm, beta, gamma, y_ref):
    """p(R=1 | y, z) = pi0 / (pi0 + exp(gamma (y - y_ref)) (1 - pi0)),
    with pi0 = expit(z . beta)."""
    pi0 = _sigmoid(Zm @ np.asarray(beta, dtype=float))
    odds_ratio = np.exp(gamma * (y - y_ref))
    return pi0 / (pi0 + odds_ratio * (1.0 - pi0))


def estimating_equations(r, y, a, Zm, beta, gamma, y_ref, h_mode):
    """The k+1 sample means of (R / p(R=1 | y, z) - 1) * h, where h is each
    adjustment column followed by the treatment's mean (``a_mean``) or the
    treatment itself (``a_row``)."""
    obs = r == 1.0
    g = np.full(r.size, -1.0)
    g[obs] = 1.0 / or_propensity(y[obs], Zm[obs], beta, gamma, y_ref) - 1.0
    if h_mode == "a_mean":
        h_last = np.full(r.size, a.mean())
    elif h_mode == "a_row":
        h_last = a
    else:
        raise ValueError(f"unknown h mode {h_mode!r}")
    H = np.column_stack([Zm, h_last])
    return H.T @ g / r.size


def double_ipw_ace(r, a, y, Zm, beta, gamma, y_ref, treat_coef,
                   clip=(0.01, 0.99)):
    """Double inverse-probability-weighted ACE: the mean over all n rows of
    R 1[A=arm] Y / (p(R=1 | y, z) p(A=arm | z)), arm 1 minus arm 0, with
    both probabilities clipped into ``clip``."""
    lo, hi = clip
    obs = r == 1.0
    p_r = np.clip(or_propensity(y[obs], Zm[obs], beta, gamma, y_ref), lo, hi)
    X = np.column_stack([np.ones(r.size), Zm])[obs]
    p_treated = _sigmoid(X @ np.asarray(treat_coef, dtype=float))
    a_obs, y_obs = a[obs], y[obs]
    means = []
    for arm, p_arm in ((1.0, p_treated), (0.0, 1.0 - p_treated)):
        w = np.clip(p_arm, lo, hi) * p_r
        means.append(float(np.sum(y_obs[a_obs == arm] / w[a_obs == arm])
                           / r.size))
    return means[0] - means[1]


def true_ace_quadrature(config, nodes=64):
    """E[clip(expit(c_A + X)) - clip(expit(X))] with X ~ N(0, c' Sigma c),
    where c_A is the outcome's treatment coefficient and c its covariate
    coefficients (W1 has none).

    Gauss-Legendre quadrature of the integrand times the normal density on
    [-12, 12] standard deviations, split where a clip bound starts or stops
    binding: the kinks there make Gauss-Hermite converge slowly (off by
    ~4e-5 at 120 nodes)."""
    sigma = np.asarray(config.sigma, dtype=float)
    coef = np.asarray([0.0, *config.coef_y[1:]])
    sd = math.sqrt(float(coef @ sigma @ coef))
    lo, hi = config.prob_clip
    shift = config.coef_y[0]
    kinks = [(math.log(p / (1.0 - p)) - s) / sd
             for p in (lo, hi) if 0.0 < p < 1.0 for s in (0.0, shift)]
    edges = sorted({-12.0, 12.0, *(k for k in kinks if -12.0 < k < 12.0)})
    t, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        x = 0.5 * (b - a) * t + 0.5 * (a + b)
        f = (np.clip(_sigmoid(shift + sd * x), lo, hi)
             - np.clip(_sigmoid(sd * x), lo, hi))
        density = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        total += 0.5 * (b - a) * float(np.sum(w * f * density))
    return total
