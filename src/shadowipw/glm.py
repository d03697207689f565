"""Logistic regression and likelihood-ratio tests.

This is the statistical engine behind the conditional-independence tests.
Logistic fits use iteratively reweighted least squares with step-halving.
As in R's ``glm.fit``, each iteration evaluates the log-likelihood once, at
the candidate step, and carries it forward; a step is kept when it lowers
the log-likelihood by no more than a bound scaled to |ll|, the rounding
error of a sum over many rows. A fit may be warm-started, as the full fit
of a likelihood-ratio test is from its null fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# L2 coefficient norm beyond which a logistic fit is treated as separated
SEPARATION_NORM = 30.0
MAX_ITER = 50    # IRLS iterations
TOL = 1e-8       # converged when the score max-norm is below this


class GlmError(ValueError):
    """Raised on invalid designs or test preconditions."""


@dataclass(frozen=True)
class GlmFit:
    coefficients: np.ndarray
    log_likelihood: float
    converged: bool
    iterations: int
    n_obs: int
    separated: bool = False
    rank_deficient: bool = False

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(y=1 | X)."""
        eta = np.clip(np.asarray(X) @ self.coefficients, -500.0, 500.0)
        return expit(eta)


@dataclass(frozen=True)
class CiTestResult:
    statistic: float
    df: int
    p_value: float
    independent: bool
    alpha: float


def expit(x):
    """The logistic function 1 / (1 + exp(-x)), elementwise.

    Below x = -709, exp(-x) overflows to inf and the result is 0.0; that
    overflow is expected, so it raises no warning.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def chi_square_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of the chi-square distribution with df degrees
    of freedom, a positive integer.

    This is the regularized upper incomplete gamma function Q(df/2, x/2)
    in closed form: Q(1/2, h) = erfc(sqrt(h)) and Q(1, h) = exp(-h), stepped
    up by Q(a+1, h) = Q(a, h) + h^a e^-h / Gamma(a+1). Every step adds a
    nonnegative term, so no digits cancel.
    """
    if x < 0:
        raise GlmError(f"chi-square statistic must be >= 0, got {x}")
    if df <= 0 or df != int(df):
        raise GlmError(f"degrees of freedom must be a positive integer, "
                       f"got {df}")
    if math.isinf(x):
        return 0.0
    h = x / 2.0
    if df % 2:
        # term is h^a e^-h / Gamma(a+1), and Gamma(3/2) = sqrt(pi)/2
        a, q = 0.5, math.erfc(math.sqrt(h))
        term = 2.0 * math.sqrt(h / math.pi) * math.exp(-h)
    else:
        a, q, term = 1.0, math.exp(-h), h * math.exp(-h)
    while a < df / 2.0:
        q += term
        a += 1.0
        term *= h / a
    return q


def _logistic_ll(y: np.ndarray, eta: np.ndarray) -> float:
    # sum y*eta - log(1 + exp(eta)); the softplus is written in a form that
    # is stable at both tails
    softplus = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))
    return float(y @ eta - np.sum(softplus))


def _linear_predictor(beta, Xt):
    return np.clip(beta @ Xt, -500.0, 500.0)


def _fit_logistic(y, Xt, start):
    # Xt is the design transposed (p x n, C-contiguous): one row per
    # coefficient, so every product below runs over contiguous rows
    p = Xt.shape[0]
    beta = np.zeros(p) if start is None else start
    eta = _linear_predictor(beta, Xt)
    ll = _logistic_ll(y, eta)
    rank_deficient = False
    # a constant response has its maximum at infinite coefficients; the
    # iterations below stop at a finite capped iterate, so flag it up front
    separated = y.min() == y.max()
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        mu = expit(eta)
        score = Xt @ (y - mu)
        # the first pass always builds a Newton system, where a singular
        # design shows, even when a warm start begins at the optimum
        if iterations > 1 and np.max(np.abs(score)) < TOL:
            converged = True
            iterations -= 1
            break
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        z = eta + (y - mu) / w
        Xw = Xt * w
        gram = Xw @ Xt.T
        if iterations == 1:
            # the design is rank deficient when the gram's smallest
            # eigenvalue is within the rounding error of its sums over rows
            eig = np.linalg.eigvalsh(gram)
            rounding = eig[-1] * y.size * np.finfo(float).eps
            rank_deficient = bool(eig[0] <= rounding)
        if not rank_deficient:
            try:
                solution = np.linalg.solve(gram, Xw @ z)
            except np.linalg.LinAlgError:
                rank_deficient = True
        if rank_deficient:
            # singular gram matrix: use the minimum-norm solution
            sw = np.sqrt(w)
            solution = np.linalg.lstsq((Xt * sw).T, z * sw, rcond=None)[0]
        # step-halving: never accept a step that decreases the likelihood by
        # more than the rounding error of its sum over rows, which grows
        # with |ll|
        floor = ll - 1e-12 * max(1.0, abs(ll))
        step = solution - beta
        for _ in range(20):
            cand = beta + step
            eta_cand = _linear_predictor(cand, Xt)
            ll_cand = _logistic_ll(y, eta_cand)
            if ll_cand >= floor:
                break
            step = step / 2.0
        else:
            # no checked step keeps the likelihood, so none is applied
            iterations -= 1
            break
        beta, eta, ll = cand, eta_cand, ll_cand
        if np.linalg.norm(beta) > SEPARATION_NORM:
            separated = True
            break
    if separated:
        converged = False
    return GlmFit(beta, ll, bool(converged), iterations, y.size,
                  bool(separated), rank_deficient)


def fit_glm(y, X, start=None) -> GlmFit:
    """Logistic fit of a 0/1 response y on the design matrix X (intercept
    column included by caller).

    The fit runs IRLS until the score max-norm drops below ``TOL``.
    Each iteration evaluates the log-likelihood once, at the candidate
    step, and carries it forward. A step is halved (up to 20 times) while
    it lowers the log-likelihood by more than ``1e-12 * max(1, |ll|)``,
    a bound scaled to the rounding error of a sum over many rows; if no
    halving passes, the fit stops where it is. Coefficient L2 norm above
    30 is flagged as separation and stops the fit with ``converged=False``
    (the capped likelihood is still reported so downstream tests keep
    running). A design is flagged rank deficient when the smallest
    eigenvalue of its weighted gram matrix is within ``n * eps`` of the
    largest, or the gram cannot be solved; such fits use the minimum-norm
    solution.

    ``start`` gives initial coefficients (default zeros), such as
    a nested fit's coefficients with zeros appended. It only saves
    iterations: a warm-started fit that does not converge is repeated from
    zeros, so its flags and capped likelihood never depend on ``start``.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise GlmError(f"incompatible shapes y{y.shape} X{X.shape}")
    if np.isnan(y).any() or np.isnan(X).any():
        raise GlmError("fit_glm requires fully observed y and X")
    n, p = X.shape
    if n <= p:
        raise GlmError(f"need more observations ({n}) than coefficients ({p})")
    if start is not None:
        start = np.array(start, dtype=float)
        if start.shape != (p,) or not np.isfinite(start).all():
            raise GlmError(f"start must hold {p} finite coefficients, "
                           f"got shape {start.shape}")
    if not np.isin(y, (0.0, 1.0)).all():
        raise GlmError("logistic regression requires a 0/1 response")
    # free when X is column-major, as design_matrix builds it
    Xt = np.ascontiguousarray(X.T)
    fit = _fit_logistic(y, Xt, start)
    if start is not None and not fit.converged:
        fit = _fit_logistic(y, Xt, None)
    return fit


def likelihood_ratio_test(null_fit: GlmFit, full_fit: GlmFit,
                          alpha: float) -> CiTestResult:
    """Chi-square LRT of nested fits; ``independent`` means p_value >= alpha.

    The statistic 2*(ll_full - ll_null) is clamped at zero, which absorbs
    round-off on identical designs.
    """
    if null_fit.n_obs != full_fit.n_obs:
        raise GlmError(f"fits use different sample sizes "
                       f"({null_fit.n_obs} vs {full_fit.n_obs})")
    df = full_fit.coefficients.size - null_fit.coefficients.size
    if df < 0:
        raise GlmError("full design must extend the null design")
    statistic = max(0.0, 2.0 * (full_fit.log_likelihood -
                                null_fit.log_likelihood))
    if df == 0:
        # identical designs: the test degenerates to statistic 0, p-value 1
        if statistic > 1e-6:
            raise GlmError("designs have equal size but different likelihoods;"
                           " they are not nested")
        return CiTestResult(statistic=0.0, df=0, p_value=1.0,
                            independent=True, alpha=alpha)
    p_value = chi_square_sf(statistic, df)
    return CiTestResult(statistic=statistic, df=df, p_value=p_value,
                        independent=p_value >= alpha, alpha=alpha)


def design_matrix(n: int, *columns) -> np.ndarray:
    """Stack an intercept column ahead of the given regressor columns."""
    # column-major, so that fit_glm's transposed view of it needs no copy
    return np.vstack([np.ones(n), *columns]).T
