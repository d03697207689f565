"""Logistic regression and likelihood-ratio tests.

This is the statistical engine behind the conditional-independence tests.
Logistic fits use Newton's method (IRLS) with step-halving. With s = 2y-1
the response's sign, one ``e = exp(-s*eta)`` per candidate gives the
log-likelihood -sum log(1 + e), the residual y - mu = s*e/(1+e) and the
weight mu(1-mu) = e/(1+e)^2; the accepted candidate's e and log-likelihood
carry into the next iteration, so an iteration whose full step is kept
evaluates exp once. The Newton step solves gram @ step = score. A step is
kept when it lowers the log-likelihood by no more than a bound scaled to
|ll|, the rounding error of a sum over many rows. A fit may be
warm-started; ``citest`` starts each design from a fit of a nested or a
larger design (its start rules (a)-(d)). A fit over more than
``BLOCK_ROWS`` rows forms its score and weighted gram in equal blocks of
rows that stay in cache and sums the blocks' partials, so its last digits
differ from those of a one-pass sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# L2 coefficient norm beyond which a logistic fit is treated as separated
SEPARATION_NORM = 30.0
MAX_ITER = 50    # IRLS iterations
TOL = 1e-8       # converged when the score max-norm is below this
# rows per block of a fit's score and gram passes. A 10^5 x 4 design, its
# weighted copy and the row vectors overflow a 2 MiB L2 cache, while a
# 16,384-row block of them fits. A search's fits have up to 10^4 rows and
# must stay one block: split in two they ran about 10% slower. On 10^5-row,
# four-coefficient fits 16,384 rows did at least as well as 8,192.
BLOCK_ROWS = 16384


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


def _evaluate(beta, Xt, neg_s):
    # the linear predictor at beta, clipped to [-500, 500], and with it
    # e = exp(-s*eta), s = 2y-1 the response's sign, and the log-likelihood
    # -sum log(1 + e): one exp serves the likelihood, the score and the
    # weights. e is at most exp(500), so nothing overflows. exp and log1p
    # bound this pass, not memory, so it runs on all rows at once.
    eta = beta @ Xt
    np.maximum(eta, -500.0, out=eta)
    np.minimum(eta, 500.0, out=eta)
    e = np.exp(neg_s * eta)
    return eta, e, -float(np.sum(np.log1p(e)))


def _score_rows(Xt, e, s, q, r, resid):
    # _fit_logistic's score statements on a block's rows, written in place
    np.divide(1.0, np.add(1.0, e, out=q), out=q)
    np.multiply(e, q, out=r)
    np.multiply(s, r, out=resid)
    return Xt @ resid


def _gram_rows(Xt, r, q, w):
    # _fit_logistic's gram statements on a block's rows, written in place
    np.maximum(np.multiply(r, q, out=w), 1e-10, out=w)
    return (Xt * w) @ Xt.T


def _in_blocks(rows, n_out, Xt, *vectors):
    # runs rows(Xt, *vectors, *outs) on equal blocks of at most BLOCK_ROWS
    # rows, each writing its part of n_out full-length arrays, and returns
    # the arrays and the sum of the blocks' results. A block's rows of the
    # design, of its weighted copy and of every row array stay in cache.
    n = Xt.shape[1]
    outs = [np.empty(n) for _ in range(n_out)]
    total = 0.0
    k = -(-n // BLOCK_ROWS)
    for i in range(k):
        b = slice(i * n // k, (i + 1) * n // k)
        total = total + rows(Xt[:, b], *(v[b] for v in vectors),
                             *(o[b] for o in outs))
    return (*outs, total)


def _fit_logistic(y, Xt, start):
    # Xt is the design transposed (p x n, C-contiguous): one row per
    # coefficient, so every product below runs over contiguous rows
    p = Xt.shape[0]
    s = 2.0 * y - 1.0
    neg_s = -s
    beta = np.zeros(p) if start is None else start
    eta, e, ll = _evaluate(beta, Xt, neg_s)
    rank_deficient = False
    # a constant response has its maximum at infinite coefficients; the
    # iterations below stop at a finite capped iterate, so flag it up front
    separated = y.min() == y.max()
    # a fit of at most BLOCK_ROWS rows runs the score and gram statements
    # on whole arrays: run through the row functions, which allocate in
    # another order, a 10^4 x 5 fit took 6-8% longer
    blocked = y.size > BLOCK_ROWS
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        if blocked:
            q, r, resid, score = _in_blocks(_score_rows, 3, Xt, e, s)
        else:
            # with q = 1/(1+e) the fitted probability of the observed
            # response, y - mu = s*e*q and mu*(1-mu) = e*q*q
            q = 1.0 / (1.0 + e)
            r = e * q
            resid = s * r
            score = Xt @ resid
        # the first pass always builds a Newton system, where a singular
        # design shows, even when a warm start begins at the optimum
        if iterations > 1 and np.max(np.abs(score)) < TOL:
            converged = True
            iterations -= 1
            break
        if blocked:
            w, gram = _in_blocks(_gram_rows, 1, Xt, r, q)
        else:
            w = np.maximum(r * q, 1e-10)
            gram = (Xt * w) @ Xt.T
        if iterations == 1:
            # the design is rank deficient when the gram's smallest
            # eigenvalue is within the rounding error of its sums over rows
            eig = np.linalg.eigvalsh(gram)
            rounding = eig[-1] * y.size * np.finfo(float).eps
            rank_deficient = bool(eig[0] <= rounding)
        if not rank_deficient:
            try:
                step = np.linalg.solve(gram, score)
            except np.linalg.LinAlgError:
                rank_deficient = True
        if rank_deficient:
            # singular gram matrix: the minimum-norm solution of the
            # weighted least-squares problem for the working response z
            sw = np.sqrt(w)
            z = eta + resid / w
            step = np.linalg.lstsq((Xt * sw).T, z * sw, rcond=None)[0] - beta
        # step-halving: never accept a step that decreases the likelihood by
        # more than the rounding error of its sum over rows, which grows
        # with |ll|
        floor = ll - 1e-12 * max(1.0, abs(ll))
        for _ in range(20):
            cand = beta + step
            eta_cand, e_cand, ll_cand = _evaluate(cand, Xt, neg_s)
            if ll_cand >= floor:
                break
            step = step / 2.0
        else:
            # no checked step keeps the likelihood, so none is applied
            iterations -= 1
            break
        beta, eta, e, ll = cand, eta_cand, e_cand, ll_cand
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

    The fit takes Newton steps, the solution of ``gram @ step = score``
    with ``gram = X' W X``, until the score max-norm drops below ``TOL``.
    Each candidate evaluates one ``exp(-s*eta)``, s = 2y-1, from which
    come its log-likelihood and, once it is accepted, the next score and
    weights. A step is halved (up to 20 times) while
    it lowers the log-likelihood by more than ``1e-12 * max(1, |ll|)``,
    a bound scaled to the rounding error of a sum over many rows; if no
    halving passes, the fit stops where it is. Coefficient L2 norm above
    30 is flagged as separation and stops the fit with ``converged=False``
    (the capped likelihood is still reported so downstream tests keep
    running). A design is flagged rank deficient when the smallest
    eigenvalue of its weighted gram matrix is within ``n * eps`` of the
    largest, or the gram cannot be solved; such fits take the minimum-norm
    least-squares solution for the working response instead.

    A fit over more than ``BLOCK_ROWS`` (16,384) rows sums its score and
    gram matrix over equal blocks of rows, so its last digits differ from
    a one-pass sum; a smaller fit takes one pass.

    ``start`` gives initial coefficients (default zeros), such as
    a nested fit's coefficients with zeros appended. It only saves
    iterations: a warm-started fit that does not converge is repeated from
    zeros, so its flags and capped likelihood never depend on ``start``.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise GlmError(f"incompatible shapes y{y.shape} X{X.shape}")
    if not (np.isfinite(y).all() and np.isfinite(X).all()):
        raise GlmError("fit_glm requires finite, fully observed y and X")
    n, p = X.shape
    if n <= p:
        raise GlmError(f"need more observations ({n}) than coefficients ({p})")
    if start is not None:
        start = np.array(start, dtype=float)
        if start.shape != (p,) or not np.isfinite(start).all():
            raise GlmError(f"start must hold {p} finite coefficients, "
                           f"got shape {start.shape}")
    if not ((y == 0.0) | (y == 1.0)).all():
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
