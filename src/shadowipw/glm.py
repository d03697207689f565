"""Logistic regression and likelihood-ratio tests.

This is the statistical engine behind the conditional-independence tests.
Logistic fits use Newton's method (IRLS) with step-halving. With s = 2y-1
the response's sign, one ``e = exp(-s*eta)`` per candidate gives the
log-likelihood -sum log(1 + e), the residual y - mu = s*e/(1+e) and the
weight mu(1-mu) = e/(1+e)^2; the accepted candidate's e and log-likelihood
carry into the next iteration, so an iteration whose full step is kept
evaluates exp once. The last step evaluates nothing: once the Newton
decrement lam2 = score @ step predicts a gain lam2/2 within the bound that
step acceptance allows (below), the step is taken unevaluated, the fit
has converged and reports ll + lam2/2, the log-likelihood at its
coefficients to third order; the coefficients are those the evaluated step
would give. The design, row i times -s_i, gives -s*eta, the score
and the gram in one product each; -s*eta is clipped only where that can
change a bit (``fit_glm``). ``fold`` validates a response and its design
columns and multiplies them by -s once, into a ``FoldedDesign``; a caller
that fits many designs on one response folds their columns into one table
and gathers each design's rows from it (``FoldedDesign.take``), so a fit
makes no validation or fold pass of its own. The Newton step solves
gram @ step = score, and the first step's rank check takes the gram's
eigenvalues, by one LAPACK call each (``_lapack``, which ``shadow``'s
Newton steps use too): np.linalg's bits without its Python wrappers,
which cost more than a p <= 7 solve. The p-length norms are taken on
Python floats. A step is kept when it lowers the log-likelihood by no
more than a bound scaled to |ll|, the rounding error of a sum over many
rows. A fit may be warm-started; ``citest`` starts each design from a fit
of a nested or a larger design (its two start rules). The elementwise
passes run on all rows at once; only the score and weighted gram products
are summed over equal blocks of at most ``BLOCK_ROWS`` rows that stay in
cache (``_summed``), so a fit over more than ``BLOCK_ROWS`` rows differs
in its last digits from a one-pass sum. Such a fit, when given no start,
starts from a fit on every ``PILOT_STRIDE``-th row (the pilot fit), which
saves it about half its Newton steps on the full rows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

# L2 coefficient norm beyond which a logistic fit is treated as separated
SEPARATION_NORM = 30.0
MAX_ITER = 50    # IRLS iterations
TOL = 1e-8       # converged when the score max-norm is below this
# bound on |x| for exp(x) and expit(x), lest exp overflow
SATURATION = 500.0
# rows per block of the score and gram products (_summed, read at call
# time; shadow's Jacobian uses it too). A 10^5 x 4 design, its
# weighted copy and the row vectors overflow a 2 MiB L2 cache, while a
# 16,384-row block of them fits. A search's fits have up to 10^4 rows and
# must stay one block: split in two they ran about 10% slower. On 10^5-row,
# four-coefficient fits 16,384 rows did at least as well as 8,192.
BLOCK_ROWS = 16384
# a cold fit over more than BLOCK_ROWS rows starts from a fit on every
# PILOT_STRIDE-th row. A pilot of up to BLOCK_ROWS rows, a stride of
# ceil(n / BLOCK_ROWS), takes half the rows of a 20,000-row fit: such
# treatment fits took 2.8 ms against 2.3 ms with a stride of 16, and the
# two were equal at 10^5 rows.
PILOT_STRIDE = 16
_EPS = float(np.finfo(float).eps)
# _lapack's gufuncs, with their float64 signatures and LinAlgError messages
_LAPACK = {
    "solve1": (_umath_linalg.solve1, "dd->d", "Singular matrix"),
    "eigvalsh_lo": (_umath_linalg.eigvalsh_lo, "d->d",
                    "Eigenvalues did not converge"),
}


class GlmError(ValueError):
    """Raised on invalid designs or test preconditions; an adjustment set
    or witness that the roles refuse is a ``DataError``."""


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
        eta = np.clip(np.asarray(X) @ self.coefficients, -SATURATION,
                      SATURATION)
        return expit(eta)


@dataclass(frozen=True)
class FoldedDesign:
    """A 0/1 response and design columns, validated and folded once by
    ``fold``: row j of ``Xs`` is column j times 1-2y (C-contiguous), and
    ``colmax[j]`` is that column's largest |x|."""
    y: np.ndarray
    Xs: np.ndarray
    colmax: np.ndarray

    def take(self, columns: list[int]) -> FoldedDesign:
        """The design of the given columns, in that order: their rows of
        ``Xs``, gathered into one fresh array, and their ``colmax``."""
        return FoldedDesign(self.y, self.Xs[columns], self.colmax[columns])


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


def _lapack(name, *operands):
    """The LAPACK call that ``np.linalg.solve(a, b)`` (``"solve1"``, b
    one-dimensional) or ``np.linalg.eigvalsh(a)`` (``"eigvalsh_lo"``) makes
    on float64 operands, with the same bits, without their Python wrappers,
    which cost more than the LAPACK call on a p <= 7 system. It runs under
    the errstate NumPy uses, so a singular system, or eigenvalues that do
    not converge, raise ``LinAlgError`` and warn nothing."""
    gufunc, signature, message = _LAPACK[name]

    def fail(err, flag):
        raise np.linalg.LinAlgError(message)

    with np.errstate(call=fail, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return gufunc(*operands, signature=signature)


def _evaluate(beta, Xs, colmax):
    # t = -s*eta at beta, s = 2y-1, and with it e = exp(t) and the
    # log-likelihood -sum log(1 + e): one exp serves the likelihood, the
    # score and the weights. t is clipped to [-500, 500], lest e overflow,
    # once |beta| @ colmax, a bound on |t|, passes 499. exp and log1p bound
    # this pass, not memory, so it runs on all rows at once.
    e = beta @ Xs
    if np.abs(beta) @ colmax > 499.0:
        np.maximum(e, -SATURATION, out=e)
        np.minimum(e, SATURATION, out=e)
    np.exp(e, out=e)
    return e, -float(np.log1p(e).sum())


def _summed(product, n):
    # product(b) summed over equal blocks b of at most BLOCK_ROWS of n rows,
    # in block order, from the first block's value: up to BLOCK_ROWS rows
    # that is product(slice(0, n)). A block's rows of the design, of its
    # weighted copy and of every row array stay in cache.
    k = -(-n // BLOCK_ROWS)
    total = product(slice(0, n // k))
    for i in range(1, k):
        total = total + product(slice(i * n // k, (i + 1) * n // k))
    return total


def _fit_logistic(y, Xs, colmax, start):
    # Xs is a FoldedDesign's: one row per coefficient, so every product
    # below runs over contiguous rows. beta @ Xs is -s*eta and -(Xs @ r)
    # the score X'(s*r), bit for bit; |beta| @ colmax bounds |eta|
    beta = np.zeros(Xs.shape[0]) if start is None else start
    e, ll = _evaluate(beta, Xs, colmax)
    rank_deficient = False
    # a constant response has its maximum at infinite coefficients; the
    # iterations below stop at a finite capped iterate, so flag it up front
    separated = y.min() == y.max()
    converged = False
    iterations = 0
    while iterations < MAX_ITER:
        # with q = 1/(1+e) the fitted probability of the observed response,
        # y - mu = s*e*q and mu*(1-mu) = e*q*q
        q = np.add(1.0, e)
        np.divide(1.0, q, out=q)
        # e is read no more: the next candidate brings its own
        r = np.multiply(e, q, out=e)
        score = -_summed(lambda b: Xs[:, b] @ r[b], y.size)
        # the first pass always builds a Newton system, where a singular
        # design shows, even when a warm start begins at the optimum. The
        # p-length vectors are read as Python floats, with the same values
        if iterations and max(map(abs, score.tolist())) < TOL:
            converged = True
            break
        w = np.multiply(r, q)
        np.maximum(w, 1e-10, out=w)
        gram = _summed(lambda b: (Xs[:, b] * w[b]) @ Xs[:, b].T, y.size)
        if not iterations:
            # the design is rank deficient when the gram's smallest
            # eigenvalue is within the rounding error of its sums over rows
            eig = _lapack("eigvalsh_lo", gram).tolist()
            rank_deficient = eig[0] <= eig[-1] * y.size * _EPS
        if not rank_deficient:
            try:
                step = _lapack("solve1", gram, score)
            except np.linalg.LinAlgError:
                rank_deficient = True
        if rank_deficient:
            # singular gram matrix: the minimum-norm solution of the
            # weighted least-squares problem for the working response
            # eta + s*r/w, each row times -s as the design is folded
            t = np.clip(beta @ Xs, -SATURATION, SATURATION)
            sw = np.sqrt(w)
            step = np.linalg.lstsq((Xs * sw).T, (t - r / w) * sw,
                                   rcond=None)[0] - beta
        # the rounding error of a sum over rows, which grows with |ll|, and
        # the Newton decrement: a Newton step gains lam2 / 2, to third order
        tol = 1e-12 * max(1.0, abs(ll))
        lam2 = math.inf if rank_deficient else float(score @ step)
        if lam2 / 2.0 <= tol:
            # a gain below the rounding error that step acceptance allows:
            # the last step is taken unevaluated, and the fit has converged
            beta, ll, converged = beta + step, ll + lam2 / 2.0, True
        else:
            # step-halving: never accept a step that decreases the
            # likelihood by more than that rounding error
            for _ in range(20):
                cand = beta + step
                e_cand, ll_cand = _evaluate(cand, Xs, colmax)
                if ll_cand >= ll - tol:
                    break
                step = step / 2.0
            else:
                # no checked step keeps the likelihood, so none is applied
                break
            beta, e, ll = cand, e_cand, ll_cand
        iterations += 1
        # the L2 norm, by np.linalg.norm's own formula
        if math.sqrt(beta @ beta) > SEPARATION_NORM:
            separated = True
            break
        if converged:
            break
    if separated:
        converged = False
    return GlmFit(beta, ll, bool(converged), iterations, y.size,
                  bool(separated), rank_deficient)


def fold(y, Xt) -> FoldedDesign:
    """The ``FoldedDesign`` of response y and design columns Xt (one per
    row, C-contiguous). Raises ``GlmError`` unless y and every column are
    finite and y is 0/1; a NaN or +-inf shows in its column's largest |x|
    (0 with no rows), so the columns need no pass of their own."""
    colmax = np.maximum(Xt.max(axis=1, initial=0.0),
                        -Xt.min(axis=1, initial=0.0))
    if not (np.isfinite(y).all() and np.isfinite(colmax).all()):
        raise GlmError("fit_glm requires finite, fully observed y and X")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise GlmError("logistic regression requires a 0/1 response")
    return FoldedDesign(y, Xt * (1.0 - 2.0 * y), colmax)


def fit_glm(y, X, start=None) -> GlmFit:
    """Logistic fit of a 0/1 response y on the design matrix X (intercept
    column included by caller).

    X is an n x p array, or a ``FoldedDesign`` of y: one that ``fold``
    returned for y, or a design gathered from one by ``take``. An array is
    folded (and so validated) on every call; a caller that fits many
    designs on one response, such as a search, folds their columns once
    and gathers each design from that table, with the same bits.

    The fit takes Newton steps, the solution of ``gram @ step = score``
    with ``gram = X' W X``, until the score max-norm drops below ``TOL``
    or a step's Newton decrement ``lam2 = score @ step`` predicts a gain
    ``lam2 / 2`` of at most ``1e-12 * max(1, |ll|)``, the acceptance bound
    below. Such a step is the last, and is taken without evaluating it:
    the fit has converged, with the coefficients the evaluated step would
    give, and reports ``ll + lam2 / 2``, the log-likelihood at them to
    third order (within the bound). Every other candidate evaluates one
    ``exp(-s*eta)``, s = 2y-1, from which come its log-likelihood and,
    once it is accepted, the next score and weights. The design's rows
    are multiplied by -s once, when it is folded, so -s*eta, the score
    and the gram are one product each. -s*eta
    is clipped to [-500, 500] only when ``|beta| @ max|X_j|`` passes 499:
    below, the clip does not act. The weights are floored at 1e-10 on
    every pass. Fits equal a kernel's that forms s*eta and s*r and clips
    on every pass, bit for bit. A step is halved (up to 20 times) while
    it lowers the log-likelihood by more than ``1e-12 * max(1, |ll|)``,
    a bound scaled to the rounding error of a sum over many rows; if no
    halving passes, the fit stops where it is. Coefficient L2 norm above
    30 is flagged as separation and stops the fit with ``converged=False``
    (the capped likelihood is still reported so downstream tests keep
    running). A design is flagged rank deficient when the smallest
    eigenvalue of its weighted gram matrix is within ``n * eps`` of the
    largest, or the gram cannot be solved; such fits take the minimum-norm
    least-squares solution for the working response instead.

    The elementwise passes (exp, the residuals and the weights) run on all
    rows; the score and gram products are summed over equal blocks of at
    most ``BLOCK_ROWS`` (16,384) rows. A fit over more rows than that
    differs in its last digits from a one-pass sum; a smaller fit is one
    block, the one-pass sum.

    ``start`` gives initial coefficients, such as a nested fit's
    coefficients with zeros appended. Without one, a fit of at most
    ``BLOCK_ROWS`` rows starts from zeros. A larger fit first fits every
    ``PILOT_STRIDE``-th row (recursively, so a 10^6-row fit's pilot has a
    pilot of its own) and starts from that fit's coefficients if it
    converged and is not rank deficient, from zeros otherwise. A start
    only saves iterations: a warm-started fit that does not converge is
    repeated from zeros, so a fit that does not converge reports the
    flags and capped likelihood of the fit from zeros, whatever ``start``
    or the pilot fit was.
    """
    if isinstance(X, FoldedDesign):
        if y is not X.y:
            raise GlmError("a folded design is fitted on the response it "
                           "was folded with")
    else:
        y = np.asarray(y, dtype=float)
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
            raise GlmError(f"incompatible shapes y{y.shape} X{X.shape}")
        # the transpose is free when X is column-major, as design_matrix
        # builds it
        X = fold(y, np.ascontiguousarray(X.T))
    p, n = X.Xs.shape
    if n <= p:
        raise GlmError(f"need more observations ({n}) than coefficients ({p})")
    if start is not None:
        start = np.array(start, dtype=float)
        if start.shape != (p,) or not np.isfinite(start).all():
            raise GlmError(f"start must hold {p} finite coefficients, "
                           f"got shape {start.shape}")
    if start is None and n > BLOCK_ROWS:
        # the pilot keeps the whole design's colmax, a bound on its rows'
        # |x|: where that turns the clip on and theirs would not, no |eta|
        # reaches 500, so the clip changes no bit
        rows = FoldedDesign(y[::PILOT_STRIDE], np.ascontiguousarray(
            X.Xs[:, ::PILOT_STRIDE]), X.colmax)
        pilot = fit_glm(rows.y, rows)
        if pilot.converged and not pilot.rank_deficient:
            start = pilot.coefficients
    fit = _fit_logistic(y, X.Xs, X.colmax, start)
    if start is not None and not fit.converged:
        fit = _fit_logistic(y, X.Xs, X.colmax, None)
    return fit


def check_alpha(alpha) -> None:
    """Refuse a test level that is not a real number in (0, 1). NumPy
    scalars pass; bools, strings and NaN do not."""
    if not (isinstance(alpha, numbers.Real) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def likelihood_ratio_test(null_fit: GlmFit, full_fit: GlmFit,
                          alpha: float) -> CiTestResult:
    """Chi-square LRT of nested fits; ``independent`` means p_value >= alpha.

    Designs of equal size must have equal likelihoods, in either order:
    they are then the same design, with statistic 0 and p-value 1.
    Otherwise the statistic 2*(ll_full - ll_null) is clamped at zero,
    which absorbs round-off.
    """
    check_alpha(alpha)
    if null_fit.n_obs != full_fit.n_obs:
        raise GlmError(f"fits use different sample sizes "
                       f"({null_fit.n_obs} vs {full_fit.n_obs})")
    df = full_fit.coefficients.size - null_fit.coefficients.size
    if df < 0:
        raise GlmError("full design must extend the null design")
    statistic = 2.0 * (full_fit.log_likelihood - null_fit.log_likelihood)
    if df == 0:
        # identical designs: the test degenerates to statistic 0, p-value 1.
        # Checked before the clamp, so that a worse "full" fit is caught too
        if abs(statistic) > 1e-6:
            raise GlmError("designs have equal size but different likelihoods;"
                           " they are not nested")
        return CiTestResult(statistic=0.0, df=0, p_value=1.0,
                            independent=True, alpha=alpha)
    statistic = max(0.0, statistic)
    p_value = chi_square_sf(statistic, df)
    return CiTestResult(statistic=statistic, df=df, p_value=p_value,
                        independent=p_value >= alpha, alpha=alpha)


def design_matrix(n: int, *columns) -> np.ndarray:
    """Stack an intercept column ahead of the given regressor columns."""
    # column-major, so that fit_glm's transposed view of it needs no copy
    return np.vstack([np.ones(n), *columns]).T
