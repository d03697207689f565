"""Odds-ratio-factorized missingness propensity and its estimation.

The response propensity is parameterized as

    p(R=1 | y, z) = pi0(z) / (pi0(z) + eta(y) * (1 - pi0(z)))

with a baseline pi0(z) = expit(beta . z) at the outcome reference value
Y_REF, and an odds-ratio term eta(y) = exp(gamma * (y - Y_REF)) so that
eta(Y_REF) = 1. The k+1 parameters (beta, gamma) are the root of k+1
mean-zero moment conditions

    mean over rows of (R / p(R=1 | y, z) - 1) * h_j,

where h_j = z_j for j = 1..k, and the last h is either the sample mean of
the treatment (mode "a_mean") or the per-row treatment (mode "a_row").
Rows with R = 0 contribute the constant -h_j, so only observed outcomes
are used: the equations are set up once per solve on the respondents' rows,
with the non-respondents' h summed into one constant. The treatment is the
shadow variable: it enters the last equation only.

The root is found by damped Newton from zero. p = expit(u), with the logit
u = beta . z - gamma * (y - Y_REF) linear in (beta, gamma). A respondent's
h is weighed by the exact odds w = 1/p - 1 = exp(-u), so dw/du = -w: the
Jacobian reuses the w of the accepted iterate, and each candidate step
costs one exp per respondent. The Jacobian is summed over equal blocks of
at most ``glm.BLOCK_ROWS`` respondents, as ``glm`` sums a large fit's gram.
A solve that stalls short of the tolerance returns its last accepted
iterate, flagged as not converged, so a caller sees the degenerate solve
rather than a number.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import glm
from .data import Dataset, respondent_rows

H_MODE_A_MEAN = "a_mean"
H_MODE_A_ROW = "a_row"
H_MODES = (H_MODE_A_MEAN, H_MODE_A_ROW)

_P_MIN = np.finfo(float).tiny
_P_MAX = 1.0 - np.finfo(float).epsneg

Y_REF = 0.0      # outcome reference value: eta(Y_REF) = 1
TOL = 1e-8       # converged when the residual max-norm is below this
MAX_ITER = 100   # Newton iterations


class ShadowError(ValueError):
    """Raised on an invalid joint, a z of the wrong width, or data with no
    observed outcome."""


def check_h_mode(h_mode) -> None:
    """Refuse an h mode other than those of ``H_MODES``."""
    if h_mode not in H_MODES:
        raise ValueError(f"h_mode must be one of {', '.join(H_MODES)}, "
                         f"got {h_mode}")


@dataclass(frozen=True)
class ShadowPropensityModel:
    beta: np.ndarray
    gamma: float
    y_ref: float
    adjustment: tuple[str, ...]
    residual_norm: float
    converged: bool
    iterations: int
    degenerate: bool = False   # no-missingness data: propensity is 1
    used_fallback: bool = False   # Newton stalled short of TOL

    def to_dict(self) -> dict:
        return {**asdict(self), "beta": [float(b) for b in self.beta],
                "adjustment": list(self.adjustment)}

    @classmethod
    def trivial(cls, adjustment) -> "ShadowPropensityModel":
        adjustment = tuple(adjustment)
        return cls(beta=np.zeros(len(adjustment)), gamma=0.0, y_ref=Y_REF,
                   adjustment=adjustment, residual_norm=0.0, converged=True,
                   iterations=0, degenerate=True)


def or_blend(pi0, eta):
    """Propensity from baseline pi0 and odds-ratio value eta (the core
    factorization formula); clamped into the open unit interval."""
    pi0 = np.asarray(pi0, dtype=float)
    eta = np.asarray(eta, dtype=float)
    out = pi0 / (pi0 + eta * (1.0 - pi0))
    return np.clip(out, _P_MIN, _P_MAX)


def or_propensity(y, z, model: ShadowPropensityModel):
    """Evaluate p(R=1 | y, z) under the fitted model. Accepts scalars or
    arrays (z has the adjustment coordinates on the last axis)."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.shape[-1:] != (len(model.adjustment),):
        raise ShadowError(
            f"z has {z.shape[-1] if z.ndim else 0} coordinates, expected "
            f"{len(model.adjustment)}")
    zdot = z @ model.beta
    if model.degenerate:
        out = np.ones(np.broadcast_shapes(y.shape, np.shape(zdot)))
    else:
        # the factorization's logit, the u that _Moments solves for: one
        # expit, where or_blend's 1 - pi0 cancels as pi0 nears 1
        u = np.clip(zdot - model.gamma * (y - model.y_ref),
                    -glm.SATURATION, glm.SATURATION)
        out = np.clip(glm.expit(u), _P_MIN, _P_MAX)
    return float(out) if out.ndim == 0 else out


def reconstruct_propensity_from_joint(joint) -> np.ndarray:
    """Recover p(R=1 | Y, Z) from a discrete joint p(R, Y | Z).

    ``joint`` has shape (2, n_y, n_z): axis 0 is R in (0, 1), axis 1 the
    outcome levels with index 0 as the reference value, axis 2 the Z strata
    (each stratum normalized). The baseline and odds-ratio pieces are read
    off the joint and recombined through the factorization formula, which
    must agree with direct conditioning.
    """
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 3 or joint.shape[0] != 2:
        raise ShadowError(f"joint must have shape (2, n_y, n_z), "
                          f"got {joint.shape}")
    if (joint <= 0).any():
        raise ShadowError("joint must be strictly positive in every cell")
    sums = joint.sum(axis=(0, 1))
    if not np.allclose(sums, 1.0, atol=1e-9):
        raise ShadowError("joint must be normalized within each Z stratum")
    # pi0(z) = p(R=1 | Y=y_ref, z)
    pi0 = joint[1, 0, :] / (joint[0, 0, :] + joint[1, 0, :])
    # eta(y, z) = odds ratio of (R=0, y) against references (R=1, y_ref)
    eta = (joint[0, :, :] / joint[1, :, :]) * (joint[1, 0, :] / joint[0, 0, :])
    return or_blend(pi0[None, :], eta)


class _Moments:
    """The estimating equations on the respondents' rows, set up once per
    solve. A row with R = 0 adds the constant -h, summed into
    ``h_missing``; each of the m respondents carries a column of
    ``Ut = [Z; -(y - y_ref)]``, whose product with theta = (beta, gamma) is
    the logit of p, and of ``Ht = [Z; h_last]``. Both are (k+1) x m."""

    def __init__(self, ds: Dataset, adjustment, h_mode, y_ref=Y_REF):
        roles = ds.roles
        roles.check_adjustment(adjustment)
        check_h_mode(h_mode)
        r = ds.column(roles.response)
        rows = respondent_rows(ds)
        a = ds.column(roles.treatment)
        h = [ds.column(z) for z in adjustment]
        h.append(np.full(ds.n_rows, np.mean(a)) if h_mode == H_MODE_A_MEAN
                 else a)
        self.Ht = np.stack([c.take(rows) for c in h])
        self.Ut = self.Ht.copy()
        self.Ut[-1] = y_ref - ds.column(roles.outcome).take(rows)
        missing = 1.0 - r
        self.h_missing = np.array([missing @ c for c in h])
        self.n = ds.n_rows

    def weights(self, theta) -> np.ndarray:
        """w = 1/p - 1 = exp(-u) on the respondents at theta, where
        u = theta @ Ut is the logit of p: the exact odds, with u clipped to
        +-``glm.SATURATION`` lest exp overflow."""
        # (-theta) @ Ut is -u bit for bit: rounding is symmetric in sign
        w = -theta @ self.Ut
        np.clip(w, -glm.SATURATION, glm.SATURATION, out=w)
        return np.exp(w, out=w)

    def residuals(self, w) -> np.ndarray:
        return (self.Ht @ w - self.h_missing) / self.n

    def jacobian(self, w) -> np.ndarray:
        # dw/du = -w; the rows with R = 0 are constant. Summed over blocks
        # of at most glm.BLOCK_ROWS respondents (glm._summed), so that a
        # block's weighted copy Ht*w stays in cache
        return -glm._summed(lambda b: (self.Ht[:, b] * w[b]) @ self.Ut[:, b].T,
                            w.size) / self.n


def moment_residuals(ds: Dataset, model: ShadowPropensityModel,
                     h_mode: str = H_MODE_A_MEAN) -> np.ndarray:
    """Empirical means of the k+1 estimating equations at the model's
    parameters (with the model's y_ref folded in)."""
    moments = _Moments(ds, model.adjustment, h_mode, model.y_ref)
    if model.degenerate:   # p = 1: respondents add nothing
        return moments.residuals(np.zeros(moments.Ut.shape[1]))
    return moments.residuals(
        moments.weights(np.append(model.beta, model.gamma)))


def solve_propensity(ds: Dataset, Z, h_mode: str = H_MODE_A_MEAN
                     ) -> ShadowPropensityModel:
    """Solve the estimating equations for (beta, gamma) by damped Newton.

    Newton starts at zero and uses the analytic Jacobian with step-halving
    on the residual L2 norm; convergence is declared when the residual
    max-norm drops below ``TOL``. When no halved step lowers the norm, or
    the Jacobian is singular, Newton has stalled: the last accepted
    iterate is returned with ``converged=False`` and ``used_fallback=True``.

    An empty adjustment set is the gamma-only limit: the baseline is the
    constant one half and the single moment condition pins gamma.
    """
    adjustment = tuple(Z)
    moments = _Moments(ds, adjustment, h_mode)
    k = len(adjustment)
    m = moments.Ut.shape[1]
    if m == moments.n:
        warnings.warn("all outcomes observed; returning the trivial "
                      "propensity model (p = 1)", stacklevel=2)
        return ShadowPropensityModel.trivial(adjustment)
    if m == 0:
        raise ShadowError("no observed outcomes; propensity is not estimable")

    theta = np.zeros(k + 1)
    w = moments.weights(theta)
    res = moments.residuals(w)
    iterations = 0
    stalled = False
    for iterations in range(1, MAX_ITER + 1):
        if np.max(np.abs(res)) < TOL:
            iterations -= 1
            break
        try:
            step = np.linalg.solve(moments.jacobian(w), -res)
        except np.linalg.LinAlgError:
            stalled = True
            break
        norm0 = np.linalg.norm(res)
        for _ in range(21):
            cand = theta + step
            cand_w = moments.weights(cand)
            cand_res = moments.residuals(cand_w)
            if np.linalg.norm(cand_res) < norm0:
                theta, w, res = cand, cand_w, cand_res
                break
            step = step / 2.0
        else:
            stalled = True
            break
    if stalled:   # the attempt that stalled applied no step
        iterations -= 1

    residual_norm = float(np.max(np.abs(res)))
    return ShadowPropensityModel(
        beta=theta[:k], gamma=float(theta[k]), y_ref=Y_REF,
        adjustment=adjustment, residual_norm=residual_norm,
        converged=residual_norm < TOL, iterations=iterations,
        used_fallback=stalled)   # a stall leaves the residual at >= TOL
