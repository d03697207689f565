"""Exact finite discrete models used as independent oracles.

A model has one binary covariate Z, binary treatment A, binary outcome Y,
and a response indicator R whose propensity depends only on (Y, Z). That
structure makes the treatment a valid shadow variable with {Z} as the
adjustment set, so the weighting functional, the covariate-adjustment
functional, and the brute-force interventional mean must all coincide;
each is evaluated here by exact enumeration through a different route.

``g_statistic`` is the likelihood-ratio statistic of independence in a
2x2 table, in closed form from its counts: the known answer of a logistic
LRT of a 0/1 response on an intercept against one 0/1 regressor more.

``toy_dataset`` is a four-row hand-built Dataset for the data tests,
``same_columns`` compares two datasets' columns, and
``generate_example`` draws a small three-covariate example system for the
search and condition tests.
"""

import math

import numpy as np

from shadowipw.data import Dataset, RoleMap
from shadowipw.glm import expit
from shadowipw.graphs import Dag
from shadowipw.shadow import reconstruct_propensity_from_joint
from shadowipw.simulate import _STREAM_A, _STREAM_I, _STREAM_R, _STREAM_Y, \
    _rng


class DiscreteModel:
    """p(Z=1)=pz; p(A=1|z)=f[z]; p(Y=1|a,z)=g[a][z]; p(R=1|y,z)=h[y][z]."""

    def __init__(self, pz, f, g, h):
        self.pz = float(pz)
        self.f = np.asarray(f, dtype=float)
        self.g = np.asarray(g, dtype=float)
        self.h = np.asarray(h, dtype=float)

    @classmethod
    def random(cls, rng, margin=0.1):
        u = lambda size=None: rng.uniform(margin, 1.0 - margin, size=size)
        return cls(pz=u(), f=u(2), g=u((2, 2)), h=u((2, 2)))

    def p_z(self, z):
        return self.pz if z == 1 else 1.0 - self.pz

    def p_a(self, a, z):
        return self.f[z] if a == 1 else 1.0 - self.f[z]

    def p_y(self, y, a, z):
        return self.g[a, z] if y == 1 else 1.0 - self.g[a, z]

    def p_r(self, r, y, z):
        return self.h[y, z] if r == 1 else 1.0 - self.h[y, z]

    def joint_ry_given_z(self):
        """p(R, Y | Z) as a (2, n_y, n_z) table (Y reference level first)."""
        out = np.empty((2, 2, 2))
        for z in (0, 1):
            p_y_given_z = [sum(self.p_y(y, a, z) * self.p_a(a, z)
                               for a in (0, 1)) for y in (0, 1)]
            for r in (0, 1):
                for y in (0, 1):
                    out[r, y, z] = self.p_r(r, y, z) * p_y_given_z[y]
        return out

    def weighting_functional(self, arm):
        """The double inverse-weighted expectation, summed exactly over all
        sixteen atoms; the response propensity is recovered from the joint
        through the production odds-ratio reconstruction."""
        p_r1 = reconstruct_propensity_from_joint(self.joint_ry_given_z())
        total = 0.0
        for z in (0, 1):
            for a in (0, 1):
                for y in (0, 1):
                    for r in (0, 1):
                        prob = (self.p_z(z) * self.p_a(a, z) *
                                self.p_y(y, a, z) * self.p_r(r, y, z))
                        if r == 1 and a == arm:
                            total += prob * y / (p_r1[y, z] *
                                                 self.p_a(arm, z))
        return total

    def adjustment_functional(self, arm):
        """Covariate adjustment: sum over z of E[Y | A=arm, z] p(z)."""
        return sum(self.g[arm, z] * self.p_z(z) for z in (0, 1))

    def interventional_mean(self, arm):
        """Brute force: enumerate the mutilated system with the treatment
        forced to ``arm`` and average the outcome."""
        total = 0.0
        for z in (0, 1):
            for y in (0, 1):
                total += y * self.p_y(y, arm, z) * self.p_z(z)
        return total

    def sample(self, rng, n):
        z = (rng.uniform(size=n) < self.pz).astype(int)
        a = (rng.uniform(size=n) < self.f[z]).astype(int)
        y = (rng.uniform(size=n) < self.g[a, z]).astype(int)
        r = (rng.uniform(size=n) < self.h[y, z]).astype(int)
        return z, a, y, r


def g_statistic(x, y) -> float:
    """The G statistic 2 sum O log(O/E) of the 2x2 table of two 0/1
    arrays, O a cell's count and E = row total * column total / n the
    count independence predicts; an empty cell adds nothing."""
    x, y = np.asarray(x) == 1.0, np.asarray(y) == 1.0
    observed = np.array([[np.sum(~x & ~y), np.sum(~x & y)],
                         [np.sum(x & ~y), np.sum(x & y)]], dtype=float)
    expected = np.outer(observed.sum(axis=1),
                        observed.sum(axis=0)) / observed.sum()
    return 2.0 * math.fsum(o * math.log(o / e) for o, e in
                           zip(observed.ravel(), expected.ravel()) if o > 0)


def toy_dataset(y=(1.0, np.nan, 0.0, 1.0), a=(1, 0, 1, 0), i=(0.3, -1.2, 0.5, 2.0),
                w=((0.1, 1.0), (0.2, -1.0), (-0.4, 0.0), (1.5, 2.0))):
    """Small hand-built dataset with one missing outcome."""
    y = np.asarray(y, dtype=float)
    r = (~np.isnan(y)).astype(float)
    w = np.asarray(w, dtype=float)
    columns = {"A": np.asarray(a, float), "Y": y, "R": r,
               "I": np.asarray(i, float),
               "W1": w[:, 0], "W2": w[:, 1]}
    roles = RoleMap("A", "Y", "R", "I", ("W1", "W2"))
    return Dataset(columns, roles)


def same_columns(a: Dataset, b: Dataset) -> bool:
    """Whether two datasets hold the same column names and values, a NaN
    equal to a NaN."""
    return a.names == b.names and all(
        np.array_equal(a.column(n), b.column(n), equal_nan=True)
        for n in a.names)


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
