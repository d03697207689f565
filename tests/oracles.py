"""Exact finite discrete models used as independent oracles.

A model has one binary covariate Z, binary treatment A, binary outcome Y,
and a response indicator R whose propensity depends only on (Y, Z). That
structure makes the treatment a valid shadow variable with {Z} as the
adjustment set, so the weighting functional, the covariate-adjustment
functional, and the brute-force interventional mean must all coincide;
each is evaluated here by exact enumeration through a different route.

``toy_dataset`` is a four-row hand-built Dataset for the data tests.
"""

import numpy as np

from shadowipw.data import Dataset, RoleMap
from shadowipw.shadow import reconstruct_propensity_from_joint


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
