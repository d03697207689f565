import numpy as np
import pytest

from shadowipw.data import Dataset, RoleMap
from shadowipw.simulate import default_config, generate


def pytest_collection_modifyitems(items):
    # the acceptance module takes minutes; `pytest -m "not slow"` skips it
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def base_ds_10k():
    """One draw of the main simulation scenario at n=10000."""
    return generate(default_config(n=10000, seed=5))


@pytest.fixture(scope="session")
def base_ds_small():
    return generate(default_config(n=2000, seed=11))


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
