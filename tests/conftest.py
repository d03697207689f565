import pytest

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
