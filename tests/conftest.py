import numpy as np
import pytest
from hypothesis import settings

from rwre_lab import Homogeneous, TransitionVector

# Every run draws the same examples, so a failing draw fails in every run and
# every checkout; no example database is kept between runs.
settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")


@pytest.fixture(scope="session")
def drift2d() -> Homogeneous:
    """d=2 model with drift (0.3, 0) used across estimator tests."""
    return Homogeneous(TransitionVector([0.4, 0.1, 0.25, 0.25]))


@pytest.fixture(scope="session")
def srw2d() -> Homogeneous:
    return Homogeneous(TransitionVector([0.25, 0.25, 0.25, 0.25]))


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
