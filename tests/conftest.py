import shutil
import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from platefem.mesh import unit_square_mesh

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # Hypothesis caches the literals of local source files in its home
    # directory (./.hypothesis by default) even without an example
    # database; a per-session temporary directory keeps the tree clean.
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="platefem-hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture(scope="session")
def mesh1():
    return unit_square_mesh(1)


@pytest.fixture(scope="session")
def mesh2():
    return unit_square_mesh(2)


@pytest.fixture(scope="session")
def mesh4():
    return unit_square_mesh(4)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
