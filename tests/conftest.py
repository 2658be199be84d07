import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60, print_blob=True)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
