import os

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60, print_blob=True)
# GitHub Actions sets CI: property tests draw more examples there
settings.register_profile("ci", deadline=None, max_examples=500, print_blob=True)
settings.load_profile("ci" if os.environ.get("CI") else "suite")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
