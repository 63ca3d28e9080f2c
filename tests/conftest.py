import zlib

import numpy as np
import pytest


@pytest.fixture
def rng(request):
    """A generator seeded from the test's own node id, so a test draws the same
    data however many tests come before it in its module."""
    return np.random.default_rng(zlib.crc32(request.node.nodeid.encode()))
