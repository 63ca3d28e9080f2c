import zlib

import numpy as np
import pytest
from hypothesis import settings

# One deterministic profile for the whole suite: each property test draws
# the examples its own source determines, with no example database and no
# per-example deadline, so a run does not depend on earlier runs or on the
# machine's speed.
settings.register_profile("proxsplit", derandomize=True, deadline=None)
settings.load_profile("proxsplit")


@pytest.fixture
def rng(request):
    """A generator seeded from the test's own node id, so a test draws the same
    data however many tests come before it in its module."""
    return np.random.default_rng(zlib.crc32(request.node.nodeid.encode()))
