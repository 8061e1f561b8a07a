"""Each test starts from empty `matter` caches, so a count of solves or
plans does not depend on which tests ran before it in the process."""

import pytest

from gaugecavity import matter


@pytest.fixture(autouse=True)
def empty_matter_caches():
    for cache in (matter._PLANS, matter._RESOLVENTS):
        cache.clear()
    for builder in (matter._ensemble_operators, matter._dipole_operators):
        builder.cache_clear()
