import pytest
from hypothesis import settings

from coxanc import build_group

# Property tests replay the same examples on every run and are not timed per
# example, so tier-1 stays deterministic on slow or loaded hosts.
settings.register_profile("coxanc", derandomize=True, deadline=None)
settings.load_profile("coxanc")


@pytest.fixture(scope="session")
def group():
    """Session-wide cache of built group tables, keyed by descriptor."""
    cache = {}

    def get(descriptor):
        if descriptor not in cache:
            cache[descriptor] = build_group(descriptor)
        return cache[descriptor]

    return get
