import pytest

from tadic import sums


@pytest.fixture(autouse=True)
def _fresh_sums():
    """Every test starts with no kept torus sums, so a test that counts
    walks sees the walks of its own calls, whatever ran before it."""
    sums._SUMS.clear()
