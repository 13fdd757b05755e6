import hypothesis
import pytest

from entrywise import spectral

hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=25, derandomize=True
)
hypothesis.settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _fresh_validation_memo():
    """Start every test with an empty PSD validation memo, so that tests
    counting eigen-solves or Hermitian checks see no entry left by another."""
    spectral.clear_memo()
