"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator; statistical tests rely on this seed."""
    return np.random.default_rng(20120521)  # PODS'12 opening day


@pytest.fixture
def small_pmf() -> np.ndarray:
    """A hand-checkable 8-element distribution."""
    return np.array([0.05, 0.05, 0.2, 0.2, 0.2, 0.1, 0.1, 0.1])


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: long-running statistical tests (always run; marker is informational)"
    )
