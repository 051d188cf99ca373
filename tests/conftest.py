"""Suite-wide fixtures and hypothesis configuration."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from zwcalc.rules import catalog


def pytest_configure(config):
    # Hypothesis's report hook may import libcst, which imports the deprecated
    # mypy_extensions.TypedDict.  Under ``-W error`` that warning escapes the
    # hook as PluggyTeardownRaisedWarning and pytest stops with INTERNALERROR
    # instead of reporting the falsifying example.  pytest applies these
    # filters inside each test's warning capture, ahead of ``-W error``.
    config.addinivalue_line(
        "filterwarnings", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
    )


settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def rules_by_name():
    """The full catalog at the default arity bound, indexed by name."""
    return {rule.name: rule for rule in catalog(4)}
