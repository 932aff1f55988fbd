"""Fixtures shared by every test module."""

import importlib

import pytest

# The package binds the function ``hopm`` over its module's name.
HOPM = importlib.import_module("convnorm.hopm")
REGULARIZERS = importlib.import_module("convnorm.regularizers")


@pytest.fixture(autouse=True)
def empty_memos():
    """Start every test with no remembered solve or gram residual, so no
    result, and no call or scan count, depends on the test run before it."""
    HOPM._SOLVES.clear()
    REGULARIZERS._RESIDUALS.clear()
