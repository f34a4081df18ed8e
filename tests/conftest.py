"""Fixtures shared across test modules."""

from __future__ import annotations

import pytest

from matroidkit.search import three_connected_census_22


@pytest.fixture(scope="session")
def census():
    """The 65-member census, built once for the whole session."""
    return three_connected_census_22()
