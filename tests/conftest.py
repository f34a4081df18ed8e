"""Fixtures shared across test modules."""

from __future__ import annotations

import pytest

from matroidkit.search import three_connected_census_22
from matroidkit.verify import run_checks


@pytest.fixture(scope="session")
def census():
    """The 65-member census, built once for the whole session."""
    return three_connected_census_22()


@pytest.fixture(scope="session")
def fast_run():
    """The 21 verify checks at corpus size 80, run once for the whole session."""
    return run_checks(corpus_size=80)
