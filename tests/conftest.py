"""Fixtures shared by the test modules."""

import pytest

from oracles import brute_fields_with_regulator_below


@pytest.fixture(scope="session")
def pell_fields_below_6():
    """(d, regulator) of every field of regulator < 6, from the oracle Pell
    scan; it takes a few seconds, so one session computes it once."""
    return brute_fields_with_regulator_below(6.0)
