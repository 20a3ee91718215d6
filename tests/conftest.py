"""Fixtures shared across the test modules."""

import pytest

from soclelab.families import parse_family


@pytest.fixture(scope="session")
def witness_group():
    """twisted_affine(2,4,1), the order-3840 witness group, built once per
    session. Its table is read-only and its memoized subgroups are the same
    in every test; a test that replaces group or structure functions, or
    counts their calls, builds its own copy."""
    return parse_family("twisted_affine(2,4,1)", max_order=4000)
