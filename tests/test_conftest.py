"""The test suite's own hooks (``conftest.py``)."""

import inspect

import conftest

# a failing property test that errors on warnings, then a plain test
TWO_TESTS = """
import pytest
from hypothesis import given, strategies as st


@pytest.mark.filterwarnings("error")
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_stop_the_run(pytester):
    # in a fresh process, so hypothesis imports its report helpers anew
    hook = inspect.getsource(conftest.pytest_runtest_makereport)
    pytester.makeconftest(f"import warnings\n\nimport pytest\n\n\n{hook}")
    pytester.makepyfile(TWO_TESTS)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
