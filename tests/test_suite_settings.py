"""The suite's own pytest settings."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_does_not_stop_the_session(pytester):
    # a failing @given test makes hypothesis import libcst to suggest a
    # patch, and that import warns; under the suite's own filters the
    # session must report the failure and go on to the next test
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(test_pair="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider",
                                           "test_pair.py")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
