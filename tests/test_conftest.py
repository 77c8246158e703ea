"""The test configuration keeps hypothesis's failure reports."""

from pathlib import Path

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parents[1]


def test_failing_given_test_reports_its_falsifying_example(pytester):
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text())
    pytester.makeconftest((ROOT / "tests" / "conftest.py").read_text())
    pytester.makepyfile(test_fails="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_below_five(x):
            assert x < 5
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_fails.py")
    result.assert_outcomes(failed=1)
    out = result.stdout.str()
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_below_five(" in out
    assert "x=5," in out
