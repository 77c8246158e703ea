"""Set-up shared by every test module."""

import warnings

# When a @given test fails, hypothesis imports hypothesis.extra._patching,
# which imports libcst, whose import raises a DeprecationWarning. Under the
# error::DeprecationWarning filter that import would end the run as an
# INTERNALERROR with no falsifying example, so it is imported here first.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis reports failures without it
        pass
