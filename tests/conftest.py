"""Suite-wide set-up: let a failing Hypothesis test report its failure.

When a property test fails, Hypothesis's pytest plugin imports ``libcst``
to write the failing example as a patch.  That import raises a third-party
``DeprecationWarning`` (``mypy_extensions.TypedDict``), which
``pyproject.toml`` makes an error, so the failure would end the run as an
INTERNALERROR.  Importing ``libcst`` here, with that warning ignored for
this one import, leaves the filter in force for everything else.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:   # without libcst the plugin writes no patch
        pass
