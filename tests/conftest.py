import warnings

import pytest

from helpers import boolean_arrangement, generic5_arrangement

# When a hypothesis test fails, the hypothesis plugin's report hook imports
# `hypothesis.extra._patching`, which imports libcst, which raises a
# `mypy_extensions.TypedDict` DeprecationWarning.  Under `-W error` that
# warning would abort the whole session with an INTERNALERROR; importing the
# module here, with DeprecationWarning ignored for this import only, lets a
# failing test be reported as a failure.  Every test still runs under the
# command line's warning filters.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # hypothesis without the patching module, or no libcst
        pass


@pytest.fixture
def boolean():
    return boolean_arrangement()


@pytest.fixture
def generic5():
    return generic5_arrangement()
