import warnings

import pytest
from hypothesis import settings

from helpers import boolean_arrangement, generic5_arrangement

# Example budgets of the tests that set none of their own (the
# `kernel_property`, `construction_property`, `restriction_property` and
# `chamber_property` tests; every other @given test sets its own): "tier1",
# loaded here, derandomized, and "search", a larger randomized budget for
# time-boxed runs, each with its own 60 s budget in CI: `pytest
# --hypothesis-profile=search -k "kernel_property or construction_property or
# restriction_property"`, and `-k chamber_property` on its own.
settings.register_profile(
    "tier1", max_examples=100, deadline=None, derandomize=True, database=None
)
settings.register_profile("search", max_examples=350, deadline=None, database=None)
settings.load_profile("tier1")

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
