"""Shared pytest set-up.

``--hypothesis-profile=ci`` derandomizes Hypothesis, so a property-test
failure in CI reproduces on every run; local runs keep the default
random search.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
