"""Hypothesis profiles. `HYPOTHESIS_PROFILE=ci` loads the CI profile: it
derives each test's examples from the test itself (`derandomize`), so a CI
failure reproduces locally with the same variable, and it doubles the
default example budget of tests that set none of their own."""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=2 * settings.default.max_examples)
if "HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
