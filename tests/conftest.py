"""Hypothesis profiles. `HYPOTHESIS_PROFILE=ci` loads the CI profile: it
derives each test's examples from the test itself (`derandomize`), so a CI
failure reproduces locally with the same variable. It leaves example budgets
alone: every `@given` test sets `max_examples` in its own `@settings`, which
would override a profile's budget anyway."""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if "HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
