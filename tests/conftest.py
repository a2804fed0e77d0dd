"""Hypothesis profiles: the tier-1 verdict is a function of the tree.

The default profile, ``tier1``, derandomizes every property test (its
examples are drawn from a seed derived from the test itself) and keeps
no example database, so two runs of one tree draw the same cases and a
failure found by one machine cannot replay on another only.  Nothing in
it depends on timing either: no deadline, no too-slow health check.

``HYPOTHESIS_PROFILE=explore`` selects fresh random draws on every run,
remembered in the local example database, and five times Hypothesis'
default example count wherever a test does not set its own.  CI runs it
as a separate, non-blocking job: that is where a new failing draw should
surface, not in an unrelated change.
"""

import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "tier1",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "explore",
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
