"""Hypothesis profiles.

``tier1`` (the default) derives every example from the test itself and keeps
no example database, so a run passes or fails the same way on every machine.
``HYPOTHESIS_PROFILE=explore`` draws fresh random examples, ten times as many
for tests that do not set their own count, to hunt for counterexamples; pin
each one it finds with ``@example`` next to its fix.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
