"""Hypothesis profiles. HYPOTHESIS_PROFILE=ci draws every example from a
fixed seed and prints the blob of a failing one, so a red CI run replays
locally with the same examples."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
