"""Shared test settings.

Hypothesis runs derandomized with a bounded example count and no deadline,
so the property tests give the same verdict on every run, also on a slow
or shared host.
"""

from hypothesis import settings

settings.register_profile("ccrlab", derandomize=True, deadline=None, max_examples=200)
settings.load_profile("ccrlab")
