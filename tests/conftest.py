"""Test-suite settings: property tests draw the same examples on every run."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, max_examples=40, deadline=None)
settings.load_profile("tier1")
