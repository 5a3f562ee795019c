"""Hypothesis runs every property derandomized, without a deadline or an
example database, so each run of the suite draws the same examples."""

from hypothesis import settings

settings.register_profile("multitails", deadline=None, derandomize=True, database=None)
settings.load_profile("multitails")
