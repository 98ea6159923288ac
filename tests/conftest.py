"""Test-wide hypothesis settings: every property test is seeded.

The profile derandomizes example generation and keeps no example database,
so a test draws the same examples on every run and machine; tests that set
their own ``settings`` (for ``max_examples``) inherit these defaults.
"""

from hypothesis import settings

settings.register_profile("seeded", derandomize=True, database=None, deadline=None)
settings.load_profile("seeded")
