"""Test-wide settings: Hypothesis runs the same examples on every run.

``derandomize`` seeds each property from its own source, so Tier-1 is
deterministic, and no deadline means a slow machine cannot fail a property
by timing; each test keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
