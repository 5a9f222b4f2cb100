# One hypothesis profile for the whole suite: the examples are derived from
# each test's name rather than drawn at random, so every run checks the same
# cases, and no per-example deadline applies.

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
