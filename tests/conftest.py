"""Hypothesis draws the same examples on every run and keeps no database.

``derandomize=True`` seeds each property test from its own source, and
``database=None`` neither reads nor writes a ``.hypothesis/`` directory, so
the pass count cannot change between runs of the same code.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
