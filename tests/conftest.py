"""Shared test settings: every hypothesis sweep is seeded and reproducible.

The profile derives examples from the test itself (no random seed, no example
database) and sets no deadline, so a run gives the same cases on any machine.
Tests choose only their ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("qconstel", derandomize=True, deadline=None, database=None)
settings.load_profile("qconstel")
