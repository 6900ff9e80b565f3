"""Test-suite settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run, from no example
# database, so a pass or a failure is a fact about a fixed input set and
# does not depend on what an earlier run in this checkout found.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
