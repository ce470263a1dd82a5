import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run, so they cannot flake.
settings.register_profile("deterministic", derandomize=True, max_examples=100, deadline=None, database=None)
settings.load_profile("deterministic")
