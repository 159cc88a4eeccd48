import os

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic. Hypothesis still caches the
# constants it finds in the package source; that cache goes under pytest's
# own cache directory rather than a .hypothesis/ in the working directory.
settings.register_profile("lanton", derandomize=True, database=None, max_examples=60, deadline=None)
settings.load_profile("lanton")
set_hypothesis_home_dir(os.path.join(os.path.dirname(os.path.dirname(__file__)), ".pytest_cache", "hypothesis"))
