"""Hypothesis runs derandomized, without a deadline and without an example
database, so the suite is deterministic.  What Hypothesis still caches goes to
a temporary directory removed at exit, so a run leaves no .hypothesis/ behind."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("qeuler", derandomize=True, deadline=None, database=None)
settings.load_profile("qeuler")

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="qeuler-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
