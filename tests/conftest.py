"""Shared test configuration.

Property tests draw their examples from a fixed derandomized stream and
keep no example database, so every run of the suite checks the same
inputs. Hypothesis also caches the constants it finds in the source
under its storage directory; that directory is a temporary one, removed
when the session ends, so the suite leaves no ``.hypothesis/`` behind.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_storage = tempfile.TemporaryDirectory(prefix="fockspace-hypothesis-")
set_hypothesis_home_dir(_storage.name)

settings.register_profile("fockspace", derandomize=True, database=None)
settings.load_profile("fockspace")
