"""One hypothesis profile for every property test: derandomized, without
an example database and without a deadline, so the suite stays
deterministic, and with hypothesis's other files in a temporary
directory, so no `.hypothesis/` directory is left behind.  Also the call
counter the work guards of several test files share."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# hypothesis caches the constants it reads from local source files under
# its home directory, database or not, and does so while pytest collects
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")


def count_calls(monkeypatch, module, name):
    """Wrap module.name for the test; the list of argument tuples it saw."""
    real, calls = getattr(module, name), []

    def wrapper(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(module, name, wrapper)
    return calls
