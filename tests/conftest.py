"""Keep hypothesis's on-disk caches out of the source tree.

``database=None`` stops the example database, but hypothesis still
caches the constants it reads from local modules under its home
directory.  The home is pointed at a temporary directory that is
removed when the session ends, so a test run leaves no ``.hypothesis/``.
"""

import shutil
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_HOME = tempfile.mkdtemp(prefix="hwgroups-hypothesis-")
set_hypothesis_home_dir(_HOME)


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_HOME, ignore_errors=True)
