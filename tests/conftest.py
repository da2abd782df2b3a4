"""Shared test helpers: hypothesis's home, and one CPU-time reader for
the timing pins.

``database=None`` stops the example database, but hypothesis still
caches the constants it reads from local modules under its home
directory.  The home is pointed at a temporary directory that is
removed when the session ends, so a test run leaves no ``.hypothesis/``.

``cpu_time`` times a block in CPU seconds, not on the wall clock, so
that other processes on the machine cannot stretch a timing pin: in
process it reads ``time.process_time()``, and around a child process
the ``RUSAGE_CHILDREN`` user + sys delta.  CPU time does not see a
process that waits, so the subprocess timeouts stay as the hang guards.
"""

import resource
import shutil
import tempfile
import time
from contextlib import contextmanager
from types import SimpleNamespace

from hypothesis.configuration import set_hypothesis_home_dir

_HOME = tempfile.mkdtemp(prefix="hwgroups-hypothesis-")
set_hypothesis_home_dir(_HOME)


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_HOME, ignore_errors=True)


def _children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@contextmanager
def cpu_time(children=False):
    """``with cpu_time() as spent: ...``, then ``spent.s`` holds the CPU
    seconds the block took: this process's, or with ``children=True``
    those of the child processes it waited for."""
    read = _children_cpu_s if children else time.process_time
    spent = SimpleNamespace(s=None)
    start = read()
    try:
        yield spent
    finally:
        spent.s = read() - start
