"""Suite-wide guards."""

from __future__ import annotations

import threading
import time

import pytest

from repro.wire import THREAD_PREFIX

#: How long a test's leftover wire threads get to finish after it ends.
_JOIN_S = 2.0


def pytest_configure(config):
    """Make repro's own ``DeprecationWarning`` an error, as
    ``perfbench/harness.py`` does.  A warning is attributed to the frame
    its ``stacklevel`` names: repro itself, or the test or helper module
    that called the deprecated API."""
    config.addinivalue_line(
        "filterwarnings", r"error::DeprecationWarning:(repro|tests|test_)"
    )


def _wire_threads() -> set[threading.Thread]:
    return {
        t for t in threading.enumerate() if t.name.startswith(THREAD_PREFIX)
    }


@pytest.fixture(autouse=True)
def no_leaked_wire_threads():
    """Fail a test that leaves a live ``repro.wire`` thread behind: every
    server it started must be stopped, and every stop must be prompt."""
    before = _wire_threads()
    yield
    deadline = time.monotonic() + _JOIN_S
    leaked = _wire_threads() - before
    for t in leaked:
        t.join(max(0.0, deadline - time.monotonic()))
    alive = sorted(t.name for t in leaked if t.is_alive())
    if alive:
        pytest.fail(f"live repro.wire threads after the test: {alive}")
