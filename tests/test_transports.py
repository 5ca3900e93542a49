"""The shared JSON-lines wire (`repro.wire`): prompt close on every
server and client, and waits that time out without breaking the
connection."""

import time

import pytest

from tests.helpers import SERVER_KINDS, start_server


@pytest.mark.parametrize("kind", SERVER_KINDS)
def test_close_and_stop_are_prompt_with_an_idle_client_connected(kind):
    served = start_server(kind)
    idle = served.connect()
    try:
        other = served.connect()
        t0 = time.monotonic()
        other.close()
        assert time.monotonic() - t0 < 1.0
        t0 = time.monotonic()
        served.stop()
        assert time.monotonic() - t0 < 1.0
    finally:
        idle.close()


def test_wait_event_timeout_leaves_the_connection_usable():
    served = start_server("debug")
    client = served.connect()
    try:
        with pytest.raises(TimeoutError):
            client.wait_event("stopped", timeout=0.05)
        assert client.request("info", what="time") == served.result
    finally:
        client.close()
        served.stop()
